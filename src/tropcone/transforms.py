"""Structural graph transformations with explicit witness maps.

Three stages turn an arbitrary valid game graph into one whose Random
vertices flip fair coins between two Max vertices:

* `zwick_paterson`: replaces arbitrary rational distributions by chains of
  fair coin flips; preserves the encoded operator exactly. Each stage is
  one pass over the Random vertices: degree-one removal bypasses them all
  at once, then one out-edge map serves degree lowering, which walks the
  growing vertex list, and the binary gadget of each biased vertex.
* `first_transformation`: inserts a Min vertex after every Max out-edge and
  a Max vertex before every Min in-edge; the subfixed set of the input is
  the projection of the output's.
* `second_transformation`: splits one Random-to-Random edge with a fresh
  Max/Min pair.

`pipeline` runs the first two stages and then splits every Random-to-Random
edge in one pass. It returns a witness map relating the two subfixed sets;
a witness map is data, a list of parts (graph, heads) that give one row
per head, each defining one new coordinate, so composing two is
concatenation. Both transformations build their rows by one rule,
`_expected_rows`: the expected Max value seen from a head, over its
absorption row, so a row's probabilities are integers over one d. A map
reads its rows off its parts on the first `lift`, and so solves the
absorption system then, once; the first `lift` also builds its integer
plan and keeps it on the map:
every constant over their common denominator, each row's single-term pairs
folded into one constant and one weight per coordinate, and one slot per
coordinate: a row equal to an earlier one, or a copy of one coordinate,
shares that slot, so a lift evaluates each distinct row once and `lift`
builds one `Fraction` per slot. A lift reads a point of T^n by the rule of
`tropcone.scalars`, -inf as None, and holds it as integers over one running
denominator, multiplied up only when a row's value needs it, which a
shared row's never does again; `lift_integers` returns them as they are.

Every stage checks its input and builds its output with `graph._Builder`,
whose `freeze` checks the built graph; a graph's validation report is made
by its constructor and its absorption table cached on it, so no stage
repeats them. The witness parts of the first transformation and of the
split are both on its output, so a `pipeline` map solves once, on its first
lift, and `pipeline`, `transform` and `synthesize` solve nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter
from typing import Optional

from .errors import PreconditionViolated
from .graph import HALF, Edge, GameGraph, _Builder, _top
from .graph import require_compliant, require_valid
from .scalars import int_from_json, integers_over, sized, times

ZERO = Fraction(0)


@dataclass(frozen=True)
class WitnessMap:
    """Explicit lift from source coordinates to target coordinates, stored
    as data.

    Each part (graph, heads) stands for the rows `_expected_rows(graph,
    heads)`, read off the graph's absorption table on the first read of
    `rows`, which a lift makes: a map solves on its first lift, once. Each
    row (d, ((N, terms), ...)) defines one new coordinate, appended in
    order, as the sum of N / d * max over (c, i) in terms of (c + y[i]),
    where y is the source point followed by the new coordinates so far.
    Composing two maps concatenates their parts. `project` drops the new
    coordinates, so project(lift(x)) == x.
    """

    kind: str
    source_dim: int
    parts: tuple = field(default=(), repr=False, compare=False)
    new_coords: tuple = ()

    @cached_property
    def rows(self) -> tuple:
        """The rows of every part, in order."""
        return tuple(row for g, heads in self.parts for row in _expected_rows(g, heads))

    @cached_property
    def _plan(self) -> tuple:
        """(C, rows, slots): C, the lcm of every constant's denominator;
        per distinct row (d, K, ((N, i), ...), ((N, ((i, c), ...)), ...)),
        c over C, its single-term pairs folded into K, the sum of their
        N * c, and one (N, i) per slot i; per coordinate its slot. A copy
        (d, 0, ((d, i),), ()) takes slot i."""
        scale = lcm(*(c.denominator for _, row in self.rows for _, terms in row for c, _ in terms))
        slots = list(range(self.source_dim))
        distinct = {}
        for den, row in self.rows:
            const, singles, multis = 0, {}, []
            for q, terms in row:
                scaled = tuple((slots[i], times(c, scale)) for c, i in terms)
                if len(scaled) == 1:
                    i, c = scaled[0]
                    const += q * c
                    singles[i] = singles.get(i, 0) + q
                else:
                    multis.append((q, scaled))
            if const == 0 and not multis and list(singles.values()) == [den]:
                slots.extend(singles)  # a copy: its one coordinate's slot
            else:
                key = (den, const, tuple((q, i) for i, q in sorted(singles.items())), tuple(multis))
                slots.append(distinct.setdefault(key, self.source_dim + len(distinct)))
        return scale, tuple(distinct), tuple(slots)

    def _lift_compact(self, x) -> tuple:
        """(D, c): x followed by the value of each distinct row, as
        integers over one denominator D, None for -inf. D starts as the lcm
        of C and x's denominators. A row gives T / d over D; when d does not
        divide T, D and every c so far are multiplied by d / gcd(T, d).
        Every N is positive, so a row is -inf when a single-term pair or a
        whole max (`graph._top`) is."""
        d, y = integers_over(sized(x, self.source_dim), self._plan[0])
        scale, rows, _ = self._plan
        r = d // scale
        for den, const, singles, multis in rows:
            try:
                total = const * r
                for q, i in singles:
                    total += q * y[i]
                for q, terms in multis:
                    total += q * _top(terms, y, r)
            except TypeError:  # q * None: a -inf term, so the row is -inf
                y.append(None)
                continue
            g = gcd(total, den)
            if g != den:
                f = den // g
                d, r = d * f, r * f
                y = [v if v is None else v * f for v in y]
            y.append(total // g)
        return d, y

    def lift_integers(self, x) -> tuple:
        """(D, y): the lift of x as integers over D, None for -inf."""
        d, c = self._lift_compact(x)
        return d, [c[s] for s in self._plan[2]]

    def lift(self, x) -> tuple:
        """x and every new coordinate, one Fraction per slot, None for -inf."""
        d, c = self._lift_compact(x)
        c = [v if v is None else Fraction(v, d) for v in c]
        return tuple(c[s] for s in self._plan[2])

    def project(self, xp):
        return tuple(xp[: self.source_dim])

    def descriptor(self) -> dict:
        return {"kind": self.kind, "new_coords": list(self.new_coords)}


@dataclass(frozen=True)
class GadgetRecord:
    """Bookkeeping for one binary coin-flip gadget."""

    entry: int
    head_a: int
    head_b: int
    q: Fraction
    r: int
    new_vertices: tuple[int, ...]


def _remove_degree_one_randoms(b: _Builder) -> None:
    """Bypass every Random vertex of out-degree one. Bypassing one leaves
    every other out-degree unchanged, so they are all found in one pass;
    an edge into a chain of them is sent to the chain's first kept vertex,
    which exists because every Random vertex of a valid graph reaches a
    Min or Max vertex."""
    degree = Counter(e.tail for e in b.edges)
    randoms = set(b.random_vertices)
    sole = {e.tail: e.head for e in b.edges if e.tail in randoms and degree[e.tail] == 1}
    target = {}
    for v, head in sole.items():
        while head in sole:
            head = sole[head]
        target[v] = head
    b.random_vertices = [v for v in b.random_vertices if v not in sole]
    b.edges = [
        f if f.head not in target else Edge(f.id, f.tail, target[f.head], f.payoff, f.prob)
        for f in b.edges
        if f.tail not in sole
    ]


def _lower_degrees(b: _Builder, out: dict) -> set:
    """Split every Random vertex of out-degree above two into a first edge
    and a fresh Random vertex that takes the rest, over the growing vertex
    list, so a fresh vertex is split in its turn. Out-edges are read from
    `out`, kept current; returns the ids of the replaced edges."""
    replaced = set()
    for v in b.random_vertices:
        es = out[v]
        if len(es) <= 2:
            continue
        e1, *rest = sorted(es, key=attrgetter("id"))
        q_rest = 1 - e1.prob
        u = b.fresh_vertex()
        b.random_vertices.append(u)
        replaced.update(f.id for f in es)
        out[v] = [b.add_edge(v, e1.head, prob=e1.prob), b.add_edge(v, u, prob=q_rest)]
        out[u] = [b.add_edge(u, e.head, prob=e.prob / q_rest) for e in rest]
    return replaced


def _bits(value: int, r: int):
    return [(value >> s) & 1 for s in range(r + 1)]


# A gadget has about two Random vertices per bit of its denominator, and
# each pivot of the absorption solve updates the two or three rows it
# reaches, so pipeline time grows with about the square of the bit length:
# 0.03 s on a two-coordinate min-max graph with rows over a 32-bit
# denominator, 0.12 s over a 63-bit one (Python 3.11, a shared 2-vCPU host).
MAX_DENOMINATOR_BITS = 64


def _install_gadget(b: _Builder, v: int, es: list) -> Optional[GadgetRecord]:
    """Replace the two out-edges es of Random vertex v, unless they are a
    fair coin, by a gadget of fair coins; the caller drops es."""
    e1, e2 = sorted(es, key=attrgetter("id"))
    q = e1.prob
    a, bden = q.numerator, q.denominator
    if a == 1 and bden == 2:
        return None
    head_a, head_b = e1.head, e2.head
    r = bden.bit_length() - 1  # 2^r <= b < 2^(r+1)
    if r >= MAX_DENOMINATOR_BITS:
        raise PreconditionViolated(
            f"Random vertex {v} has a {r + 1}-bit probability denominator, above {MAX_DENOMINATOR_BITS}"
        )
    cs = _bits(a, r)
    ds = _bits(bden - a, r)

    tops = [v] + [b.fresh_vertex() for _ in range(r)]
    bottoms = [b.fresh_vertex() for _ in range(r + 1)]
    new_vertices = tops[1:] + bottoms
    b.random_vertices.extend(new_vertices)

    for t in range(r + 1):
        nxt = tops[t + 1] if t + 1 <= r else v
        b.add_edge(tops[t], bottoms[t], prob=HALF)
        b.add_edge(tops[t], nxt, prob=HALF)
        s = r - t
        b.add_edge(bottoms[t], head_a if cs[s] else v, prob=HALF)
        b.add_edge(bottoms[t], head_b if ds[s] else v, prob=HALF)
    return GadgetRecord(v, head_a, head_b, q, r, tuple(new_vertices))


def zwick_paterson_with_gadgets(g: GameGraph) -> tuple[GameGraph, tuple[GadgetRecord, ...]]:
    require_valid(g)
    b = _Builder(g)
    _remove_degree_one_randoms(b)
    # Lowering keeps `out` current; a gadget adds edges out of its own vertices only.
    out = b.out_edges()
    replaced = _lower_degrees(b, out)
    records = []
    for v in list(b.random_vertices):
        rec = _install_gadget(b, v, out[v])
        if rec is not None:
            records.append(rec)
            replaced.update(e.id for e in out[v])
    b.edges = [f for f in b.edges if f.id not in replaced]
    return b.freeze(), tuple(records)


def zwick_paterson(g: GameGraph) -> GameGraph:
    """Normalize all Random vertices to fair coin flips; the encoded
    operator is unchanged."""
    return zwick_paterson_with_gadgets(g)[0]


def _expected_rows(g: GameGraph, heads) -> tuple:
    """One witness row per head, the expected Max value seen from it:
    (d, ((N, terms of w), ...)) over the head's absorption row (d, {w: N})
    in `g`, whose Max out-edges head Min vertices. A Min vertex w has the
    term (0, index of w), a Max vertex one (payoff, index of head) per
    out-edge. The row is a fixed point of its coordinate of the target
    operator, even when random cycles pass through the head."""
    idx = g.min_index
    terms = {w: ((ZERO, i),) for w, i in idx.items()}
    for w in g.max_vertices:
        terms[w] = tuple((e.payoff, idx[e.head]) for e in g.out_edges[w])
    rows = map(g.absorption_row, heads)
    return tuple((d, tuple((x, terms[w]) for w, x in xs.items())) for d, xs in rows)


def first_transformation(g: GameGraph) -> tuple[GameGraph, WitnessMap]:
    """Insert Min vertices after Max out-edges and Max vertices before Min
    in-edges. The new Min coordinates are indexed by the Max out-edges, in
    edge order; the witness row of each is `_expected_rows` of the head of
    the edge out of its Min vertex in the output. By the max-max-path rule
    that row lies on the buffer vertices kappa[f] only, each with the term
    (0, index of the Min head of f), which a lift's plan adds up per
    coordinate. The witness holds the output and those heads as its one
    part and solves nothing until its first lift; `pipeline`'s split part
    is on the same output, so its map solves once."""
    require_valid(g)
    max_out = [e for e in g.edges if g.kind[e.tail] == "max"]
    min_headed = [e for e in g.edges if g.kind[e.head] == "min"]

    b = _Builder(g)
    mu = {}
    for e in max_out:
        mu[e.id] = b.fresh_vertex()
        b.min_vertices.append(mu[e.id])
    kappa = {}
    for f in min_headed:
        kappa[f.id] = b.fresh_vertex()
        b.max_vertices.append(kappa[f.id])

    b.edges = []
    leaving = []  # the edge out of mu, per Max out-edge
    for f in g.edges:
        if f.id in mu:
            # Max out-edge: tail -> mu -> (kappa ->) head.
            b.add_edge(f.tail, mu[f.id], payoff=f.payoff)
            leaving.append(b.add_edge(mu[f.id], kappa.get(f.id, f.head), payoff=ZERO))
        elif f.id in kappa:
            # Random edge into a Min vertex: tail -> kappa -> head.
            b.add_edge(f.tail, kappa[f.id], prob=f.prob)
        else:
            b.add_edge(f.tail, f.head, payoff=f.payoff, prob=f.prob)
        if f.id in kappa:
            b.add_edge(kappa[f.id], f.head, payoff=ZERO)

    out = b.freeze()
    heads = tuple(e.head for e in leaving)
    return out, WitnessMap("t1", g.n, ((out, heads),), tuple(f"t1:{e.id}" for e in max_out))


def _split(g: GameGraph, edges) -> tuple[GameGraph, WitnessMap]:
    """Split each given Random-to-Random edge with a fresh Max/Min pair, in
    the order given, checking nothing that `second_transformation` checks.
    The new coordinate of a split edge is `_expected_rows` of its head in
    `g`; this equals what splitting the edges one at a time would give,
    since a split never creates a Random-to-Random edge. The witness holds
    `g` and the heads as its one part, so `g` is solved on the first lift,
    not here."""
    b = _Builder(g)
    split = {e.id for e in edges}
    b.edges = [f for f in b.edges if f.id not in split]
    new_coords = []
    for e in edges:
        new_max = b.fresh_vertex()
        new_min = b.fresh_vertex()
        b.max_vertices.append(new_max)
        b.min_vertices.append(new_min)
        b.add_edge(e.tail, new_max, prob=e.prob)
        b.add_edge(new_max, new_min, payoff=ZERO)
        b.add_edge(new_min, e.head, payoff=ZERO)
        new_coords.append(f"t2:{new_min}")
    heads = tuple(e.head for e in edges)
    return b.freeze(), WitnessMap("t2", g.n, ((g, heads),), tuple(new_coords))


def second_transformation(g: GameGraph, edge_id: int) -> tuple[GameGraph, WitnessMap]:
    """Check `g` and `edge_id`, then split that Random-to-Random edge with a fresh Max/Min pair."""
    edge_id = int_from_json(edge_id)
    require_valid(g)
    e = next((f for f in g.edges if f.id == edge_id), None)
    if e is None:
        raise PreconditionViolated(f"no edge with id {edge_id}")
    if g.kind[e.tail] != "random" or g.kind[e.head] != "random":
        raise PreconditionViolated(f"edge {edge_id} does not join two Random vertices")
    for f in g.edges:
        if g.kind[f.tail] == "max" and g.kind[f.head] != "min":
            raise PreconditionViolated(f"Max out-edge {f.id} does not head a Min vertex")
    return _split(g, [e])


def pipeline(g: GameGraph) -> tuple[GameGraph, WitnessMap]:
    """Zwick-Paterson, then the first transformation, then one pass that
    splits every Random-to-Random edge, in id order."""
    if g.compliant:
        return g, WitnessMap("pipeline", g.n)

    t1, w1 = first_transformation(zwick_paterson(g))
    # t1 is valid and its Max out-edges head Min vertices, as `_split` needs.
    kind = t1.kind
    rr = sorted((e for e in t1.edges if kind[e.tail] == kind[e.head] == "random"), key=attrgetter("id"))
    out, w2 = _split(t1, rr)
    require_compliant(out)
    return out, WitnessMap("pipeline", g.n, w1.parts + w2.parts, w1.new_coords + w2.new_coords)
