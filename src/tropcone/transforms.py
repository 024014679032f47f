"""Structural graph transformations with explicit witness maps.

Three stages turn an arbitrary valid game graph into one whose Random
vertices flip fair coins between two Max vertices:

* `zwick_paterson`: replaces arbitrary rational distributions by chains of
  fair coin flips (degree-one removal, degree lowering, binary gadget);
  preserves the encoded operator exactly.
* `first_transformation`: inserts a Min vertex after every Max out-edge and
  a Max vertex before every Min in-edge; the subfixed set of the input is
  the projection of the output's.
* `second_transformation`: splits one Random-to-Random edge with a fresh
  Max/Min pair.

`pipeline` runs the first two stages and then splits every Random-to-Random
edge in one pass that reads a single absorption table. It returns a witness map
relating the two subfixed sets; a witness map is data, a list of rows that
each define one new coordinate, so composing two is concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from .errors import DimensionMismatch, PreconditionViolated
from .graph import (
    Edge,
    GameGraph,
    absorption,
    require_valid,
    validate_graph,
)

HALF = Fraction(1, 2)
ZERO = Fraction(0)


@dataclass(frozen=True)
class WitnessMap:
    """Explicit lift from source coordinates to target coordinates, stored
    as data.

    Each row defines one new coordinate, appended in order, as the sum of
    p * max over (c, i) of (c + y[i]) over its (p, terms) pairs, where y is
    the source point followed by the new coordinates computed so far.
    Composing two maps concatenates their rows. `project` drops the new
    coordinates, so project(lift(x)) == x.
    """

    kind: str
    source_dim: int
    rows: tuple = ()
    new_coords: tuple = ()

    @property
    def target_dim(self) -> int:
        return self.source_dim + len(self.rows)

    def lift(self, x) -> tuple:
        y = [Fraction(v) for v in x]
        if len(y) != self.source_dim:
            raise DimensionMismatch(
                f"point of length {len(y)}, witness expects {self.source_dim}"
            )
        for row in self.rows:
            val = ZERO
            for p, terms in row:
                val += p * max(c + y[i] for c, i in terms)
            y.append(val)
        return tuple(y)

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


class _Builder:
    """Mutable scratch copy of a graph with deterministic id allocation."""

    def __init__(self, g: GameGraph):
        self.min_vertices = list(g.min_vertices)
        self.max_vertices = list(g.max_vertices)
        self.random_vertices = list(g.random_vertices)
        self.edges = list(g.edges)
        self._next_vertex = g.next_vertex_id()
        self._next_edge = g.next_edge_id()

    def fresh_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        return v

    def add_edge(self, tail, head, payoff=None, prob=None) -> Edge:
        e = Edge(self._next_edge, tail, head, payoff=payoff, prob=prob)
        self._next_edge += 1
        self.edges.append(e)
        return e

    def out(self, v):
        return [e for e in self.edges if e.tail == v]

    def freeze(self) -> GameGraph:
        return GameGraph(
            tuple(self.min_vertices),
            tuple(self.max_vertices),
            tuple(self.random_vertices),
            tuple(self.edges),
        )


def _remove_degree_one_randoms(b: _Builder) -> None:
    while True:
        victim = None
        for v in b.random_vertices:
            if len(b.out(v)) == 1:
                victim = v
                break
        if victim is None:
            return
        (e,) = b.out(victim)
        b.random_vertices.remove(victim)
        b.edges = [
            f if f.head != victim else Edge(f.id, f.tail, e.head, f.payoff, f.prob)
            for f in b.edges
            if f.id != e.id
        ]


def _lower_degrees(b: _Builder) -> None:
    while True:
        victim = None
        for v in b.random_vertices:
            if len(b.out(v)) > 2:
                victim = v
                break
        if victim is None:
            return
        es = sorted(b.out(victim), key=attrgetter("id"))
        e1, rest = es[0], es[1:]
        q1 = e1.prob
        u = b.fresh_vertex()
        b.random_vertices.append(u)
        b.edges = [f for f in b.edges if f.tail != victim]
        b.add_edge(victim, e1.head, prob=q1)
        b.add_edge(victim, u, prob=1 - q1)
        for e in rest:
            b.add_edge(u, e.head, prob=e.prob / (1 - q1))


def _bits(value: int, r: int):
    return [(value >> s) & 1 for s in range(r + 1)]


def _install_gadget(b: _Builder, v: int) -> Optional[GadgetRecord]:
    es = sorted(b.out(v), key=attrgetter("id"))
    e1, e2 = es
    q = e1.prob
    if q == HALF:
        return None
    head_a, head_b = e1.head, e2.head
    a, bden = q.numerator, q.denominator
    r = bden.bit_length() - 1  # 2^r <= b < 2^(r+1)
    cs = _bits(a, r)
    ds = _bits(bden - a, r)

    tops = [v] + [b.fresh_vertex() for _ in range(r)]
    bottoms = [b.fresh_vertex() for _ in range(r + 1)]
    new_vertices = tops[1:] + bottoms
    b.random_vertices.extend(new_vertices)

    b.edges = [f for f in b.edges if f.id not in (e1.id, e2.id)]
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
    _lower_degrees(b)
    records = []
    for v in list(b.random_vertices):
        rec = _install_gadget(b, v)
        if rec is not None:
            records.append(rec)
    out = b.freeze()
    require_valid(out)
    return out, tuple(records)


def zwick_paterson(g: GameGraph) -> GameGraph:
    """Normalize all Random vertices to fair coin flips; the encoded
    operator is unchanged."""
    return zwick_paterson_with_gadgets(g)[0]


def first_transformation(g: GameGraph) -> tuple[GameGraph, WitnessMap]:
    """Insert Min vertices after Max out-edges and Max vertices before Min
    in-edges. The new Min coordinates are indexed by the Max out-edges, in
    edge order, and the witness sets each to the expected value of the
    source coordinates under the absorption distribution."""
    table = absorption(g)
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

    new_edges = []
    for f in g.edges:
        if f.id in mu:
            # Max out-edge: tail -> mu -> (kappa ->) head.
            inner_head = kappa[f.id] if f.id in kappa else f.head
            new_edges.append((f.tail, f.head, f.payoff, None, "to-mu", f.id))
            new_edges.append((mu[f.id], inner_head, ZERO, None, None, None))
        elif f.id in kappa:
            # Random edge into a Min vertex: tail -> kappa -> head.
            new_edges.append((f.tail, kappa[f.id], None, f.prob, None, None))
        else:
            new_edges.append((f.tail, f.head, f.payoff, f.prob, None, None))
        if f.id in kappa:
            new_edges.append((kappa[f.id], f.head, ZERO, None, None, None))

    b.edges = []
    for tail, head, payoff, prob, tag, eid in new_edges:
        if tag == "to-mu":
            b.add_edge(tail, mu[eid], payoff=payoff)
        else:
            b.add_edge(tail, head, payoff=payoff, prob=prob)

    out = b.freeze()
    require_valid(out)

    idx = g.min_index
    rows = tuple(
        tuple((p, ((ZERO, idx[v]),)) for v, p in table.row(e.id).items()) for e in max_out
    )
    witness = WitnessMap("t1", g.n, rows, tuple(f"t1:{e.id}" for e in max_out))
    return out, witness


def _split(g: GameGraph, edge_ids) -> tuple[GameGraph, WitnessMap]:
    """Split each listed Random-to-Random edge with a fresh Max/Min pair, in
    the order given.

    The new coordinate of a split edge is the expected Max-vertex value seen
    from its head, read off the absorption table of `g`. This is a fixed
    point of the new coordinate of the target operator even when random
    cycles pass through the split edge, and it equals what splitting the
    edges one at a time would give, since a split never creates a
    Random-to-Random edge."""
    table = absorption(g)
    edges = {e.id: e for e in g.edges}
    for edge_id in edge_ids:
        e = edges.get(edge_id)
        if e is None:
            raise PreconditionViolated(f"no edge with id {edge_id}")
        if g.kind[e.tail] != "random" or g.kind[e.head] != "random":
            raise PreconditionViolated(f"edge {edge_id} does not join two Random vertices")
    for e in g.edges:
        if g.kind[e.tail] == "max" and g.kind[e.head] != "min":
            raise PreconditionViolated(
                f"Max out-edge {e.id} does not head a Min vertex"
            )

    idx = g.min_index
    # Every Max out-edge heads a Min vertex, so a Max vertex's value is a
    # maximum of payoff + one coordinate.
    terms = {w: ((ZERO, i),) for w, i in idx.items()}
    for w in g.max_vertices:
        terms[w] = tuple((e.payoff, idx[e.head]) for e in g.out_edges[w])

    b = _Builder(g)
    split = set(edge_ids)
    b.edges = [f for f in b.edges if f.id not in split]
    rows, new_coords = [], []
    for edge_id in edge_ids:
        e = edges[edge_id]
        new_max = b.fresh_vertex()
        new_min = b.fresh_vertex()
        b.max_vertices.append(new_max)
        b.min_vertices.append(new_min)
        b.add_edge(e.tail, new_max, prob=e.prob)
        b.add_edge(new_max, new_min, payoff=ZERO)
        b.add_edge(new_min, e.head, payoff=ZERO)
        rows.append(tuple((p, terms[w]) for w, p in table.row(edge_id).items()))
        new_coords.append(f"t2:{new_min}")
    out = b.freeze()
    require_valid(out)
    return out, WitnessMap("t2", g.n, tuple(rows), tuple(new_coords))


def second_transformation(g: GameGraph, edge_id: int) -> tuple[GameGraph, WitnessMap]:
    """Split the Random-to-Random edge `edge_id` with a fresh Max/Min pair."""
    return _split(g, [edge_id])


def is_compliant(g: GameGraph) -> bool:
    """Every Random vertex flips a fair coin between two Max vertices."""
    if not validate_graph(g).ok:
        return False
    for v in g.random_vertices:
        out = g.out_edges[v]
        if len(out) != 2:
            return False
        if any(e.prob != HALF for e in out):
            return False
        if any(g.kind[e.head] != "max" for e in out):
            return False
    return True


def pipeline(g: GameGraph) -> tuple[GameGraph, WitnessMap]:
    """Zwick-Paterson, then the first transformation, then one pass that
    splits every Random-to-Random edge, in id order."""
    require_valid(g)
    if is_compliant(g):
        return g, WitnessMap("pipeline", g.n)

    t1, w1 = first_transformation(zwick_paterson(g))
    kind = t1.kind
    out, w2 = _split(
        t1, sorted(e.id for e in t1.edges if kind[e.tail] == kind[e.head] == "random")
    )
    assert is_compliant(out)
    return out, WitnessMap("pipeline", g.n, w1.rows + w2.rows, w1.new_coords + w2.new_coords)
