"""Min/Random/Max game graphs and the monotone homogeneous operators they
encode.

A graph has three disjoint vertex classes. Edges out of Min and Max vertices
carry rational payoffs; edges out of Random vertices carry positive rational
probabilities summing to one per vertex. A graph's constructor is its one
walk: it reads each id and label, files each edge under its tail, checks the
edges and then the whole graph, and tells whether the graph is compliant,
keeping the report on the graph for `validate_graph` to return. It checks
probabilities in integers: `scalars.sums_to_one` reads each once, and a fair
coin is told by its denominator. An edge is a frozen, slotted `Edge`
record, built by storing its fields through the slot descriptors.
The encoded operator is computed from exact absorption probabilities of the
induced Markov chain in which every Min and Max vertex is absorbing, solved
in integers by the fraction-free `scalars.pivot`, one solve per strongly
connected component of the Random vertices. The solve's rows,
(d, {vertex: N}) per Random vertex, are the one form every reader takes.

The operator is evaluated in exact integers at points of T^n, from one
plan built on a graph's first evaluation and kept on it next to the
absorption table (`GameGraph.operator_plan`): a point is read by the rule
of `tropcone.scalars` and scaled to integers over D = lcm(C, its finite
denominators), C the lcm of the payoff denominators, and every payoff and
probability is an integer over its lcm (`scalars.integers_over` and
`scalars.times`). `eval_operator` and `subfixed` share one kernel, which
computes a Max value only when a Min out-edge first reads it.
A -inf coordinate is None; max, min and sums with positive weights extend
the operator to it by continuity, so -inf is absorbing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import NonStochastic, NotCompliant, ValidationFailed
from .scalars import exact, int_from_json, integers_over, pivot, rational, rational_from_str
from .scalars import rational_text, rational_to_str, sized, sums_to_one, times

Vector = tuple[Fraction, ...]

HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """A frozen, slotted edge record. Its constructor stores the fields
    through the slot descriptors, which skips the frozen `__setattr__` that
    a generated `__init__` goes through per field; `replace`, `fields`, eq,
    hash, repr and `FrozenInstanceError` on assignment are the dataclass's."""

    id: int
    tail: int
    head: int
    payoff: Optional[Fraction] = None
    prob: Optional[Fraction] = None

    def __init__(self, id, tail, head, payoff=None, prob=None):
        _set_id(self, id)
        _set_tail(self, tail)
        _set_head(self, head)
        _set_payoff(self, payoff)
        _set_prob(self, prob)


_set_id, _set_tail, _set_head, _set_payoff, _set_prob = (
    Edge.__dict__[name].__set__ for name in ("id", "tail", "head", "payoff", "prob")
)


@dataclass(frozen=True, eq=False)
class GameGraph:
    """Immutable game graph. Min-vertex list order fixes the coordinate
    order of the encoded operator. The constructor is the one walk of a
    graph, for `from_json` and the builders alike: it checks every stored
    id and label, raising the `ValueError` of `int_from_json` or `rational`
    on the first it refuses, whatever the report holds, and stores `kind`
    ({vertex: "min" | "max" | "random"}), `out_edges` ({vertex: [its
    out-edges, in edge order]}), `validation` (the `ValidationReport` that
    `validate_graph` returns) and `compliant` (valid, with every Random
    vertex a fair coin between two Max vertices) as plain attributes."""

    min_vertices: tuple[int, ...]
    max_vertices: tuple[int, ...]
    random_vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        kind = {}
        for cls, vertices in (("min", self.min_vertices), ("max", self.max_vertices), ("random", self.random_vertices)):
            for v in vertices:
                if type(v) is not int:
                    int_from_json(v)
                kind[v] = cls
        out = {v: [] for v in kind}

        # Each edge is read, filed under its tail and checked, its endpoint
        # and label failures kept in edge order. On a valid graph the
        # probabilities are positive and sum to one per Random vertex, so
        # one over 2 is 1/2, and a vertex whose edges are all 1/2 has two:
        # a fair coin is told by its denominator, since comparing
        # `Fraction`s goes through the `numbers.Rational` ABC.
        ids, edge_failures, coins = set(), [], True
        for e in self.edges:
            if not (type(e.id) is type(e.tail) is type(e.head) is int):
                for v in (e.id, e.tail, e.head):
                    int_from_json(v)
            payoff, p = e.payoff, e.prob
            if type(payoff) is not Fraction and payoff is not None:
                rational(payoff)
            if type(p) is not Fraction and p is not None:
                rational(p)
            ids.add(e.id)
            tail = kind.get(e.tail)
            if tail is not None:
                out[e.tail].append(e)
            if tail is None or e.head not in kind:
                edge_failures.append(("edge-endpoints", f"edge {e.id} has an unknown endpoint"))
            elif tail == "random":
                if p is None or payoff is not None:
                    edge_failures.append(
                        ("edge-labels", f"edge {e.id} out of a Random vertex must carry a probability only")
                    )
                elif p.numerator <= 0:
                    edge_failures.append(("edge-labels", f"edge {e.id} has nonpositive probability"))
                elif p.denominator != 2 or kind[e.head] != "max":
                    coins = False
            elif payoff is None or p is not None:
                edge_failures.append(("edge-labels", f"edge {e.id} out of a {tail} vertex must carry a payoff only"))

        # `kind` holds each vertex once, so a vertex in two classes shortens it.
        failures = []
        if len(kind) != len(self.min_vertices) + len(self.max_vertices) + len(self.random_vertices):
            failures.append(("disjoint", "vertex classes are not disjoint"))
        if len(ids) != len(self.edges):
            failures.append(("edge-ids", "edge ids are not unique"))
        if not self.min_vertices or not self.max_vertices:
            failures.append(("nonempty-classes", "Min and Max vertex sets must be nonempty"))
        failures += edge_failures
        for v, es in out.items():
            if not es:
                failures.append(("out-degree", f"vertex {v} has no outgoing edge"))
        # A Random vertex's probabilities are those of all its out-edges, an
        # edge with an unknown head or a payoff too included.
        for v in self.random_vertices:
            probs = [e.prob for e in out[v] if e.prob is not None]
            if not sums_to_one(probs):
                total = rational_text(sum(probs, Fraction(0)))
                failures.append(("prob-sum", f"probabilities out of {v} sum to {total}"))

        if not failures:
            # A Max-free path from a Min vertex leaves by an out-edge into a
            # Min vertex or into a Random vertex that reaches one through
            # Random vertices only; Max vertices likewise. The classes are
            # disjoint and every head is known here.
            into = defaultdict(list)
            for v in self.random_vertices:
                for e in out[v]:
                    into[e.head].append(v)
            to_min = _reaching_randoms(into, self.min_vertices).union(self.min_vertices)
            to_max = _reaching_randoms(into, self.max_vertices).union(self.max_vertices)
            for v in self.min_vertices:
                if not to_min.isdisjoint([e.head for e in out[v]]):
                    failures.append(("min-min-path", f"a Max-free path joins Min vertex {v} to a Min vertex"))
            for v in self.max_vertices:
                if not to_max.isdisjoint([e.head for e in out[v]]):
                    failures.append(("max-max-path", f"a Min-free path joins Max vertex {v} to a Max vertex"))
            for v in self.random_vertices:
                if v not in to_min and v not in to_max:
                    failures.append(("random-reach", f"no Min or Max vertex reachable from Random vertex {v}"))

        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "out_edges", out)
        object.__setattr__(self, "validation", ValidationReport(tuple(failures)))
        object.__setattr__(self, "compliant", coins and not failures)

    @cached_property
    def min_index(self) -> dict:
        return {v: i for i, v in enumerate(self.min_vertices)}

    @cached_property
    def absorption_table(self) -> dict:
        """Exact absorption probabilities {Random vertex: (d, {u: N})}: the
        chain started at the vertex is absorbed in the Min/Max vertex u with
        probability N / d, each row in lowest terms. Solved once per graph
        after validation, by this property only; vertices of probability 0
        are left out."""
        require_valid(self)
        return _exit_rows(self)

    def absorption_row(self, v: int) -> tuple:
        """The absorption row (d, {u: N}) of vertex v: its table row for a
        Random vertex, (1, {v: 1}) for a Min or Max vertex."""
        return self.absorption_table.get(v) or (1, {v: 1})

    @cached_property
    def operator_plan(self) -> tuple:
        """The integer form of the encoded operator, built on the first
        `eval_operator` or `subfixed` call: (C, P1, P2, max terms, min
        terms). C is the lcm of the Min/Max payoff denominators, P1 and P2
        the lcm of the d of the absorption rows (d, {u: N}) of the Max and
        of the Min out-edges' heads. Per Max vertex, one (payoff * C * P1,
        ((N * P1 / d, Min index), ...)) per out-edge; per Min vertex, one
        (payoff * C * P1 * P2, ((N * P2 / d, Max index), ...)) per out-edge.
        Max values are then integers over D * P1 and Min values over
        D * P1 * P2, for a point scaled to integers over D. Both callers
        run one kernel on it, which reads the Max values lazily."""
        return _operator_plan(self)

    @property
    def n(self) -> int:
        return len(self.min_vertices)

    def to_json(self) -> dict:
        return {
            "min": list(self.min_vertices),
            "max": list(self.max_vertices),
            "random": list(self.random_vertices),
            "edges": [
                {
                    "id": e.id,
                    "tail": e.tail,
                    "head": e.head,
                    "payoff": None if e.payoff is None else rational_to_str(e.payoff),
                    "prob": None if e.prob is None else rational_to_str(e.prob),
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GameGraph":
        def label(e, key):
            return None if e.get(key) is None else rational_from_str(e[key])

        edges = tuple(Edge(e["id"], e["tail"], e["head"], label(e, "payoff"), label(e, "prob")) for e in obj["edges"])
        return cls(tuple(obj["min"]), tuple(obj["max"]), tuple(obj["random"]), edges)


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(f"{code}: {msg}" for code, msg in self.failures)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": [{"code": c, "message": m} for c, m in self.failures],
        }


def _reaching_randoms(into: dict, targets) -> set:
    """Random vertices with a path into `targets` along Random-tail edges,
    by one reverse search over `into`, {head: [Random tails]}."""
    seen = set()
    stack = list(targets)
    while stack:
        for u in into.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def validate_graph(g: GameGraph) -> ValidationReport:
    """The report of the structural checks and Assumption 1 (a), (b), (c),
    made once by the graph's constructor."""
    return g.validation


def require_valid(g: GameGraph) -> None:
    if not g.validation.ok:
        raise ValidationFailed(g.validation)


def is_compliant(g: GameGraph) -> bool:
    """Every Random vertex flips a fair coin between two Max vertices."""
    return g.compliant


def require_compliant(g: GameGraph) -> None:
    if not g.compliant:
        raise NotCompliant("graph is not in Min-Random-Max coin-flip form")


class _Builder:
    """Mutable scratch copy of a graph with deterministic id allocation:
    fresh vertex and edge ids count up from the largest ids of the copy."""

    def __init__(self, g: GameGraph):
        self.min_vertices = list(g.min_vertices)
        self.max_vertices = list(g.max_vertices)
        self.random_vertices = list(g.random_vertices)
        self.edges = list(g.edges)
        self._next_vertex = max(g.kind, default=0) + 1
        self._next_edge = max((e.id for e in g.edges), default=0) + 1

    def fresh_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        return v

    def add_edge(self, tail, head, payoff=None, prob=None) -> Edge:
        e = Edge(self._next_edge, tail, head, payoff, prob)
        self._next_edge += 1
        self.edges.append(e)
        return e

    def out_edges(self) -> dict:
        """{tail: [its out-edges, in edge order]} over the edges as they are now."""
        out = defaultdict(list)
        for e in self.edges:
            out[e.tail].append(e)
        return out

    def freeze(self) -> GameGraph:
        """The built graph, checked: ValidationFailed if it is not valid."""
        g = GameGraph(
            tuple(self.min_vertices),
            tuple(self.max_vertices),
            tuple(self.random_vertices),
            tuple(self.edges),
        )
        require_valid(g)
        return g


def _random_components(g: GameGraph) -> list:
    """Strongly connected components of the Random-to-Random edges, each
    listed after every component it has an edge into: Tarjan (1972) with an
    explicit stack, so no recursion depth grows with the graph."""
    kind, out = g.kind, g.out_edges
    heads = {v: iter([e.head for e in out[v] if kind.get(e.head) == "random"]) for v in g.random_vertices}
    index, low, stack, on_stack, comps = {}, {}, [], set(), []
    for root in g.random_vertices:
        if root in index:
            continue
        work = [root]
        while work:
            v = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            for w in heads[v]:
                if w not in index:
                    work.append(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    comps.append([])
                    while v in on_stack:
                        comps[-1].append(stack.pop())
                        on_stack.discard(comps[-1][-1])
    return comps


def _exit_rows(g: GameGraph) -> dict:
    """Per Random vertex, (d, {vertex: N}): the chain leaves the Random
    block into Min/Max vertex u with probability N / d. One Gauss-Jordan
    solve of (I - Q_C) H_C = R_C per strongly connected component C, lower
    ones first, on integer rows pivoted by `scalars.pivot`. C's vertices
    are the last columns, in reverse pivot order: pivot k is on column c,
    the last not yet retired, after row k is cut to c + 1 entries; `pivot`'s
    zip cuts each row it rebuilds, and no retired column is read again. d
    and N are a row's base, its diagonal, and its exit entries over their
    gcd. Validation's `random-reach` check gives C an exit, so I - Q_C is a
    nonsingular M-matrix and no pivot is 0."""
    hit = {}
    for comp in _random_components(g):
        inside = set(comp)
        # Columns: the Min/Max vertices C's edges out of C reach, directly
        # or through a solved component, then C's vertices.
        out = [e for v in comp for e in g.out_edges[v] if e.head not in inside]
        leave = {e.id: hit.get(e.head) or (1, {e.head: 1}) for e in out}
        col = {}
        for _, xs in leave.values():
            for c in xs:
                col.setdefault(c, len(col))
        cols = list(col)
        for v in reversed(comp):
            col[v] = len(col)
        a = []
        for v in comp:
            # An edge inside C is -1 at its head, over 1.
            terms, scale = [], 1
            for e in g.out_edges[v]:
                den, xs = leave.get(e.id) or (1, {e.head: -1})
                p = e.prob
                m = p.denominator * den
                if scale % m:
                    scale = lcm(scale, m)
                terms.append((p, den, xs))
            row = [0] * len(col)
            row[col[v]] = scale
            for p, den, xs in terms:
                q = times(p, scale // den)
                for c, x in xs.items():
                    row[col[c]] += q * x
            a.append(row)
        base, prev, exits = [1] * len(comp), 1, len(cols)
        for k, c in enumerate(range(len(col) - 1, exits - 1, -1)):
            del a[k][c + 1:]
            prev = pivot(a, base, k, c, prev)
        for v, b, row in zip(comp, base, a):
            row = row[:exits]
            d = gcd(b, *row)
            hit[v] = (b // d, {c: x // d for c, x in zip(cols, row)})
    return hit


def absorption(g: GameGraph) -> dict:
    """`GameGraph.absorption_table` of a valid graph, computed once per graph."""
    return g.absorption_table


def _edge_terms(g: GameGraph, tails, pay: int, prob: int, index: dict) -> tuple:
    """Per tail, one (payoff * pay, ((N * (prob / d), index[u]), ...)) per
    out-edge, over the absorption row (d, {u: N}) of the edge's head."""

    def edge(e):
        d, xs = g.absorption_row(e.head)
        return times(e.payoff, pay), tuple((x * (prob // d), index[u]) for u, x in xs.items())

    return tuple(tuple(map(edge, g.out_edges[v])) for v in tails)


def _operator_plan(g: GameGraph) -> tuple:
    scale = lcm(*(e.payoff.denominator for e in g.edges if e.payoff is not None))
    p1, p2 = (
        lcm(*(g.absorption_row(e.head)[0] for v in tails for e in g.out_edges[v]))
        for tails in (g.max_vertices, g.min_vertices)
    )
    widx = {w: i for i, w in enumerate(g.max_vertices)}
    max_terms = _edge_terms(g, g.max_vertices, scale * p1, p1, g.min_index)
    min_terms = _edge_terms(g, g.min_vertices, scale * p1 * p2, p2, widx)
    return scale, p1, p2, max_terms, min_terms


def _top(terms, y: list, r: int) -> Optional[int]:
    """max over (k, c) in terms of c * r + y[k], None for -inf; membership and the lift call it."""
    best = None
    for k, c in terms:
        v = y[k]
        if v is not None:
            v += c * r
            if best is None or v > best:
                best = v
    return best


def _max_value(edges: tuple, y: list, r: int) -> Optional[int]:
    """A Max vertex's value over D * P1: the largest of its out-edges that
    have no -inf term, None when none has."""
    best = None
    for a, terms in edges:
        v = a * r
        for q, i in terms:
            u = y[i]
            if u is None:
                break
            v += q * u
        else:
            if best is None or v > best:
                best = v
    return best


_UNSET = object()  # a Max value not computed yet in this query


def _min_value(edges: tuple, mx: list, max_terms: tuple, r: int, y: list) -> Optional[int]:
    """A Min vertex's value over D * P1 * P2: the smallest of its out-edges,
    None (-inf) as soon as one reads a -inf Max value. Max value i is
    computed by `_max_value` when an edge first reads it and kept in mx,
    which starts as `_UNSET`s, for every Min vertex of the query."""
    best = None
    for b, terms in edges:
        v = b * r
        for q, i in terms:
            u = mx[i]
            if u is _UNSET:
                u = mx[i] = _max_value(max_terms[i], y, r)
            if u is None:
                return None
            v += q * u
        if best is None or v < best:
            best = v
    return best


def eval_operator(g: GameGraph, x) -> tuple:
    """The encoded operator F at a point x of T^n, computed as integers over
    D * P1 * P2 (see `GameGraph.operator_plan`), extended by continuity:
    max, min and sums with positive weights, so -inf is absorbing. A
    coordinate is None (-inf) when one of its out-edges is."""
    d, y = integers_over(sized(x, g.n), g.operator_plan[0])
    c, p1, p2, max_terms, min_terms = g.operator_plan
    r = d // c
    mx, den = [_UNSET] * len(max_terms), d * p1 * p2
    values = [_min_value(edges, mx, max_terms, r, y) for edges in min_terms]
    return tuple(None if v is None else Fraction(v, den) for v in values)


def subfixed(g: GameGraph, x) -> bool:
    """Does x <= F(x) hold coordinatewise on T^n? A -inf coordinate always
    does."""
    return subfixed_integers(g, *integers_over(sized(x, g.n), g.operator_plan[0]))


def subfixed_integers(g: GameGraph, d: int, y: list) -> bool:
    """`subfixed` at the point y / d, given as `integers_over(x, C)` gives
    it: n integers y (None for -inf) over a d that C divides. Each finite
    y_k * P1 * P2 is compared with the value of Min vertex k, stopping at
    the first coordinate that is -inf or smaller."""
    c, p1, p2, max_terms, min_terms = g.operator_plan
    r = d // c
    mx = [_UNSET] * len(max_terms)
    for yk, edges in zip(y, min_terms):
        if yk is not None:
            v = _min_value(edges, mx, max_terms, r, y)
            if v is None or yk * p1 * p2 > v:
                return False
    return True


@dataclass(frozen=True, eq=False)
class MinMaxOperator:
    """The stochastic min-max form F_k(x) = min_i max_{s in S_ki} (A^(s)_k x + b^(s)_k).

    `matrices[s]` is row-stochastic, `offsets[s]` its payoff vector, and
    `subsets[k][i]` the (0-based) matrix indices S_ki.
    """

    n: int
    matrices: tuple[tuple[Vector, ...], ...]
    offsets: tuple[Vector, ...]
    subsets: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if int_from_json(self.n) < 1:
            raise ValueError(f"a min-max operator needs arity at least 1, not {self.n}")
        sized(self.offsets, len(self.matrices))
        for mat, b in zip(self.matrices, self.offsets):
            for row in sized(mat, self.n):
                sized(row, self.n)
            sized(b, self.n)
        # Entries are held as Fractions; a float or a bool raises ValueError.
        object.__setattr__(self, "matrices", tuple(
            tuple(tuple(map(rational, row)) for row in mat) for mat in self.matrices
        ))
        object.__setattr__(self, "offsets", tuple(tuple(map(rational, b)) for b in self.offsets))
        for s in (s for per_k in sized(self.subsets, self.n) for s_ki in per_k for s in s_ki):
            if not 0 <= int_from_json(s) < len(self.matrices):
                raise ValueError(f"subset index {s} is not in 0..{len(self.matrices) - 1}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrices": [
                [[rational_to_str(v) for v in row] for row in mat] for mat in self.matrices
            ],
            "offsets": [[rational_to_str(v) for v in b] for b in self.offsets],
            "subsets": [[list(s) for s in per_k] for per_k in self.subsets],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MinMaxOperator":
        return cls(
            n=obj["n"],
            matrices=tuple(
                tuple(tuple(rational_from_str(v) for v in row) for row in mat)
                for mat in obj["matrices"]
            ),
            offsets=tuple(tuple(rational_from_str(v) for v in b) for b in obj["offsets"]),
            subsets=tuple(tuple(map(tuple, per_k)) for per_k in obj["subsets"]),
        )


def check_stochastic(op: MinMaxOperator) -> ValidationReport:
    """Check that each matrix is stochastic and each min-term list and subset nonempty."""
    failures = []
    for s, mat in enumerate(op.matrices):
        for k, row in enumerate(mat):
            if any(v < 0 for v in row):
                failures.append(("negative-entry", f"matrix {s} row {k} has a negative entry"))
            if not sums_to_one(row):
                total = rational_text(sum(row, Fraction(0)))
                failures.append(("row-sum", f"matrix {s} row {k} sums to {total}"))
    for k, per_k in enumerate(op.subsets):
        if not per_k:
            failures.append(("min-terms", f"coordinate {k} has no min-term"))
        for i, s_ki in enumerate(per_k):
            if not s_ki:
                failures.append(("empty-subset", f"subset S[{k}][{i}] is empty"))
    return ValidationReport(tuple(failures))


def minmax_eval(op: MinMaxOperator, x: Sequence[Fraction]) -> Vector:
    """Direct exact evaluation of the min-max form."""
    x = tuple(map(exact, sized(x, op.n)))
    return tuple(
        min(
            max(sum((a * v for a, v in zip(op.matrices[s][k], x)), op.offsets[s][k]) for s in s_ki)
            for s_ki in op.subsets[k]
        )
        for k in range(op.n)
    )


def graph_from_minmax(op: MinMaxOperator) -> GameGraph:
    """Build a game graph encoding the min-max operator.

    Min vertices are the n coordinates; one Max vertex per (k, i) min-term;
    one Random vertex per (k, i, s) matrix choice, with an edge of
    probability A^(s)_{kl} to Min vertex l for every positive entry.
    """
    report = check_stochastic(op)
    if not report.ok:
        raise NonStochastic(str(report))

    # Min vertex k + 1 is coordinate k; fresh ids count up from n + 1.
    b = _Builder(GameGraph(tuple(range(1, op.n + 1)), (), (), ()))
    for k in range(op.n):
        for s_ki in op.subsets[k]:
            max_id = b.fresh_vertex()
            b.max_vertices.append(max_id)
            b.add_edge(k + 1, max_id, payoff=Fraction(0))
            for s in s_ki:
                rand_id = b.fresh_vertex()
                b.random_vertices.append(rand_id)
                b.add_edge(max_id, rand_id, payoff=op.offsets[s][k])
                for l, p in enumerate(op.matrices[s][k]):
                    if p > 0:
                        b.add_edge(rand_id, l + 1, prob=p)
    return b.freeze()
