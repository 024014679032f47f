"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths under test: the
max-plus sum and product of boxed `Trop`s (`tadd`, `tmul`); cone and hull
membership by residuation (`cone_member`, `hull_member`: the point is
rebuilt from its boxed residuation weights, `residual_coefficient`, and
compared, where a projected pencil decides membership of its integer
lift, so the two share no code), themselves checked against hull
membership by brute-force subset search; linear programming by exhaustive vertex
enumeration over exact square solves; the shared fraction-free pivot by
the dense step that puts every row over one denominator; the one-pass
edge split of `pipeline` by splitting one edge at a time; absorption
probabilities by one dense solve over every Random vertex; pencil
membership, witness lifts (on T^n too) and their affine-envelope points,
and the encoded operator, on finite points and on T^n, by boxed `Trop` and
`Fraction` arithmetic in place of the integer plans; the path checks of
graph validation by one walk per vertex; the whole of graph
validation by plain loops, with the probability sums checked in the
`integers_over` form; and compliance by plain loops over that report.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from perfbench.instances import LADDER_N2, LADDER_N3, QUERY_N3
from tropcone.graph import (
    Edge,
    GameGraph,
    MinMaxOperator,
    graph_from_minmax,
    is_compliant,
    require_valid,
)
from tropcone.pencil import TropPointSet, eval_compliant_operator
from tropcone.scalars import NEG_INF, Trop, integers_over, sized
from tropcone.transforms import WitnessMap, first_transformation, second_transformation, zwick_paterson

# The seed-0 graphs of every benchmark rung, at the indices the workloads
# draw them at (`perfbench.instances.graph_instance(0, shape, index)`).
BENCHMARK_RUNGS = [(LADDER_N2, range(2)), (LADDER_N3, range(6))] + [
    (shape, (j, j + 3)) for j, shape in enumerate(QUERY_N3)
]


class SingularMatrix(Exception):
    """`solve_rational` found no pivot: the matrix is singular."""


def solve_rational(matrix, rhs_columns):
    """Solve M X = B exactly by `Fraction` Gaussian elimination with pivot
    search.

    `matrix` is a list of rows of Fractions (square), `rhs_columns` a list of
    rows (same height as `matrix`, any width). Returns the solution as a list
    of rows. Raises SingularMatrix if M is singular.
    """
    n = len(matrix)
    width = len(rhs_columns[0]) if n else 0
    a = [list(row) + list(b) for row, b in zip(matrix, rhs_columns)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        # Zero entries are skipped: v * inv and v - f * 0 would give v back.
        a[col] = [v * inv if v else v for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w if w else v for v, w in zip(a[r], a[col])]
    return [row[n : n + width] for row in a]


def dense_pivot(tableau: list, r: int, c: int, d: int) -> int:
    """The dense fraction-free pivot that `scalars.pivot` replaced, as a
    reference: every row over one denominator d, the previous pivot. Row r
    is negated if its entry in column c is negative; every other row
    becomes (p * row - f * row r) / d, also a row with f = 0, which this
    only scales by p / d. Returns the new denominator p."""
    row = tableau[r]
    p = row[c]
    if p < 0:
        row = tableau[r] = [-a for a in row]
        p = -p
    for i, line in enumerate(tableau):
        if i != r:
            f = line[c]
            tableau[i] = [(a * p - f * b) // d for a, b in zip(line, row)]
    return p


def small_rational(rng: random.Random, box: int = 6, denom: int = 12) -> Fraction:
    q = rng.randint(1, denom)
    return Fraction(rng.randint(-box * q, box * q), q)


def stochastic_row(rng: random.Random, n: int, denom: int = 12):
    """A random nonnegative rational row summing to one, denominator <= denom."""
    d = rng.randint(1, denom)
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts + [d]:
        parts.append(Fraction(c - prev, d))
        prev = c
    rng.shuffle(parts)
    return tuple(parts)


def random_minmax(rng: random.Random, n: int | None = None, denom: int = 12) -> MinMaxOperator:
    """A random stochastic min-max form of arity `n` (2 or 3 when None) with
    row denominators <= `denom`."""
    if n is None:
        n = rng.randint(2, 3)
    p = 2
    matrices = tuple(
        tuple(stochastic_row(rng, n, denom) for _ in range(n)) for _ in range(p)
    )
    offsets = tuple(tuple(small_rational(rng) for _ in range(n)) for _ in range(p))
    subsets = []
    for _ in range(n):
        choice = rng.choice([((0,),), ((1,),), ((0, 1),), ((0,), (1,))])
        subsets.append(choice)
    return MinMaxOperator(n=n, matrices=matrices, offsets=offsets, subsets=tuple(subsets))


def denominator_five_graph():
    """Three coordinates, stochastic rows over 5; 39 Random-to-Random edges
    after the first transformation."""
    F = Fraction
    a1 = ((F(1, 5), F(2, 5), F(2, 5)), (F(3, 5), F(0), F(2, 5)), (F(1, 5), F(1, 5), F(3, 5)))
    a2 = ((F(4, 5), F(1, 5), F(0)), (F(2, 5), F(2, 5), F(1, 5)), (F(0), F(3, 5), F(2, 5)))
    return graph_from_minmax(
        MinMaxOperator(
            n=3,
            matrices=(a1, a2),
            offsets=((F(1), F(-1, 2), F(0)), (F(3, 4), F(2), F(-1))),
            subsets=(((0, 1),), ((0,),), ((1,),)),
        )
    )


def biased_graph(q) -> GameGraph:
    """One Random vertex with distribution (q, 1 - q) over two Max heads."""
    return GameGraph(
        (1,), (2, 4), (3,),
        (
            Edge(1, 1, 3, payoff=Fraction(0)),
            Edge(2, 3, 2, prob=q),
            Edge(3, 3, 4, prob=1 - q),
            Edge(4, 2, 1, payoff=Fraction(1)),
            Edge(5, 4, 1, payoff=Fraction(0)),
        ),
    )


def dense_component_graph(rng: random.Random, size: int) -> GameGraph:
    """A valid graph whose Random vertices form one dense strongly
    connected component of `size` >= 10. Each has edges to 8 or more
    others, always including its successor on a cycle through all of them,
    and one exit to one of the two Min vertices, with positive weights up
    to 9 over their sum. Both Min vertices lead to the one Max vertex,
    which leads into the component."""
    mins, randoms = (1, 2), tuple(range(10, 10 + size))
    edges = [
        Edge(1, 1, 3, payoff=small_rational(rng)),
        Edge(2, 2, 3, payoff=small_rational(rng)),
        Edge(3, 3, randoms[0], payoff=small_rational(rng)),
    ]
    for i, v in enumerate(randoms):
        successor = randoms[(i + 1) % size]
        heads = rng.sample([u for u in randoms if u not in (v, successor)], rng.randint(7, size - 2))
        heads += [successor, rng.choice(mins)]
        weights = [rng.randint(1, 9) for _ in heads]
        for head, w in zip(heads, weights):
            edges.append(Edge(len(edges) + 1, v, head, prob=Fraction(w, sum(weights))))
    g = GameGraph(mins, (3,), randoms, tuple(edges))
    require_valid(g)
    return g


def random_valid_graph(rng: random.Random) -> GameGraph:
    """A valid game graph (<= 3 Min, <= 6 Max, <= 6 Random vertices) with
    edge denominators <= 12, built from a random stochastic min-max form."""
    g = graph_from_minmax(random_minmax(rng))
    require_valid(g)
    return g


def random_compliant_graph(rng: random.Random) -> GameGraph:
    """A graph in which every Random vertex flips a fair coin between two
    Max vertices, built directly."""
    n = rng.randint(2, 4)
    m = rng.randint(2, 4)
    mins = tuple(range(1, n + 1))
    maxs = tuple(range(101, 101 + m))
    randoms = []
    edges = []
    next_edge = 1
    next_random = 201

    for w in maxs:
        for _ in range(rng.randint(1, 3)):
            edges.append(Edge(next_edge, w, rng.choice(mins), payoff=small_rational(rng)))
            next_edge += 1
    for v in mins:
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                head = rng.choice(maxs)
            else:
                head = next_random
                next_random += 1
                randoms.append(head)
                w1, w2 = rng.sample(maxs, 2) if m >= 2 else (maxs[0], maxs[0])
                half = Fraction(1, 2)
                edges.append(Edge(next_edge, head, w1, prob=half))
                edges.append(Edge(next_edge + 1, head, w2, prob=half))
                next_edge += 2
            edges.append(Edge(next_edge, v, head, payoff=small_rational(rng)))
            next_edge += 1

    g = GameGraph(mins, maxs, tuple(randoms), tuple(edges))
    require_valid(g)
    return g


def dense_absorption_rows(g: GameGraph) -> dict:
    """Absorption rows {edge id: {vertex: p}} by one dense exact solve of
    (I - Q) H = R over the whole Random block, keys in Min-then-Max order."""
    absorbing = list(g.min_vertices) + list(g.max_vertices)
    randoms = list(g.random_vertices)
    r_index = {v: i for i, v in enumerate(randoms)}
    a_index = {v: i for i, v in enumerate(absorbing)}
    hit = {}
    if randoms:
        k = len(randoms)
        matrix = [[Fraction(0)] * k for _ in range(k)]
        rhs = [[Fraction(0)] * len(absorbing) for _ in range(k)]
        for v in randoms:
            i = r_index[v]
            matrix[i][i] += 1
            for e in g.out_edges[v]:
                if e.head in r_index:
                    matrix[i][r_index[e.head]] -= e.prob
                else:
                    rhs[i][a_index[e.head]] += e.prob
        sol = solve_rational(matrix, rhs)
        for v in randoms:
            hit[v] = {w: sol[r_index[v]][j] for j, w in enumerate(absorbing) if sol[r_index[v]][j] != 0}
    return {
        e.id: dict(hit[e.head]) if e.head in r_index else {e.head: Fraction(1)}
        for e in g.edges
    }


def fraction_absorption_rows(g: GameGraph) -> dict:
    """The absorption table as one `Fraction` row per edge, {edge id: {u:
    p}} as `dense_absorption_rows` gives it: the integer row (d, {u: N}) of
    the edge's head as {u: N / d}, {head: 1} for a Min or Max head."""
    rows = {}
    for e in g.edges:
        d, xs = g.absorption_row(e.head)
        rows[e.id] = {u: Fraction(x, d) for u, x in xs.items()}
    return rows


def witness_from_rows(source_dim: int, rows, kind: str = "test") -> WitnessMap:
    """A witness map with no parts whose `rows` are the given rows
    (d, ((N, terms), ...)), seeded where the map caches them, so a lift
    reads them as it reads rows solved off a graph."""
    witness = WitnessMap(kind, source_dim)
    witness.__dict__["rows"] = tuple(rows)
    return witness


def fraction_witness_rows(witness) -> tuple:
    """A witness map's rows (d, ((N, terms), ...)) as ((N / d, terms), ...)."""
    return tuple(tuple((Fraction(x, d), terms) for x, terms in row) for d, row in witness.rows)


def max_vertex_value(g: GameGraph, rows: dict, w: int, x) -> Fraction:
    """max over Out(w) of (payoff + expected Min coordinate)."""
    idx = g.min_index
    best = None
    for e in g.out_edges[w]:
        val = e.payoff
        for u, p in rows[e.id].items():
            val += p * x[idx[u]]
        if best is None or val > best:
            best = val
    return best


def fraction_eval_operator(g: GameGraph, x) -> tuple:
    """The encoded operator at a finite point in `Fraction` arithmetic: each
    Min vertex's minimum over its out-edges of payoff plus the expected Max
    value, read off the absorption rows."""
    x = tuple(Fraction(v) for v in x)
    assert len(x) == g.n
    rows = fraction_absorption_rows(g)
    max_vals = {w: max_vertex_value(g, rows, w, x) for w in g.max_vertices}
    result = []
    for v in g.min_vertices:
        best = None
        for e in g.out_edges[v]:
            val = e.payoff
            for w, p in rows[e.id].items():
                val += p * max_vals[w]
            if best is None or val < best:
                best = val
        result.append(best)
    return tuple(result)


def trop_eval_operator(g: GameGraph, rows: dict, x) -> tuple:
    """The encoded operator of a valid graph at a point of T^n in boxed
    `Trop` values, from its absorption rows `rows` (`dense_absorption_rows`):
    per Max vertex the largest over its out-edges of payoff plus the
    p-weighted Min coordinates, per Min vertex the smallest over its
    out-edges of payoff plus the p-weighted Max values. Every p is positive,
    so a weighted sum with a -inf term is -inf."""
    x = tuple(v if isinstance(v, Trop) else Trop(v) for v in x)
    assert len(x) == g.n

    def edge_value(e, value):
        acc = e.payoff
        for u, p in rows[e.id].items():
            if value[u].is_neg_inf:
                return NEG_INF
            acc += p * value[u].finite
        return Trop(acc)

    at_min = dict(zip(g.min_vertices, x))
    at_max = {w: max(edge_value(e, at_min) for e in g.out_edges[w]) for w in g.max_vertices}
    return tuple(min(edge_value(e, at_max) for e in g.out_edges[v]) for v in g.min_vertices)


def trop_eval_compliant_operator(g: GameGraph, x) -> tuple:
    """The operator of a compliant graph extended to T^n in boxed `Trop`
    values: per Min out-edge e, payoff plus the half-sum of the two Max
    values absorbing its head (-inf if either is), minimized per Min
    vertex. The Max pair of a Random head is its two out-edges' heads."""
    x = tuple(v if isinstance(v, Trop) else Trop(v) for v in x)
    assert len(x) == g.n
    idx = g.min_index
    max_val = {}
    for w in g.max_vertices:
        acc = NEG_INF
        for f in g.out_edges[w]:
            acc = tadd(acc, tmul(Trop(f.payoff), x[idx[f.head]]))
        max_val[w] = acc
    result = []
    for v in g.min_vertices:
        best = None
        for e in g.out_edges[v]:
            if g.kind[e.head] == "max":
                a = b = max_val[e.head]
            else:
                a, b = (max_val[f.head] for f in g.out_edges[e.head])
            if a.is_neg_inf or b.is_neg_inf:
                val = NEG_INF
            else:
                val = Trop(e.payoff + (a.finite + b.finite) / 2)
            best = val if best is None else (val if val < best else best)
        result.append(best)
    return tuple(result)


def tadd(a: Trop, b: Trop) -> Trop:
    """Tropical addition: max(a, b). Minus infinity is neutral."""
    return a if b <= a else b


def tmul(a: Trop, b: Trop) -> Trop:
    """Tropical multiplication: a + b. Minus infinity is absorbing."""
    if a.is_neg_inf or b.is_neg_inf:
        return NEG_INF
    return Trop(a.finite + b.finite)


def residual_coefficient(y, g) -> Trop:
    """Largest lam with lam + g <= y coordinatewise, for points of `Trop`s;
    -inf-only generators are inert and get coefficient -inf."""
    lam = None
    for yi, gi in zip(y, g):
        if gi.is_neg_inf:
            continue
        if yi.is_neg_inf:
            return NEG_INF
        cand = Trop(yi.finite - gi.finite)
        if lam is None or cand < lam:
            lam = cand
    return NEG_INF if lam is None else lam


def residual_combination(y, gens) -> tuple:
    """max_k(lam_k + g_k) over the residuation coefficients lam_k of y."""
    combo = tuple(NEG_INF for _ in y)
    for g in gens:
        lam = residual_coefficient(y, g)
        combo = tuple(tadd(c, tmul(lam, gi)) for c, gi in zip(combo, g))
    return combo


def cone_member(y, generators: TropPointSet) -> bool:
    """Is y a tropical combination of the generators?"""
    y = sized(tuple(map(Trop, y)), generators.dimension)
    return residual_combination(y, generators.points) == y


def hull_member(y, generators: TropPointSet) -> bool:
    """Is y in the tropical convex hull of the generators?

    Reduces to cone membership of (0, y) over the homogenized generators.
    """
    y = sized(tuple(map(Trop, y)), generators.dimension)
    zero = Trop(0)
    homogenized = tuple((zero,) + tuple(p) for p in generators.points)
    cone = TropPointSet(generators.dimension + 1, homogenized)
    return cone_member((zero,) + y, cone)


def hull_member_bruteforce(y, gens: TropPointSet) -> bool:
    """Hull membership via the Caratheodory bound: search over generator
    subsets of size at most n+1, deciding each by cone residuation on the
    homogenized subset."""
    n = gens.dimension
    zero = Trop(0)
    target = (zero,) + tuple(y)
    pts = gens.points
    for size in range(1, min(len(pts), n + 1) + 1):
        for subset in combinations(pts, size):
            cone = TropPointSet(n + 1, tuple((zero,) + tuple(g) for g in subset))
            if cone_member(target, cone):
                return True
    return False


def placed(n, pieces, bottom=False) -> tuple:
    """The generators of a stratum over T^n: each piece (K, points) puts its
    points on the strictly increasing coordinates K with -inf elsewhere,
    followed by the all -inf point when `bottom` is set."""
    out = []
    for support, points in pieces:
        for g in points:
            at = dict(zip(support, g))
            out.append(tuple(at.get(k, NEG_INF) for k in range(n)))
    if bottom:
        out.append((NEG_INF,) * n)
    return tuple(out)


def gadget_exit_probability(g, rec):
    """Probability that the chain started at a coin-flip gadget's entry
    leaves toward head_a, by an exact solve over the gadget's own vertices.

    Valid because every edge out of the gadget's vertices stays inside the
    gadget or exits to one of the two recorded heads."""
    states = [rec.entry, *rec.new_vertices]
    index = {s: i for i, s in enumerate(states)}
    k = len(states)
    mat = [[Fraction(0)] * k for _ in range(k)]
    rhs = [[Fraction(0)] for _ in range(k)]
    for s in states:
        i = index[s]
        mat[i][i] += 1
        for e in g.out_edges[s]:
            if e.head in index:
                mat[i][index[e.head]] -= e.prob
            elif e.head == rec.head_a:
                rhs[i][0] += e.prob
    sol = solve_rational(mat, rhs)
    return sol[index[rec.entry]][0]


def lp_max_oracle(a, b, x, k):
    """max{y_k : Ay <= b, y <= x} by enumerating basic points: the feasible
    region contains no line, so the optimum (if feasible) is at a vertex."""
    n = len(x)
    rows = [(tuple(row), bi) for row, bi in zip(a, b)]
    for i in range(n):
        unit = tuple(Fraction(int(j == i)) for j in range(n))
        rows.append((unit, Fraction(x[i])))
    best = None
    for subset in combinations(range(len(rows)), n):
        mat = [list(rows[i][0]) for i in subset]
        rhs = [[rows[i][1]] for i in subset]
        try:
            sol = solve_rational(mat, rhs)
        except SingularMatrix:
            continue
        y = tuple(sol[i][0] for i in range(n))
        if all(
            sum(av * yv for av, yv in zip(row, y)) <= bi for row, bi in rows
        ):
            if best is None or y[k] > best:
                best = y[k]
    return best


def sequential_pipeline(g):
    """The pipeline split by split: Zwick-Paterson, the first
    transformation, then `second_transformation` on the smallest
    Random-to-Random edge id until none is left, each split reading a fresh
    absorption table. Returns the target graph and the composed lift as a
    plain function."""
    if is_compliant(g):
        return g, lambda x: tuple(Fraction(v) for v in x)
    current, witness = first_transformation(zwick_paterson(g))
    lifts = [witness.lift]
    while True:
        rr = [
            e.id for e in current.edges
            if current.kind[e.tail] == "random" and current.kind[e.head] == "random"
        ]
        if not rr:
            break
        current, witness = second_transformation(current, min(rr))
        lifts.append(witness.lift)

    def lift(x):
        for step in lifts:
            x = step(x)
        return x

    return current, lift


def trop_pencil_member(pencil, x) -> bool:
    """Pencil membership evaluated in boxed `Trop` values: each diagonal
    row's plus and minus parts, then each off-diagonal square against the
    product of its two plus parts."""
    x = tuple(v if isinstance(v, Trop) else Trop(v) for v in x)
    assert len(x) == pencil.n

    def value(k):
        return Trop(0) if k == 0 else x[k - 1]

    plus = []
    for i in range(pencil.m):
        p, m = NEG_INF, NEG_INF
        for k, c in pencil.entries.get((i, i), {}).items():
            term = tmul(c.modulus, value(k))
            if c.sign > 0:
                p = tadd(p, term)
            else:
                m = tadd(m, term)
        if not p >= m:
            return False
        plus.append(p)
    for (i, j), entry in pencil.entries.items():
        if i == j:
            continue
        v = NEG_INF
        for k, c in entry.items():
            v = tadd(v, tmul(c.modulus, value(k)))
        if not v.is_neg_inf and not tmul(plus[i], plus[j]) >= tmul(v, v):
            return False
    return True


def fraction_lift(witness, x) -> tuple:
    """A witness lift row by row in `Fraction` arithmetic."""
    y = [Fraction(v) for v in x]
    assert len(y) == witness.source_dim
    for row in fraction_witness_rows(witness):
        y.append(sum((p * max(c + y[i] for c, i in terms) for p, terms in row), Fraction(0)))
    return tuple(y)


def trop_lift(witness, x) -> tuple:
    """A witness lift on T^n in boxed `Trop` values, row by row: each
    pair's max of c + y[i] by `tadd` and `tmul`, then the N / d-weighted sum
    of the maxima, -inf when one of them is, since every N is positive."""
    y = [v if isinstance(v, Trop) else Trop(v) for v in x]
    assert len(y) == witness.source_dim
    for row in fraction_witness_rows(witness):
        tops = []
        for p, terms in row:
            top = NEG_INF
            for c, i in terms:
                top = tadd(top, tmul(Trop(c), y[i]))
            tops.append((p, top))
        if any(top.is_neg_inf for _, top in tops):
            y.append(NEG_INF)
        else:
            y.append(Trop(sum((p * top.finite for p, top in tops), Fraction(0))))
    return tuple(y)


def row_by_row_lift_integers(witness, x) -> tuple:
    """A witness lift in integers with every row evaluated in order, none
    shared: (D, y), D starting as the lcm of the constants' denominators
    and x's, y[i] None for -inf. A row's total T is the N-weighted sum of
    its pairs' maxima of c * D + y[i] over its finite terms, and a pair
    with none makes the row -inf; when its d does not divide T, D and
    every y so far are multiplied by d / gcd(T, d)."""
    scale = lcm(*(c.denominator for _, row in witness.rows for _, terms in row for c, _ in terms))
    d, y = integers_over(sized(x, witness.source_dim), scale)
    for den, row in witness.rows:
        total = 0
        for q, terms in row:
            tops = [int(c * d) + y[i] for c, i in terms if y[i] is not None]
            if not tops:
                total = None
                break
            total += q * max(tops)
        if total is None:
            y.append(None)
            continue
        f = den // gcd(total, den)
        if f > 1:
            d, y = d * f, [v if v is None else v * f for v in y]
        y.append(total * f // den)
    return d, y


def deep_operator(rng: random.Random, den: int) -> MinMaxOperator:
    """A min-max operator on two coordinates whose matrix rows are all
    over `den`, so each biased probability becomes one deep gadget."""

    def row():
        a = rng.randint(1, den - 1)
        return (Fraction(a, den), Fraction(den - a, den))

    return MinMaxOperator(
        n=2,
        matrices=((row(), row()), (row(), row())),
        offsets=tuple(tuple(Fraction(rng.randint(-6, 6)) for _ in range(2)) for _ in range(2)),
        subsets=(((0, 1),), ((0,), (1,))),
    )


def envelope_lift(witness, x) -> tuple:
    """The affine-envelope point of a source point x in `Fraction`
    arithmetic: its witness lift followed by the coordinatewise negation."""
    lifted = fraction_lift(witness, x)
    return lifted + tuple(-v for v in lifted)


def _random_reachable(g: GameGraph, start: int) -> set:
    """Vertices reachable from `start` along edges with Random tails (the
    out-edges of `start` itself are followed whatever its class)."""
    seen = set()
    stack = [e.head for e in g.out_edges[start]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if g.kind.get(v) == "random":
            stack.extend(e.head for e in g.out_edges[v])
    return seen


def walk_path_failures(g: GameGraph) -> list:
    """The min-min-path, max-max-path and random-reach failures of a
    structurally sound graph, by one reachability walk per vertex."""
    failures = []
    for v in g.min_vertices:
        if any(g.kind[w] == "min" for w in _random_reachable(g, v)):
            failures.append(("min-min-path", f"a Max-free path joins Min vertex {v} to a Min vertex"))
    for v in g.max_vertices:
        if any(g.kind[w] == "max" for w in _random_reachable(g, v)):
            failures.append(("max-max-path", f"a Min-free path joins Max vertex {v} to a Max vertex"))
    for v in g.random_vertices:
        if not any(g.kind[w] in ("min", "max") for w in _random_reachable(g, v)):
            failures.append(("random-reach", f"no Min or Max vertex reachable from Random vertex {v}"))
    return failures


def reference_validation_failures(g: GameGraph) -> list:
    """The `validate_graph` failures of g, in its order, by plain loops: a
    Random vertex's probabilities sum to one when their numerators over L,
    the lcm of their denominators, sum to L (`integers_over`), and the path
    checks are `walk_path_failures`."""
    failures = []
    ids = [*g.min_vertices, *g.max_vertices, *g.random_vertices]
    if len(set(ids)) != len(ids):
        failures.append(("disjoint", "vertex classes are not disjoint"))
    edge_ids = [e.id for e in g.edges]
    if len(set(edge_ids)) != len(edge_ids):
        failures.append(("edge-ids", "edge ids are not unique"))
    if not g.min_vertices or not g.max_vertices:
        failures.append(("nonempty-classes", "Min and Max vertex sets must be nonempty"))
    kind = {}
    for cls, vertices in (("min", g.min_vertices), ("max", g.max_vertices), ("random", g.random_vertices)):
        for v in vertices:
            kind[v] = cls
    for e in g.edges:
        if e.tail not in kind or e.head not in kind:
            failures.append(("edge-endpoints", f"edge {e.id} has an unknown endpoint"))
        elif kind[e.tail] != "random":
            if e.payoff is None or e.prob is not None:
                failures.append(
                    ("edge-labels", f"edge {e.id} out of a {kind[e.tail]} vertex must carry a payoff only")
                )
        elif e.prob is None or e.payoff is not None:
            failures.append(("edge-labels", f"edge {e.id} out of a Random vertex must carry a probability only"))
        elif e.prob <= 0:
            failures.append(("edge-labels", f"edge {e.id} has nonpositive probability"))
    out = {v: [e for e in g.edges if e.tail == v] for v in kind}
    for v, es in out.items():
        if not es:
            failures.append(("out-degree", f"vertex {v} has no outgoing edge"))
    for v in g.random_vertices:
        probs = [e.prob for e in out[v] if e.prob is not None]
        den, nums = integers_over(probs, 1)
        if sum(nums) != den:
            failures.append(("prob-sum", f"probabilities out of {v} sum to {sum(probs, Fraction(0))}"))
    if not failures:
        failures += walk_path_failures(g)
    return failures


def reference_compliant(g: GameGraph) -> bool:
    """Is g compliant, by plain loops: valid by `reference_validation_failures`,
    and every Random vertex has exactly two out-edges, each of probability
    1/2, compared as a `Fraction`, into a Max vertex."""
    if reference_validation_failures(g):
        return False
    for v in g.random_vertices:
        out = [e for e in g.edges if e.tail == v]
        if len(out) != 2 or any(e.prob != Fraction(1, 2) or e.head not in g.max_vertices for e in out):
            return False
    return True


# Mersenne primes of 61 and 89 bits: probabilities over them, and the one
# over their product that completes a distribution, make the running lcm of
# a probability sum grow at each edge.
WIDE_DENOMINATORS = (2**61 - 1, 2**89 - 1)


# Python writes no integer of more than 4300 digits by default
# (`sys.get_int_max_str_digits`, since 3.10.7 and 3.11); the tests of what
# tropcone does past that limit are written for the default.
default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs Python's default limit of 4300 digits on int-to-string conversion",
)


def long_sum_graph() -> GameGraph:
    """An invalid graph whose Random vertex 3 goes to Max 2 with probability
    1/3^6000 and to Min 1 with 1/2^9000: each prints, but their sum, with
    a 9510-bit numerator and an 18510-bit denominator, has more digits than
    Python writes."""
    return GameGraph((1,), (2,), (3,), (
        Edge(1, 1, 3, payoff=Fraction(0)), Edge(2, 2, 1, payoff=Fraction(0)),
        Edge(3, 3, 2, prob=Fraction(1, 3 ** 6000)), Edge(4, 3, 1, prob=Fraction(1, 2 ** 9000)),
    ))


def wide_graph(rng: random.Random) -> GameGraph:
    """A valid graph: Min 1..n -> Max -> Random -> Min, each Random vertex
    with 8 out-edges, seven over the 61- and 89-bit `WIDE_DENOMINATORS` in
    turn and the eighth completing the sum to one."""
    n = rng.randint(1, 3)
    mins = tuple(range(1, n + 1))
    maxs = tuple(range(11, 11 + rng.randint(1, 2)))
    randoms = tuple(range(21, 21 + rng.randint(1, 3)))
    edges = [Edge(i, v, rng.choice(maxs), payoff=small_rational(rng)) for i, v in enumerate(mins, start=1)]
    for w in maxs:
        for r in rng.sample(randoms, rng.randint(1, len(randoms))):
            edges.append(Edge(len(edges) + 1, w, r, payoff=small_rational(rng)))
    for r in randoms:
        probs = [Fraction(rng.randrange(1, d // 16), d) for d in (WIDE_DENOMINATORS * 4)[:7]]
        probs.append(1 - sum(probs))
        for p in probs:
            edges.append(Edge(len(edges) + 1, r, rng.choice(mins), prob=p))
    return GameGraph(mins, maxs, randoms, tuple(edges))


def random_invalid_graph(rng: random.Random) -> GameGraph:
    """`wide_graph` with one to three seeded defects: a zero, negative or
    slightly wrong probability, a payoff on a Random edge, a label missing
    or added on a Min or Max edge, a vertex left with no out-edge, an
    unknown endpoint, a repeated edge or vertex id, a Min-Min or Max-Max
    edge, a Random vertex that reaches only itself, or no Max vertex."""
    g = wide_graph(rng)
    mins, maxs, randoms = list(g.min_vertices), list(g.max_vertices), list(g.random_vertices)
    edges = list(g.edges)
    p, q = WIDE_DENOMINATORS
    fresh, no_max = 100, False
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(len(edges))
        e = edges[j]
        defect = rng.randrange(13)
        if defect < 4 and e.prob is None:
            defect = 4 + defect % 2
        if defect == 0:
            edges[j] = Edge(e.id, e.tail, e.head, prob=Fraction(0))
        elif defect == 1:
            edges[j] = Edge(e.id, e.tail, e.head, prob=-e.prob)
        elif defect == 2:
            edges[j] = Edge(e.id, e.tail, e.head, prob=e.prob + rng.choice((1, -1)) * Fraction(1, p * q))
        elif defect == 3:
            edges[j] = Edge(e.id, e.tail, e.head, payoff=small_rational(rng), prob=e.prob)
        elif defect == 4:
            edges[j] = Edge(e.id, e.tail, e.head, payoff=None if e.prob is None else Fraction(1), prob=None)
        elif defect == 5:
            edges[j] = Edge(e.id, e.tail, e.head, payoff=e.payoff, prob=Fraction(1, 2))
        elif defect == 6:
            tail = e.tail
            edges = [f for f in edges if f.tail != tail]
        elif defect == 7:
            edges[j] = Edge(e.id, e.tail, 999, payoff=e.payoff, prob=e.prob)
        elif defect == 8:
            edges.append(Edge(e.id, e.tail, e.head, payoff=e.payoff, prob=e.prob))
        elif defect == 9:
            edges.append(Edge(fresh, mins[0], rng.choice(mins + maxs[:1]), payoff=Fraction(0)))
            edges.append(Edge(fresh + 1, maxs[-1], rng.choice(maxs), payoff=Fraction(0)))
            fresh += 2
        elif defect == 10:
            randoms.append(fresh)
            edges.append(Edge(fresh + 1, fresh, fresh, prob=Fraction(1, 2)))
            edges.append(Edge(fresh + 2, fresh, fresh, prob=Fraction(1, 2)))
            fresh += 3
        elif defect == 11:
            rng.choice((mins, maxs)).append(randoms[0])
        else:
            no_max = True
    return GameGraph(tuple(mins), () if no_max else tuple(maxs), tuple(randoms), tuple(edges))


def mutated_graph(rng: random.Random, g: GameGraph) -> GameGraph:
    """g with one or two seeded defects on its Random edges and out-edges:
    a payoff added next to the probability, a zero or negative probability,
    a probability lowered or raised so that its vertex sums under or over
    one, an unknown head, or every out-edge of a vertex removed."""
    edges = list(g.edges)
    for _ in range(rng.randint(1, 2)):
        randoms = [j for j, e in enumerate(edges) if e.prob is not None]
        defect = rng.randrange(7)
        if defect == 6 or not randoms:
            tail = rng.choice(sorted(g.kind))
            edges = [e for e in edges if e.tail != tail]
            continue
        j = rng.choice(randoms)
        e = edges[j]
        if defect == 0:
            edges[j] = Edge(e.id, e.tail, e.head, payoff=small_rational(rng), prob=e.prob)
        elif defect == 1:
            edges[j] = Edge(e.id, e.tail, e.head, prob=Fraction(0))
        elif defect == 2:
            edges[j] = Edge(e.id, e.tail, e.head, prob=-e.prob)
        elif defect == 3:
            edges[j] = Edge(e.id, e.tail, e.head, prob=e.prob * Fraction(rng.randint(1, 6), 7))
        elif defect == 4:
            edges[j] = Edge(e.id, e.tail, e.head, prob=e.prob + Fraction(1, rng.randint(2, 97)))
        else:
            edges[j] = Edge(e.id, e.tail, max(g.kind) + 1, prob=e.prob)
    return GameGraph(g.min_vertices, g.max_vertices, g.random_vertices, tuple(edges))


def random_sound_graph(rng: random.Random) -> GameGraph:
    """A graph that passes every structural check of validation (classes,
    labels, out-degrees, probability sums) but whose edges are otherwise
    arbitrary, so any of the path checks may fail."""
    sizes = [rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 5)]
    ids = rng.sample(range(1, 40), sum(sizes))
    mins, maxs = ids[: sizes[0]], ids[sizes[0] : sizes[0] + sizes[1]]
    randoms = ids[sizes[0] + sizes[1] :]
    edges = []
    for v in ids:
        heads = [rng.choice(ids) for _ in range(rng.randint(1, 3))]
        probs = stochastic_row(rng, len(heads), 6)
        if v in randoms and 0 in probs:
            probs = tuple(Fraction(1, len(heads)) for _ in heads)
        for head, p in zip(heads, probs):
            payoff = None if v in randoms else small_rational(rng)
            edges.append(Edge(len(edges) + 1, v, head, payoff=payoff, prob=p if v in randoms else None))
    return GameGraph(tuple(mins), tuple(maxs), tuple(randoms), tuple(edges))


def inside_closure(target: GameGraph, p) -> tuple:
    """Lower to -inf every coordinate above its operator value until none
    is; the result lies in the extended subfixed set of the target."""
    p = [v if isinstance(v, Trop) else Trop(v) for v in p]
    while True:
        fx = eval_compliant_operator(target, p)
        bad = [k for k, (a, b) in enumerate(zip(p, fx)) if not a <= b]
        if not bad:
            return tuple(p)
        for k in bad:
            p[k] = NEG_INF
