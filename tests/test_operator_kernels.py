"""The integer operator kernel against the boxed oracles of support.py:
`eval_operator`/`subfixed` against `fraction_eval_operator` at finite
points and against `trop_eval_operator` at points of T^n, and
`eval_compliant_operator`/`subfixed_extended` against
`trop_eval_compliant_operator`, on source graphs and their pipeline
targets; which Max values the shared Min-value kernel computes; and when
the plan behind them is built."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import tropcone.graph as graph_module
from support import (
    dense_absorption_rows,
    denominator_five_graph,
    fraction_eval_operator,
    inside_closure,
    random_minmax,
    random_valid_graph,
    small_rational,
    stochastic_row,
    trop_eval_compliant_operator,
    trop_eval_operator,
)
from tropcone.errors import DimensionMismatch, NotCompliant
from tropcone.fixtures import example_graph
from tropcone.graph import Edge, GameGraph, MinMaxOperator, eval_operator, graph_from_minmax, subfixed
from tropcone.pencil import (
    MetzlerPencil,
    affine_envelope,
    eval_compliant_operator,
    pencil_member,
    subfixed_extended,
    synthesize_cone,
)
from tropcone.sampling import rng_for
from tropcone.scalars import NEG_INF, Trop
from tropcone.transforms import WitnessMap, pipeline

F = Fraction
DENOMS = (1, 7, 64)


def _points(rng: random.Random, n: int):
    """One point per denominator in DENOMS, coordinates in [-6, 6]; an
    integral coordinate is an `int` half of the time."""
    for den in DENOMS:
        point = []
        for _ in range(n):
            v = F(rng.randint(-6 * den, 6 * den), den)
            point.append(v.numerator if v.denominator == 1 and rng.random() < 0.5 else v)
        yield tuple(point)


def _mixed(rng: random.Random, y):
    """y with a quarter of its coordinates -inf, a quarter boxed in `Trop`,
    and the integral ones among the rest as `int`."""
    out = []
    for v in y:
        u = rng.random()
        if u < 0.25:
            out.append(NEG_INF)
        elif u < 0.5:
            out.append(Trop(v))
        else:
            out.append(v.numerator if v.denominator == 1 else v)
    return tuple(out)


def _check_operator(h, x, seen, kind):
    want = fraction_eval_operator(h, x)
    assert eval_operator(h, x) == want
    inside = all(F(a) <= b for a, b in zip(x, want))
    assert subfixed(h, x) == inside
    seen[kind, inside] += 1


def _check_extended(target, p, seen):
    want = trop_eval_compliant_operator(target, p)
    assert eval_compliant_operator(target, p) == want
    inside = all(Trop(a) <= b for a, b in zip(p, want))
    assert subfixed_extended(target, p) == inside
    seen["extended", inside] += 1


def _check_source_closure(g, rows, p, seen):
    """The kernel on g at a point p of T^n, then again after lowering to
    -inf every coordinate above its operator value, until p is subfixed."""
    while True:
        want = trop_eval_operator(g, rows, p)
        assert tuple(NEG_INF if v is None else Trop(v) for v in eval_operator(g, p)) == want
        inside = all(Trop(a) <= b for a, b in zip(p, want))
        assert subfixed(g, p) == inside
        seen["source -inf", inside] += 1
        if inside:
            return
        p = tuple(NEG_INF if Trop(a) > b else a for a, b in zip(p, want))


def _check_graph(g, rng, seen, extra=()):
    """The kernel at points over DENOMS (and `extra`) on g, at -inf/`Trop`
    mixes of them pulled into the subfixed set, and on its pipeline target
    at their lifts, at -inf/`Trop` mixes of the lifts and at those mixes
    pulled into the extended subfixed set."""
    target, witness = pipeline(g)
    rows = dense_absorption_rows(g)
    for x in (*extra, *_points(rng, g.n)):
        _check_operator(g, x, seen, "source")
        _check_source_closure(g, rows, _mixed(rng, x), seen)
        y = witness.lift(x)
        _check_operator(target, y, seen, "target")
        _check_extended(target, y, seen)
        p = _mixed(rng, y)
        _check_extended(target, p, seen)
        _check_extended(target, inside_closure(target, p), seen)


FIXTURES = {
    "example": (example_graph, ((0, 0, 0), (2, 0, 0), (F(-3), 0, F(0)))),
    "denominator_five": (denominator_five_graph, ()),
    "arity_four_den64_0": (lambda: graph_from_minmax(random_minmax(rng_for(293, 0), n=4, denom=64)), ()),
    "arity_four_den64_1": (lambda: graph_from_minmax(random_minmax(rng_for(293, 1), n=4, denom=64)), ()),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_kernels_match_oracles_on_fixtures(name):
    build, extra = FIXTURES[name]
    seen = Counter()
    _check_graph(build(), random.Random(name), seen, extra)
    kinds = ("source -inf", "extended")
    assert all(seen[kind, answer] for kind in kinds for answer in (True, False)), seen


def test_kernels_match_oracles_on_random_graphs():
    seen = Counter()
    for trial in range(400):
        _check_graph(random_valid_graph(rng_for(307, trial)), rng_for(311, trial), seen)
    kinds = ("source", "source -inf", "target", "extended")
    assert all(seen[kind, answer] for kind in kinds for answer in (True, False)), seen


def test_subfixed_computes_max_values_on_demand(monkeypatch):
    """At a point that fails at the first Min vertex, `subfixed` computes
    only Max values that vertex's out-edges read; its answers match the
    Trop oracle there and at points with -inf coordinates."""
    computed = []
    value = graph_module._max_value
    monkeypatch.setattr(
        graph_module, "_max_value", lambda edges, y, r: computed.append(id(edges)) or value(edges, y, r)
    )
    seen = Counter()
    for trial in range(100):
        g = random_valid_graph(rng_for(317, trial))
        rows = dense_absorption_rows(g)
        rng = rng_for(331, trial)
        for x in _points(rng, g.n):
            for p in (x, _mixed(rng, x)):
                holds = [Trop(a) <= b for a, b in zip(p, trop_eval_operator(g, rows, p))]
                computed.clear()
                assert subfixed(g, p) == all(holds)
                max_terms, min_terms = g.operator_plan[3:]
                if not holds[0]:
                    first = {id(max_terms[i]) for _, terms in min_terms[0] for _, i in terms}
                    assert set(computed) <= first and len(computed) == len(set(computed))
                    seen["first fails", len(computed) < len(max_terms)] += 1
                seen["-inf" if NEG_INF in p else "finite", all(holds)] += 1
    assert all(seen[kind, answer] for kind in ("-inf", "finite") for answer in (True, False)), seen
    assert seen["first fails", True] > 0, seen


def test_eval_operator_computes_only_the_max_values_its_min_edges_read(monkeypatch):
    """Min 1 reads Max 3, then Max 4; Min 2 reads Max 3; Max 5 heads Min 1
    and no edge reaches it. Min 1's first edge reads -inf at (-inf, 0), so
    Max 4 is never computed there, and Max 5 is never computed at all."""
    g = GameGraph(
        (1, 2), (3, 4, 5), (),
        (
            Edge(1, 1, 3, payoff=F(0)),
            Edge(2, 1, 4, payoff=F(1)),
            Edge(3, 2, 3, payoff=F(-1, 2)),
            Edge(4, 3, 1, payoff=F(0)),
            Edge(5, 4, 2, payoff=F(0)),
            Edge(6, 5, 1, payoff=F(2)),
        ),
    )
    computed = []
    value = graph_module._max_value
    monkeypatch.setattr(
        graph_module, "_max_value", lambda edges, y, r: computed.append(id(edges)) or value(edges, y, r)
    )
    ids = [id(edges) for edges in g.operator_plan[3]]
    for x, want, reads in (((NEG_INF, 0), (None, None), ids[:1]), ((0, 0), (F(0), F(-1, 2)), ids[:2])):
        computed.clear()
        assert eval_operator(g, x) == want
        assert computed == reads


def _several_term_operator(rng: random.Random) -> MinMaxOperator:
    """A stochastic min-max form of arity 2 or 3 over three matrices whose
    every coordinate has two or three min-terms."""
    n = rng.randint(2, 3)
    matrices = tuple(tuple(stochastic_row(rng, n) for _ in range(n)) for _ in range(3))
    offsets = tuple(tuple(small_rational(rng) for _ in range(n)) for _ in range(3))
    terms = (((0,), (1,)), ((0, 1), (2,)), ((2,), (0, 1)), ((0,), (1,), (2,)))
    return MinMaxOperator(n, matrices, offsets, tuple(rng.choice(terms) for _ in range(n)))


def _term_values(op: MinMaxOperator, k: int, x) -> list:
    """Per min-term of coordinate k, the largest b^(s)_k + A^(s)_k x over
    its matrices s that meet no -inf x_l at a positive entry; None (-inf)
    when every s does."""
    x = [Trop(v) for v in x]
    values = []
    for s_ki in op.subsets[k]:
        best = None
        for s in s_ki:
            row = op.matrices[s][k]
            if not any(p and x[l].is_neg_inf for l, p in enumerate(row)):
                v = op.offsets[s][k] + sum(p * x[l].finite for l, p in enumerate(row) if p)
                best = v if best is None else max(best, v)
        values.append(best)
    return values


def test_kernels_match_oracle_where_min_vertices_have_several_edges():
    """`eval_operator` and `subfixed` against `trop_eval_operator` on graphs
    whose every Min vertex has two or three out-edges, one per min-term of
    the form: a coordinate is -inf when one edge is, even beside a finite
    edge, and a finite one is the smallest of its edges."""
    seen = Counter()
    for trial in range(150):
        rng = rng_for(337, trial)
        op = _several_term_operator(rng)
        g = graph_from_minmax(op)
        assert all(len(g.out_edges[v]) >= 2 for v in g.min_vertices)
        rows = dense_absorption_rows(g)
        for x in _points(rng, g.n):
            for p in (x, _mixed(rng, x)):
                want = trop_eval_operator(g, rows, p)
                got = eval_operator(g, p)
                assert tuple(NEG_INF if v is None else Trop(v) for v in got) == want
                inside = all(Trop(a) <= b for a, b in zip(p, want))
                assert subfixed(g, p) == inside
                seen["subfixed", inside] += 1
                for k, v in enumerate(got):
                    values = _term_values(op, k, p)
                    if None in values:
                        assert v is None
                        seen["-inf beside finite"] += values.count(None) < len(values)
                    else:
                        assert v == min(values)
                        seen["finite, smallest not first"] += values.index(v) > 0
    kinds = ("-inf beside finite", "finite, smallest not first", ("subfixed", True), ("subfixed", False))
    assert all(seen[kind] for kind in kinds), seen


@pytest.mark.parametrize(
    "call",
    [eval_operator, subfixed, eval_compliant_operator, subfixed_extended, pencil_member, WitnessMap.lift_integers],
)
def test_dimension_checked_before_any_solve(call):
    target, witness = pipeline(example_graph())
    if call is pencil_member:
        subject, n, plans = MetzlerPencil.from_json(synthesize_cone(target).to_json()), target.n, {"_plan"}
    elif call is WitnessMap.lift_integers:
        subject, n, plans = replace(witness), witness.source_dim, {"_plan"}
    else:
        g = example_graph() if call in (eval_operator, subfixed) else target
        subject, n, plans = type(g).from_json(g.to_json()), g.n, {"absorption_table", "operator_plan"}
    with pytest.raises(DimensionMismatch):
        call(subject, (0,) * (n - 1))
    assert not plans & set(vars(subject))


@pytest.mark.parametrize("call", [eval_compliant_operator, subfixed_extended])
def test_compliant_kernels_refuse_a_graph_that_is_not(call):
    # The example has Random vertices with Min heads and biased coins.
    with pytest.raises(NotCompliant):
        call(example_graph(), (0, 0, 0))


def test_plans_are_built_lazily_and_once(monkeypatch):
    # One plan per graph: the compliant entry points on a target share the
    # plan that `subfixed` builds there.
    calls = Counter()
    build = graph_module._operator_plan

    def counted(g):
        calls[id(g)] += 1
        return build(g)

    monkeypatch.setattr(graph_module, "_operator_plan", counted)
    g = example_graph()
    target, _ = pipeline(g)
    affine_envelope(synthesize_cone(target))
    assert not calls
    for x in ((0, 0, 0), (2, 0, 0), (F(1, 7), F(-5, 64), 3)):
        eval_operator(g, x)
        subfixed(g, x)
        subfixed(target, (0,) * target.n)
        subfixed_extended(target, (NEG_INF,) * target.n)
        eval_compliant_operator(target, (1,) * target.n)
    assert calls == {id(g): 1, id(target): 1}
