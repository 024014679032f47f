"""The sampled end-to-end verification harness, and a differential
property test of the whole construction."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import envelope_lift, inside_closure, random_minmax, random_valid_graph
from tropcone import verify as verify_module
from tropcone.errors import DimensionMismatch
from tropcone.fixtures import example_graph
from tropcone.graph import Edge, GameGraph, graph_from_minmax, minmax_eval, subfixed
from tropcone.pencil import (
    MetzlerPencil,
    affine_envelope,
    pencil_member,
    subfixed_extended,
    synthesize_cone,
)
from tropcone.sampling import rng_for, sample_vector
from tropcone.scalars import NEG_INF, SignedTrop, Trop
from tropcone.transforms import WitnessMap, pipeline
from tropcone.verify import verify_graph

F = Fraction


def test_example_graph_verifies():
    report = verify_graph(example_graph(), samples=100, seed=0)
    assert report.ok
    assert report.counterexample is None
    assert report.subfixed_count + report.complement_count == 100
    assert report.subfixed_count > 0
    assert report.complement_count > 0


@pytest.mark.parametrize("name, value", [("samples", -3), ("box", -1), ("denom", 0), ("denom", -4)])
def test_meaningless_arguments_refused(monkeypatch, name, value):
    # Refused before the pipeline runs, with the argument named.
    def no_pipeline(g):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(verify_module, "pipeline", no_pipeline)
    with pytest.raises(ValueError, match=f"{name} >= "):
        verify_graph(example_graph(), **{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("samples", True), ("samples", 20.0), ("box", 2.5), ("denom", False), ("seed", 1.5), ("seed", True)],
)
def test_non_int_arguments_refused(monkeypatch, name, value):
    # A bool or a float is refused, not run or written into the report; a
    # report cannot say which samples a seed of 1.5 or True drew.
    def no_pipeline(g):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(verify_module, "pipeline", no_pipeline)
    with pytest.raises(ValueError, match="expected an integer"):
        verify_graph(example_graph(), **{name: value})


def test_negative_seed_is_valid():
    report = verify_graph(example_graph(), samples=3, seed=-7)
    assert report.ok and report.samples == 3


def test_random_graphs_verify():
    for trial in range(3):
        g = random_valid_graph(rng_for(283, trial))
        report = verify_graph(g, samples=60, seed=trial, instance=f"random-{trial}")
        assert report.ok, report.to_json()


def anchored(op):
    """op with c = max_k(x0_k - F_k(x0)) added to every offset, x0 the first
    sample of `verify_graph` (seed 0): F moves up by c, so x0 <= F(x0) with
    equality in some coordinate, and the samples fall on both sides."""
    x0 = sample_vector(rng_for(0, 0), op.n, 10, 64)
    c = max(a - b for a, b in zip(x0, minmax_eval(op, x0)))
    return replace(op, offsets=tuple(tuple(v + c for v in row) for row in op.offsets))


def test_arity_four_denominator_64_graphs_verify():
    # Zwick-Paterson turns these into about a hundred Random vertices. The
    # plain graphs put all 20 samples outside; their anchored copies put
    # samples inside and outside, so a pencil that rejects every point fails.
    for trial in range(2):
        op = random_minmax(rng_for(293, trial), n=4, denom=64)
        report = verify_graph(graph_from_minmax(op), samples=20)
        assert report.ok, report.to_json()
        g = graph_from_minmax(anchored(op))
        report = verify_graph(g, samples=20)
        assert report.ok, report.to_json()
        assert report.subfixed_count > 0 and report.complement_count > 0, report.to_json()
        # One row -inf >= 0, over the envelope's variables.
        reject_all = MetzlerPencil(1, 2 * pipeline(g)[0].n, {(0, 0): {0: SignedTrop.neg(0)}})
        assert not verify_graph(g, samples=20, pencil_override=reject_all).ok


@pytest.mark.parametrize("samples", [0, 20])
def test_override_of_the_wrong_size_raises_before_sampling(monkeypatch, samples):
    # A query is a lift and its negation, 2 * target.n coordinates; an
    # override of another n is refused once, before any point is drawn.
    g = example_graph()
    n = pipeline(g)[0].n

    def refuse(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(verify_module, "sample_vector", refuse)
    for size in (n, 2 * n - 1, 2 * n + 1):
        wrong = MetzlerPencil(1, size, {(0, 0): {0: SignedTrop.neg(0)}})
        with pytest.raises(DimensionMismatch, match=f"length {size}, expected {2 * n}"):
            verify_graph(g, samples=samples, pencil_override=wrong)


def test_report_serialization_is_deterministic():
    a = verify_graph(example_graph(), samples=30, seed=5)
    b = verify_graph(example_graph(), samples=30, seed=5)
    assert a.to_json() == b.to_json()
    assert "wall_time" not in a.to_json()


def test_reports_do_not_use_the_fraction_lift(monkeypatch):
    # verify_graph passes the integer lift and its negation to the pencil
    # kernel, so a WitnessMap.lift that raises changes no report.
    graphs = [example_graph(), graph_from_minmax(random_minmax(rng_for(293, 0), n=3, denom=6))]
    want = [verify_graph(g, samples=40, seed=2).to_json() for g in graphs]

    def refuse(self, x):
        raise AssertionError("Fraction lift called")

    monkeypatch.setattr(WitnessMap, "lift", refuse)
    assert [verify_graph(g, samples=40, seed=2).to_json() for g in graphs] == want


def test_corrupted_pencil_is_caught():
    g = example_graph()
    corrupted_source = GameGraph(
        g.min_vertices,
        g.max_vertices,
        g.random_vertices,
        tuple(
            replace(e, payoff=e.payoff + 2) if e.id == 4 else e for e in g.edges
        ),
    )
    wrong = affine_envelope(synthesize_cone(pipeline(corrupted_source)[0]))
    report = verify_graph(g, samples=200, seed=1, pencil_override=wrong)
    assert not report.ok
    assert report.counterexample is not None


def test_pipeline_pencils_match_operator_on_random_graphs():
    """Random min-max graphs with n <= 6 and row denominators <= 64, so
    that Zwick-Paterson gadgets of up to six bits occur: at drawn rational
    points, subfixed equals envelope membership of the lift; at lifts with
    a quarter of the coordinates -inf, half of them pulled into the
    extended subfixed set, subfixed_extended equals cone membership. Both
    answers must occur in both comparisons."""
    seen = Counter()
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 64), st.data())
    def check(seed, n, denom, data):
        rng = random.Random(seed)
        g = graph_from_minmax(random_minmax(rng, n, denom))
        target, witness = pipeline(g)
        cone = synthesize_cone(target)
        envelope = affine_envelope(cone)
        for j in range(4):
            x = tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
            inside = subfixed(g, x)
            assert pencil_member(envelope, envelope_lift(witness, x)) == inside
            seen["finite", inside] += 1
            p = tuple(NEG_INF if rng.random() < 0.25 else Trop(v) for v in witness.lift(x))
            if j % 2:
                p = inside_closure(target, p)
            inside = subfixed_extended(target, p)
            assert pencil_member(cone, p) == inside
            seen["-inf", inside] += 1

    check()
    assert all(seen[kind, answer] for kind in ("finite", "-inf") for answer in (True, False)), seen
