"""The sampled end-to-end verification harness."""

from dataclasses import replace
from fractions import Fraction

from support import random_minmax, random_valid_graph
from tropcone.fixtures import example_graph
from tropcone.graph import Edge, GameGraph, graph_from_minmax
from tropcone.pencil import affine_envelope, synthesize_cone
from tropcone.sampling import rng_for
from tropcone.transforms import pipeline
from tropcone.verify import verify_graph

F = Fraction


def test_example_graph_verifies():
    report = verify_graph(example_graph(), samples=100, seed=0)
    assert report.ok
    assert report.counterexample is None
    assert report.subfixed_count + report.complement_count == 100
    assert report.subfixed_count > 0
    assert report.complement_count > 0


def test_random_graphs_verify():
    for trial in range(3):
        g = random_valid_graph(rng_for(283, trial))
        report = verify_graph(g, samples=60, seed=trial, instance=f"random-{trial}")
        assert report.ok, report.to_json()


def test_arity_four_denominator_64_graphs_verify():
    # Zwick-Paterson turns these into about a hundred Random vertices.
    for trial in range(2):
        g = graph_from_minmax(random_minmax(rng_for(293, trial), n=4, denom=64))
        report = verify_graph(g, samples=20)
        assert report.ok, report.to_json()


def test_report_serialization_is_deterministic():
    a = verify_graph(example_graph(), samples=30, seed=5)
    b = verify_graph(example_graph(), samples=30, seed=5)
    assert a.to_json() == b.to_json()
    assert "wall_time" not in a.to_json()


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
