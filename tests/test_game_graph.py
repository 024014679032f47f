"""Game graphs, validation, absorption probabilities, and the encoded
operator, cross-checked against the min-max stochastic form."""

import gc
import hashlib
import json
import weakref
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    BENCHMARK_RUNGS,
    biased_graph,
    default_digit_limit,
    dense_absorption_rows,
    dense_component_graph,
    denominator_five_graph,
    fraction_absorption_rows,
    fraction_witness_rows,
    long_sum_graph,
    mutated_graph,
    random_minmax,
    random_sound_graph,
    random_invalid_graph,
    random_valid_graph,
    reference_validation_failures,
    small_rational,
    walk_path_failures,
    wide_graph,
)
from perfbench.instances import graph_instance
from tropcone import graph as graph_module
from tropcone.errors import DimensionMismatch, NonStochastic, ValidationFailed
from tropcone.fixtures import TWO_PI, example_graph, example_minmax
from tropcone.graph import (
    Edge,
    GameGraph,
    MinMaxOperator,
    ValidationReport,
    absorption,
    check_stochastic,
    eval_operator,
    graph_from_minmax,
    minmax_eval,
    require_valid,
    subfixed,
    validate_graph,
)
from tropcone.sampling import rng_for, sample_vector
from tropcone.transforms import first_transformation, zwick_paterson

F = Fraction

class TestValidation:
    def test_example_graph_valid(self):
        assert validate_graph(example_graph()).ok

    def test_min_min_edge_fails(self):
        g = GameGraph(
            (1, 2), (3,), (),
            (
                Edge(1, 1, 2, payoff=F(0)),
                Edge(2, 2, 3, payoff=F(0)),
                Edge(3, 3, 1, payoff=F(0)),
            ),
        )
        report = validate_graph(g)
        assert not report.ok
        assert any(code == "min-min-path" for code, _ in report.failures)

    def test_bad_probability_sum_fails(self):
        g = GameGraph(
            (1,), (2,), (3,),
            (
                Edge(1, 1, 2, payoff=F(0)),
                Edge(2, 2, 3, payoff=F(0)),
                Edge(3, 3, 1, prob=F(1, 2)),
            ),
        )
        report = validate_graph(g)
        assert not report.ok
        assert any(code == "prob-sum" for code, _ in report.failures)

    @pytest.mark.parametrize(
        "probs, want",
        [
            ((F(0), F(1)), [("edge-labels", "edge 3 has nonpositive probability")]),
            ((F(-1, 3), F(4, 3)), [("edge-labels", "edge 3 has nonpositive probability")]),
            ((F(1, 6), F(7, 12)), [("prob-sum", "probabilities out of 3 sum to 3/4")]),
            ((F(1, 3), F(11, 12)), [("prob-sum", "probabilities out of 3 sum to 5/4")]),
        ],
        ids=["zero", "negative", "sum-3/4", "sum-5/4"],
    )
    def test_probability_failures(self, probs, want):
        assert validate_graph(coin_graph(*probs)).failures == tuple(want)

    def test_payoff_out_of_random_vertex_sums_to_zero(self):
        g = GameGraph(
            (1,), (2,), (3,),
            (
                Edge(1, 1, 2, payoff=F(0)),
                Edge(2, 2, 3, payoff=F(0)),
                Edge(3, 3, 1, payoff=F(0)),
            ),
        )
        assert validate_graph(g).failures == (
            ("edge-labels", "edge 3 out of a Random vertex must carry a probability only"),
            ("prob-sum", "probabilities out of 3 sum to 0"),
        )

    @pytest.mark.parametrize(
        "probs",
        [
            (F(1, 3), F(1, 6), F(1, 2)),
            # Coprime Mersenne-prime denominators p, q and their product.
            (F(1, 2**61 - 1), F(1, 2**89 - 1), 1 - F(1, 2**61 - 1) - F(1, 2**89 - 1)),
        ],
        ids=["mixed", "large-coprime"],
    )
    def test_exact_sums_pass(self, probs):
        assert validate_graph(coin_graph(*probs)).ok

    def test_builds_no_fraction(self, monkeypatch):
        g = example_graph()
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        assert validate_graph(g).ok
        assert built == []

    def test_missing_out_edge_fails(self):
        g = GameGraph((1,), (2,), (), (Edge(1, 1, 2, payoff=F(0)),))
        report = validate_graph(g)
        assert any(code == "out-degree" for code, _ in report.failures)

    def test_require_valid_raises(self):
        g = GameGraph((1,), (2,), (), (Edge(1, 1, 2, payoff=F(0)),))
        with pytest.raises(ValidationFailed):
            require_valid(g)

    def test_builder_freezes_only_valid_graphs(self):
        b = graph_module._Builder(example_graph())
        b.add_edge(b.fresh_vertex(), 1, payoff=F(0))
        with pytest.raises(ValidationFailed, match="edge-endpoints"):
            b.freeze()
        assert graph_module._Builder(example_graph()).freeze().validation.ok

    def test_max_max_edge_fails(self):
        g = GameGraph(
            (1,), (2, 3), (),
            (
                Edge(1, 1, 2, payoff=F(0)),
                Edge(2, 2, 3, payoff=F(0)),
                Edge(3, 3, 1, payoff=F(0)),
            ),
        )
        assert any(code == "max-max-path" for code, _ in validate_graph(g).failures)

    def test_duplicate_edge_ids_fail(self):
        # Giving Max out-edge 5 the id of its sibling 4 would silently change
        # F_1(0, 0, 5) from 6 to 14/3, since absorption rows are keyed by id.
        g = example_graph()
        edges = tuple(replace(e, id=4) if e.id == 5 else e for e in g.edges)
        dup = GameGraph(g.min_vertices, g.max_vertices, g.random_vertices, edges)
        assert [code for code, _ in validate_graph(dup).failures] == ["edge-ids"]
        with pytest.raises(ValidationFailed):
            eval_operator(dup, (F(0), F(0), F(5)))


    def test_path_checks_match_per_vertex_walks(self):
        codes = set()
        for trial in range(1500):
            g = random_sound_graph(rng_for(229, trial))
            failures = validate_graph(g).failures
            assert list(failures) == walk_path_failures(g)
            codes.update(code for code, _ in failures)
        assert codes == {"min-min-path", "max-max-path", "random-reach"}

    def test_failures_match_the_reference(self):
        # Random vertices with 8 out-edges over 61- and 89-bit denominators,
        # seeded with defects: every failure, message and order equals the
        # reference's, whose probability sums are `integers_over`'s.
        codes = set()
        for trial in range(400):
            g = random_invalid_graph(rng_for(37, trial))
            failures = validate_graph(g).failures
            assert list(failures) == reference_validation_failures(g)
            codes.update(code for code, _ in failures)
        assert codes == {
            "disjoint", "edge-ids", "nonempty-classes", "edge-endpoints", "edge-labels",
            "out-degree", "prob-sum", "min-min-path", "max-max-path", "random-reach",
        }

    def test_reports_are_pinned(self):
        # 300 seeded defects on the example and the seed-0 benchmark graphs:
        # a Random edge with both labels, zero and negative probabilities,
        # vertices summing under and over one, unknown heads and vertices
        # with no out-edge. The reports are pinned byte for byte, so that a
        # change in how validation reads probabilities cannot move a check or
        # a message unseen.
        bases = [example_graph()]
        bases += [graph_instance(0, shape, index).fresh() for shape, indices in BENCHMARK_RUNGS for index in indices]
        reports = [validate_graph(mutated_graph(rng_for(337, t), bases[t % len(bases)])).to_json() for t in range(300)]
        assert {f["code"] for r in reports for f in r["failures"]} == {
            "edge-labels", "edge-endpoints", "out-degree", "prob-sum",
        }
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == "94d5b56b6bfa72bec85d22f39c410b455746bdc8ee4e928c14cb37a75a1c8c8c"

    def test_wide_graphs_are_valid(self):
        for trial in range(50):
            g = wide_graph(rng_for(31, trial))
            assert validate_graph(g).ok and reference_validation_failures(g) == []
            assert {len(g.out_edges[v]) for v in g.random_vertices} == {8}

    def test_long_chain(self):
        # One reverse search per vertex class: about 5 s at this size with
        # one walk per vertex, a few milliseconds now.
        assert validate_graph(long_chain_graph(3000)).ok


def coin_graph(*probs):
    """Min 1 -> Max 2 -> Random 3, which returns to Min 1 along one edge per
    probability, ids 3, 4, ..."""
    edges = [Edge(1, 1, 2, payoff=F(0)), Edge(2, 2, 3, payoff=F(0))]
    edges += [Edge(3 + i, 3, 1, prob=p) for i, p in enumerate(probs)]
    return GameGraph((1,), (2,), (3,), tuple(edges))


def long_chain_graph(k):
    """Min 1 -> Random 3 -> ... -> Random k + 2, each Random vertex moving on
    with 1/2 and stopping at Max 2 with 1/2; the last stops with 1."""
    randoms = tuple(range(3, 3 + k))
    edges = [Edge(1, 1, 3, payoff=F(0)), Edge(2, 2, 1, payoff=F(0))]
    for v in randoms[:-1]:
        edges.append(Edge(len(edges) + 1, v, v + 1, prob=F(1, 2)))
        edges.append(Edge(len(edges) + 1, v, 2, prob=F(1, 2)))
    edges.append(Edge(len(edges) + 1, randoms[-1], 2, prob=F(1)))
    return GameGraph((1,), (2,), randoms, tuple(edges))


class TestAbsorption:
    def test_table_does_not_outlive_its_graph(self):
        g = example_graph()
        absorption(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_edge_into_absorbing_vertex(self):
        g = example_graph()
        rows = fraction_absorption_rows(g)
        # Edge 1 heads the Max vertex 11 directly.
        assert rows[1] == {11: F(1)}

    def test_example_diamond_probabilities(self):
        g = example_graph()
        rows = fraction_absorption_rows(g)
        # Edge 6 enters the Random vertex 21 with distribution (1/4, 3/4).
        assert rows[6].get(1, 0) == F(1, 4)
        assert rows[6].get(3, 0) == F(3, 4)
        assert rows[5].get(2, 0) == F(1, 3)
        assert rows[5].get(3, 0) == F(2, 3)

    def test_row_sums_on_random_graphs(self):
        for trial in range(10):
            g = random_valid_graph(rng_for(5, trial))
            rows = fraction_absorption_rows(g)
            mins = set(g.min_vertices)
            maxs = set(g.max_vertices)
            for e in g.edges:
                row = rows[e.id]
                total = sum(row.values(), F(0))
                assert total == 1
                assert all(0 < p <= 1 for p in row.values())
                if g.kind[e.tail] == "min":
                    assert set(row) <= maxs
                elif g.kind[e.tail] == "max":
                    assert set(row) <= mins

    @staticmethod
    def _assert_matches_dense(g, rows):
        # Same edges, vertices and values; a row's order is the solve's.
        expected = dense_absorption_rows(g)
        assert rows == expected
        return expected

    @staticmethod
    def _assert_lowest_terms(g):
        # One row per Random vertex, probability 0 left out, sums of one.
        table = absorption(g)
        assert set(table) == set(g.random_vertices)
        for d, xs in table.values():
            assert gcd(d, *xs.values()) == 1
            assert all(x > 0 for x in xs.values())
            assert sum(xs.values()) == d

    def _check_with_stages(self, g):
        zp = zwick_paterson(g)
        t1, witness = first_transformation(zp)
        # The first transformation reads its witness off t1's own table, so
        # the table is cached on t1; the dense oracle solves t1 from scratch.
        assert "absorption_table" in vars(t1)
        self._assert_matches_dense(g, fraction_absorption_rows(g))
        self._assert_matches_dense(t1, fraction_absorption_rows(t1))
        dense = self._assert_matches_dense(zp, fraction_absorption_rows(zp))
        # The witness rows are zp's table, read off the solve of t1's: one
        # zero-constant single term per buffer vertex, whose weights summed
        # per coordinate, in coordinate order, are the dense row.
        folded = []
        for row in fraction_witness_rows(witness):
            sums = {}
            for p, ((c, i),) in row:
                assert c == 0
                sums[i] = sums.get(i, 0) + p
            folded.append([(zp.min_vertices[i], p) for i, p in sorted(sums.items())])
        assert folded == [list(dense[e.id].items()) for e in zp.edges if zp.kind[e.tail] == "max"]

    def test_matches_dense_solve_on_fixtures(self):
        self._check_with_stages(example_graph())
        self._check_with_stages(denominator_five_graph())

    def test_matches_dense_solve_on_random_graphs(self):
        for trial in range(400):
            self._check_with_stages(random_valid_graph(rng_for(211, trial)))

    @pytest.mark.parametrize(
        "shape, indices", BENCHMARK_RUNGS, ids=[shape.name for shape, _ in BENCHMARK_RUNGS]
    )
    def test_matches_dense_solve_on_benchmark_graphs(self, shape, indices):
        for index in indices:
            self._check_with_stages(graph_instance(0, shape, index).fresh())

    def test_matches_dense_solve_on_dense_components(self):
        # Every pivot of a dense component reaches every row.
        for trial in range(8):
            rng = rng_for(307, trial)
            g = dense_component_graph(rng, rng.randint(12, 20))
            assert len(graph_module._random_components(g)) == 1
            self._assert_matches_dense(g, fraction_absorption_rows(g))

    def test_rows_in_lowest_terms(self):
        for trial in range(50):
            self._assert_lowest_terms(random_valid_graph(rng_for(313, trial)))
        for trial in range(4):
            rng = rng_for(317, trial)
            self._assert_lowest_terms(dense_component_graph(rng, rng.randint(12, 20)))
        for shape, indices in BENCHMARK_RUNGS:
            for index in indices:
                g = graph_instance(0, shape, index).fresh()
                self._assert_lowest_terms(g)
                self._assert_lowest_terms(zwick_paterson(g))

    @staticmethod
    def _deep_operator(rng, den):
        # Two coordinates, both rows of both matrices over `den`.
        def row():
            a = rng.randint(1, den - 1)
            return (F(a, den), F(den - a, den))

        return MinMaxOperator(
            n=2,
            matrices=((row(), row()), (row(), row())),
            offsets=tuple(tuple(F(rng.randint(-6, 6)) for _ in range(2)) for _ in range(2)),
            subsets=(((0, 1),), ((0,), (1,))),
        )

    @pytest.mark.parametrize("bits", [16, 40, 63])
    def test_deep_gadgets_keep_the_source_rows(self, bits):
        # A b-bit probability becomes one gadget, a component of about 2b
        # fair coins. Seen from every Max out-edge that Zwick-Paterson
        # keeps, the gadgets absorb as the source graph's biased coins do.
        den = 2**63 - 25 if bits == 63 else 2**bits
        graphs = [graph_from_minmax(self._deep_operator(rng_for(311, bits), den))]
        if bits == 63:
            graphs.append(biased_graph(F(1, 2**64 - 159)))
        for g in graphs:
            zp = zwick_paterson(g)
            assert max(map(len, graph_module._random_components(zp))) > bits
            kept = [e.id for e in zp.edges if zp.kind[e.tail] == "max"]
            assert kept
            zp_rows, g_rows = fraction_absorption_rows(zp), fraction_absorption_rows(g)
            for edge_id in kept:
                assert zp_rows[edge_id] == g_rows[edge_id]

    def test_closed_component_raises(self):
        # Random 3 <-> 4 is a closed 2-cycle: no Min or Max vertex is
        # reachable, and validation refuses the graph before any solve.
        closed = GameGraph(
            (1,), (2,), (3, 4),
            (
                Edge(1, 1, 2, payoff=F(0)),
                Edge(2, 2, 1, payoff=F(0)),
                Edge(3, 2, 3, payoff=F(0)),
                Edge(4, 3, 4, prob=F(1)),
                Edge(5, 4, 3, prob=F(1)),
            ),
        )
        with pytest.raises(ValidationFailed, match="random-reach") as info:
            closed.absorption_table
        assert {code for code, _ in info.value.report.failures} == {"random-reach"}

    def test_component_exiting_only_into_another(self):
        # {3, 4} leaves only through 5, whose component {5, 6} exits to the
        # Max vertices 7 and 2.
        g = GameGraph(
            (1,), (7, 2), (3, 4, 5, 6),
            (
                Edge(1, 1, 3, payoff=F(0)),
                Edge(2, 1, 2, payoff=F(1)),
                Edge(3, 2, 1, payoff=F(0)),
                Edge(4, 7, 1, payoff=F(0)),
                Edge(5, 3, 4, prob=F(1, 2)),
                Edge(6, 3, 5, prob=F(1, 2)),
                Edge(7, 4, 3, prob=F(1)),
                Edge(8, 5, 6, prob=F(1, 2)),
                Edge(9, 5, 2, prob=F(1, 2)),
                Edge(10, 6, 5, prob=F(1, 3)),
                Edge(11, 6, 7, prob=F(2, 3)),
            ),
        )
        assert validate_graph(g).ok
        rows = fraction_absorption_rows(g)
        self._assert_matches_dense(g, rows)
        assert rows[1] == rows[6] == {7: F(2, 5), 2: F(3, 5)}

    def test_long_chain_needs_no_recursion(self):
        g = long_chain_graph(3000)
        rows = fraction_absorption_rows(g)
        assert len(rows) == len(g.edges)
        assert all(rows[e.id] == {2: F(1)} for e in g.edges if e.head in g.random_vertices)


class TestOperator:
    def test_example_at_origin(self):
        value = eval_operator(example_graph(), (F(0), F(0), F(0)))
        assert value == (F(4, 3), TWO_PI, F(0))

    def test_example_formulas_at_generic_point(self):
        x = (F(1), F(-2), F(3, 2))
        f1 = max(x[2] + 1, x[1] / 3 + 2 * x[2] / 3 + F(4, 3))
        f2 = max(x[0] / 4 + 3 * x[2] / 4 + F(3, 4), x[2] + TWO_PI)
        f3 = max(x[0], x[1])
        assert eval_operator(example_graph(), x) == (f1, f2, f3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_operator(example_graph(), (F(0), F(0)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_homogeneous(self, seed):
        g = example_graph()
        rng = rng_for(seed, 0)
        x = sample_vector(rng, 3, 6, 8)
        lam = small_rational(rng)
        shifted = tuple(v + lam for v in x)
        assert eval_operator(g, shifted) == tuple(v + lam for v in eval_operator(g, x))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone(self, seed):
        g = example_graph()
        rng = rng_for(seed, 1)
        x = sample_vector(rng, 3, 6, 8)
        y = tuple(v + abs(small_rational(rng)) for v in x)
        assert all(a <= b for a, b in zip(eval_operator(g, x), eval_operator(g, y)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nonexpansive(self, seed):
        rng = rng_for(seed, 2)
        g = random_valid_graph(rng)
        x = sample_vector(rng, g.n, 6, 8)
        y = sample_vector(rng, g.n, 6, 8)
        gap = max(abs(a - b) for a, b in zip(x, y))
        fx, fy = eval_operator(g, x), eval_operator(g, y)
        assert max(abs(a - b) for a, b in zip(fx, fy)) <= gap


class TestSubfixed:
    def test_example_points(self):
        g = example_graph()
        assert subfixed(g, (F(0), F(0), F(0)))
        assert not subfixed(g, (F(2), F(0), F(0)))
        assert subfixed(g, (F(-3), F(0), F(0)))

    def test_closed_under_shifted_max(self):
        g = example_graph()
        members = []
        for i in range(200):
            x = sample_vector(rng_for(41, i), 3, 5, 8)
            if subfixed(g, x):
                members.append(x)
            if len(members) >= 8:
                break
        assert len(members) >= 2
        rng = rng_for(43, 0)
        for _ in range(30):
            x = members[rng.randrange(len(members))]
            y = members[rng.randrange(len(members))]
            lam, mu = F(0), -abs(small_rational(rng))
            if rng.random() < 0.5:
                lam, mu = mu, lam
            z = tuple(max(lam + a, mu + b) for a, b in zip(x, y))
            assert subfixed(g, z)


class TestMinMax:
    def test_example_at_origin(self):
        assert minmax_eval(example_minmax(), (F(0), F(0), F(0))) == (F(4, 3), TWO_PI, F(0))

    def test_stochastic_rows_preserve_constants(self):
        op = MinMaxOperator(
            n=2,
            matrices=(((F(1, 2), F(1, 2)), (F(1), F(0))),),
            offsets=((F(0), F(0)),),
            subsets=(((0,),), ((0,),)),
        )
        c = F(7, 3)
        assert minmax_eval(op, (c, c)) == (c, c)

    def test_check_stochastic(self):
        good = MinMaxOperator(
            n=2,
            matrices=(((F(1), F(0)), (F(0), F(1))),),
            offsets=((F(0), F(0)),),
            subsets=(((0,),), ((0,),)),
        )
        assert check_stochastic(good).ok
        assert check_stochastic(example_minmax()).ok
        bad = MinMaxOperator(
            n=2,
            matrices=(((F(1), F(1)), (F(0), F(1))),),
            offsets=((F(0), F(0)),),
            subsets=(((0,),), ((0,),)),
        )
        assert not check_stochastic(bad).ok

    def test_graph_from_minmax_rejects_nonstochastic(self):
        bad = MinMaxOperator(
            n=1,
            matrices=(((F(2),),),),
            offsets=((F(0),),),
            subsets=(((0,),),),
        )
        with pytest.raises(NonStochastic):
            graph_from_minmax(bad)

    def test_graph_from_minmax_names_the_failure_code(self):
        bad = MinMaxOperator(1, (((F(2),),),), ((F(0),),), (((0,),),))
        with pytest.raises(NonStochastic, match="^row-sum: matrix 0 row 0 sums to 2$"):
            graph_from_minmax(bad)

    def test_check_stochastic_failure_codes(self):
        op = MinMaxOperator(
            n=2,
            matrices=(((F(-1), F(2)), (F(0), F(1))),),
            offsets=((F(0), F(0)),),
            subsets=((), ((),)),
        )
        report = check_stochastic(op)
        assert isinstance(report, ValidationReport)
        assert [code for code, _ in report.failures] == ["negative-entry", "min-terms", "empty-subset"]
        assert str(report).startswith("negative-entry: matrix 0 row 0 has a negative entry; ")
        bad_sum = MinMaxOperator(1, (((F(1, 3),),),), ((F(0),),), (((0,),),))
        assert check_stochastic(bad_sum).to_json()["failures"] == [
            {"code": "row-sum", "message": "matrix 0 row 0 sums to 1/3"}
        ]

    def test_identity_operator_graph(self):
        op = MinMaxOperator(
            n=2,
            matrices=(((F(1), F(0)), (F(0), F(1))),),
            offsets=((F(0), F(0)),),
            subsets=(((0,),), ((0,),)),
        )
        g = graph_from_minmax(op)
        for i in range(20):
            x = sample_vector(rng_for(47, i), 2, 6, 8)
            assert eval_operator(g, x) == x

    def test_example_graph_matches_minmax(self):
        g = graph_from_minmax(example_minmax())
        fixture = example_graph()
        for i in range(50):
            x = sample_vector(rng_for(53, i), 3, 6, 8)
            want = minmax_eval(example_minmax(), x)
            assert eval_operator(g, x) == want
            assert eval_operator(fixture, x) == want

    @pytest.mark.parametrize("index", [-1, 2, 5, 0.0, True])
    def test_subset_index_out_of_range(self, index):
        # -1 used to pick the last matrix, changing F_1(0,0,5) from 6 to 14/3;
        # 0.0 was accepted and failed on evaluation, and True was written to
        # JSON as true, which the reader refuses.
        op = example_minmax()
        subsets = (((index,),),) + op.subsets[1:]
        with pytest.raises(ValueError):
            replace(op, subsets=subsets)
        obj = op.to_json()
        obj["subsets"][0][0] = [index]
        with pytest.raises(ValueError):
            MinMaxOperator.from_json(obj)

    def test_shapes_checked(self):
        op = example_minmax()
        a1, a2 = op.matrices
        with pytest.raises(ValueError):
            replace(op, n=0)
        bad_shapes = [
            {"offsets": op.offsets[:1]},
            {"matrices": (a1, a2[:2])},
            {"matrices": (a1, (a2[0][:2],) + a2[1:])},
            {"offsets": (op.offsets[0], op.offsets[1][:2])},
            {"subsets": op.subsets[:2]},
            {"n": 2},
        ]
        for change in bad_shapes:
            with pytest.raises(DimensionMismatch):
                replace(op, **change)

    @pytest.mark.parametrize(
        "matrix, offset",
        [(1.0, F(0)), (F(1), 0.1), (True, F(0)), (F(1), False), ("1", F(0)), (F(1), None)],
        ids=["float-matrix", "float-offset", "bool-matrix", "bool-offset", "str-matrix", "none-offset"],
    )
    def test_inexact_entries_refused(self, matrix, offset):
        # A float entry was accepted: minmax_eval returned the float (0.1,)
        # and graph_from_minmax raised AttributeError.
        with pytest.raises(ValueError):
            MinMaxOperator(n=1, matrices=(((matrix,),),), offsets=((offset,),), subsets=(((0,),),))

    def test_entries_held_as_fractions(self):
        op = MinMaxOperator(n=1, matrices=(((1,),),), offsets=((-2,),), subsets=(((0,),),))
        assert op.matrices == (((F(1),),),) and op.offsets == ((F(-2),),)
        assert all(type(v) is Fraction for v in (op.matrices[0][0][0], op.offsets[0][0]))
        assert minmax_eval(op, (F(5),)) == (F(3),)
        assert eval_operator(graph_from_minmax(op), (F(5),)) == (F(3),)

    def test_random_instances_agree(self):
        for trial in range(5):
            rng = rng_for(59, trial)
            op = random_minmax(rng)
            g = graph_from_minmax(op)
            for i in range(100):
                x = sample_vector(rng_for(61 + trial, i), op.n, 6, 8)
                assert eval_operator(g, x) == minmax_eval(op, x)


class TestSerialization:
    def test_graph_round_trip(self):
        g = example_graph()
        h = GameGraph.from_json(g.to_json())
        assert h.to_json() == g.to_json()
        assert eval_operator(h, (F(0), F(0), F(0))) == eval_operator(g, (F(0), F(0), F(0)))

    def test_minmax_round_trip(self):
        op = example_minmax()
        back = MinMaxOperator.from_json(op.to_json())
        assert back.to_json() == op.to_json()

    @pytest.mark.parametrize("n, size", [(True, 1), (1.0, 1), (3.0, 3)])
    def test_minmax_constructor_checks_arity_as_the_reader_does(self, n, size):
        # The constructor refuses an arity that `from_json` refuses, so no
        # operator it accepts writes a file that cannot be read back.
        eye = tuple(tuple(F(int(i == j)) for j in range(size)) for i in range(size))
        with pytest.raises(ValueError):
            MinMaxOperator(n, (eye,), ((F(0),) * size,), (((0,),),) * size)

    def test_minmax_sizes_and_indices_are_integers(self):
        obj = example_minmax().to_json()
        with pytest.raises(ValueError):
            MinMaxOperator.from_json({**obj, "n": float(obj["n"])})
        subsets = [[list(s) for s in per_k] for per_k in obj["subsets"]]
        subsets[0][0][0] = str(subsets[0][0][0])
        with pytest.raises(ValueError):
            MinMaxOperator.from_json({**obj, "subsets": subsets})


def _two_vertex_graph(*edges):
    """Min vertex 1 and Max vertex 2 with the given edges."""
    return GameGraph((1,), (2,), (), edges)


class TestConstructor:
    """The constructor checks every stored id and label, so no graph it
    accepts validates with an inexact value or writes a file that
    `from_json` refuses."""

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("where", ["min", "max", "random"])
    def test_vertex_ids_are_ints(self, where, bad):
        classes = {"min": (2,), "max": (3,), "random": (4,)}
        classes[where] += (bad,)
        with pytest.raises(ValueError, match="expected an integer"):
            GameGraph(classes["min"], classes["max"], classes["random"], ())

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("field", ["id", "tail", "head"])
    def test_edge_ids_and_endpoints_are_ints(self, field, bad):
        edge = replace(Edge(1, 1, 2, payoff=F(0)), **{field: bad})
        with pytest.raises(ValueError, match="expected an integer"):
            _two_vertex_graph(edge, Edge(2, 2, 1, payoff=F(1)))

    def test_float_tail_next_to_its_int_vertex(self):
        # 1.0 == 1, so the tail names vertex 1 to every dict lookup, and the
        # graph would validate, answer subfixed and write a file with a tail
        # that from_json refuses.
        with pytest.raises(ValueError, match="expected an integer, got 1.0"):
            _two_vertex_graph(Edge(1, 1.0, 2, payoff=F(0)), Edge(2, 2, 1, payoff=F(1)))

    @pytest.mark.parametrize("bad", [0.5, 1.0, True], ids=["float", "integral-float", "bool"])
    def test_payoffs_are_exact(self, bad):
        with pytest.raises(ValueError, match="expected an int or a Fraction"):
            _two_vertex_graph(Edge(1, 1, 2, payoff=bad), Edge(2, 2, 1, payoff=F(1)))

    @pytest.mark.parametrize("bad", [0.5, 1.0, True], ids=["float", "integral-float", "bool"])
    def test_probabilities_are_exact(self, bad):
        # A float probability made validation itself raise AttributeError,
        # and prob=True was read as 1.
        edges = (
            Edge(1, 1, 3, payoff=F(0)),
            Edge(2, 3, 2, prob=bad),
            Edge(3, 2, 1, payoff=F(1)),
        )
        with pytest.raises(ValueError, match="expected an int or a Fraction"):
            GameGraph((1,), (2,), (3,), edges)

    def test_int_labels_accepted(self):
        g = _two_vertex_graph(Edge(1, 1, 2, payoff=0), Edge(2, 2, 1, payoff=1))
        assert validate_graph(g).ok
        assert GameGraph.from_json(g.to_json()).edges == g.edges

    @pytest.mark.parametrize("value", [1.0, True, "1"], ids=["float", "bool", "string"])
    def test_reader_ids_checked_by_the_constructor(self, value):
        # from_json passes ids through as read; the constructor refuses them
        # with the integer reader's message.
        obj = example_graph().to_json()
        for key in ("min", "max", "random"):
            bad = {**obj, key: obj[key][:-1] + [value]}
            with pytest.raises(ValueError, match="expected an integer"):
                GameGraph.from_json(bad)
        for field in ("id", "tail", "head"):
            bad = {**obj, "edges": [{**obj["edges"][0], field: value}] + obj["edges"][1:]}
            with pytest.raises(ValueError, match="expected an integer"):
                GameGraph.from_json(bad)


class TestEdge:
    """`Edge` is a frozen, slotted dataclass with its own constructor, which
    stores the fields through the slot descriptors: the dataclass contract
    holds as it does for a generated constructor."""

    def test_fields_and_defaults(self):
        assert [(f.name, f.default) for f in fields(Edge(1, 2, 3))] == [
            ("id", MISSING), ("tail", MISSING), ("head", MISSING), ("payoff", None), ("prob", None),
        ]
        assert Edge(id=1, tail=2, head=3, prob=F(1, 2)) == Edge(1, 2, 3, None, F(1, 2))
        with pytest.raises(TypeError):
            Edge(1, 2)

    def test_replace(self):
        e = Edge(1, 2, 3, prob=F(1, 2))
        assert replace(e, head=4, prob=F(1, 3)) == Edge(1, 2, 4, prob=F(1, 3))
        assert e == Edge(1, 2, 3, prob=F(1, 2))

    def test_eq_and_hash(self):
        a, b = Edge(1, 2, 3, payoff=F(1)), Edge(1, 2, 3, payoff=F(1))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Edge(1, 2, 3, prob=F(1))
        assert a != (1, 2, 3, F(1), None)

    def test_repr(self):
        assert repr(Edge(1, 2, 3, prob=F(1, 2))) == "Edge(id=1, tail=2, head=3, payoff=None, prob=Fraction(1, 2))"

    @pytest.mark.parametrize("name", ["id", "tail", "head", "payoff", "prob"])
    def test_frozen(self, name):
        e = Edge(1, 2, 3, payoff=F(1))
        with pytest.raises(FrozenInstanceError):
            setattr(e, name, 5)
        with pytest.raises(FrozenInstanceError):
            delattr(e, name)
        assert e == Edge(1, 2, 3, payoff=F(1))

    def test_slotted(self):
        # A name that is not a field has no slot. Python's frozen, slotted
        # dataclass raises TypeError for it where the unslotted one raises
        # FrozenInstanceError; either way nothing is stored.
        e = Edge(1, 2, 3)
        assert not hasattr(e, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            e.weight = 1
        assert not hasattr(e, "weight")


@default_digit_limit
class TestDigitLimit:
    """A sum with more digits than Python writes is named by its size in a
    failure message, so validation reports it instead of raising."""

    SIZE = "a rational with a 9510-bit numerator and a 18510-bit denominator"

    def test_prob_sum_past_the_limit(self):
        g = long_sum_graph()
        report = validate_graph(g)
        assert report.failures == (("prob-sum", f"probabilities out of 3 sum to {self.SIZE}"),)
        assert str(report) == f"prob-sum: probabilities out of 3 sum to {self.SIZE}"
        with pytest.raises(ValidationFailed, match="prob-sum"):
            subfixed(g, (0,))

    def test_row_sum_past_the_limit(self):
        op = MinMaxOperator(
            2,
            (((F(1, 3 ** 6000), F(1, 2 ** 9000)), (F(0), F(1))),),
            ((F(0), F(0)),),
            (((0,),), ((0,),)),
        )
        message = f"matrix 0 row 0 sums to {self.SIZE}"
        assert check_stochastic(op).failures == (("row-sum", message),)
        with pytest.raises(NonStochastic, match=f"row-sum: {message}"):
            graph_from_minmax(op)
