"""Structural transformations: coin-flip normalization, the two
witness-carrying transformations, and the composed pipeline."""

import hashlib
import json
from fractions import Fraction

import pytest

from support import (
    BENCHMARK_RUNGS,
    biased_graph,
    denominator_five_graph,
    fraction_absorption_rows,
    fraction_lift,
    fraction_witness_rows,
    gadget_exit_probability,
    random_minmax,
    random_valid_graph,
    sequential_pipeline,
    trop_lift,
)
from perfbench.instances import graph_instance
from tropcone import graph as graph_module
from tropcone import transforms as transforms_module
from tropcone.errors import DimensionMismatch, NotCompliant, PreconditionViolated
from tropcone.fixtures import example_graph
from tropcone.graph import (
    Edge,
    GameGraph,
    eval_operator,
    graph_from_minmax,
    is_compliant,
    subfixed,
    validate_graph,
)
from tropcone.pencil import pencil_member, synthesize_cone
from tropcone.sampling import rng_for, sample_trop_vector, sample_vector
from tropcone.scalars import NEG_INF, Trop
from tropcone.transforms import (
    WitnessMap,
    first_transformation,
    pipeline,
    second_transformation,
    zwick_paterson,
    zwick_paterson_with_gadgets,
)

F = Fraction
HALF = F(1, 2)


def third_graph():
    return biased_graph(F(1, 3))


def chain_graph():
    """Degree-one Random chains: 5 -> 6 -> Min 1, and 8 -> 7, where 7 flips
    (1/3, 2/3) between Min 1 and the middle of the first chain."""
    return GameGraph(
        (1, 2), (3, 4), (6, 8, 5, 7),
        (
            Edge(1, 1, 3, payoff=F(0)),
            Edge(2, 2, 4, payoff=F(1)),
            Edge(3, 3, 5, payoff=F(2)),
            Edge(4, 3, 2, payoff=F(-1)),
            Edge(5, 5, 6, prob=F(1)),
            Edge(6, 6, 1, prob=F(1)),
            Edge(7, 4, 8, payoff=F(0)),
            Edge(8, 8, 7, prob=F(1)),
            Edge(9, 7, 1, prob=F(1, 3)),
            Edge(10, 7, 6, prob=F(2, 3)),
        ),
    )


def fan_graph():
    """Random vertex 5 has out-degree four, listed out of id order, so the
    vertex split off it has three out-edges and is split again."""
    return GameGraph(
        (1, 2), (3, 4), (5, 6),
        (
            Edge(1, 1, 3, payoff=F(0)),
            Edge(2, 2, 4, payoff=HALF),
            Edge(3, 2, 3, payoff=F(-1)),
            Edge(4, 3, 5, payoff=F(1)),
            Edge(5, 4, 5, payoff=F(0)),
            Edge(6, 4, 6, payoff=F(-2)),
            Edge(9, 5, 6, prob=F(1, 5)),
            Edge(7, 5, 1, prob=F(1, 5)),
            Edge(10, 5, 2, prob=F(1, 5)),
            Edge(8, 5, 2, prob=F(2, 5)),
            Edge(11, 6, 1, prob=F(3, 7)),
            Edge(12, 6, 2, prob=F(4, 7)),
        ),
    )


def multi_term_graph():
    """A Random edge into Max vertex 3 of two out-edges, so that the split
    gives witness rows whose pairs take the max of two terms."""
    return GameGraph((1, 2), (3, 4), (5, 6), (
        Edge(1, 1, 5, payoff=F(0)), Edge(2, 2, 4, payoff=F(1, 2)),
        Edge(3, 3, 1, payoff=F(0)), Edge(4, 3, 2, payoff=F(1)),
        Edge(5, 4, 1, payoff=F(2)), Edge(6, 4, 2, payoff=F(-1)),
        Edge(7, 5, 6, prob=HALF), Edge(8, 5, 3, prob=HALF),
        Edge(9, 6, 3, prob=F(1, 3)), Edge(10, 6, 4, prob=F(2, 3)),
    ))


class TestZwickPaterson:
    def test_output_random_vertices_flip_fair_coins(self):
        out = zwick_paterson(example_graph())
        assert validate_graph(out).ok
        for v in out.random_vertices:
            probs = sorted(e.prob for e in out.out_edges[v])
            assert probs == [HALF, HALF]

    def test_example_operator_preserved(self):
        g = example_graph()
        out = zwick_paterson(g)
        for i in range(100):
            x = sample_vector(rng_for(71, i), 3, 6, 8)
            assert eval_operator(out, x) == eval_operator(g, x)

    def test_fair_coin_vertex_untouched(self):
        g = GameGraph(
            (1,), (2, 4), (3,),
            (
                Edge(1, 1, 3, payoff=F(0)),
                Edge(2, 3, 2, prob=HALF),
                Edge(3, 3, 4, prob=HALF),
                Edge(4, 2, 1, payoff=F(1)),
                Edge(5, 4, 1, payoff=F(0)),
            ),
        )
        out, records = zwick_paterson_with_gadgets(g)
        assert records == ()
        assert out.to_json() == g.to_json()

    def test_one_third_gadget(self):
        g = third_graph()
        out, records = zwick_paterson_with_gadgets(g)
        (rec,) = records
        assert rec.q == F(1, 3)
        assert rec.r == 1
        # 2^r <= b < 2^(r+1) yields r extra top and r+1 bottom vertices.
        assert len(rec.new_vertices) == 2 * rec.r + 1
        assert gadget_exit_probability(out, rec) == F(1, 3)
        # The absorption row of the Min edge into the gadget is unchanged.
        rows = fraction_absorption_rows(out)
        assert rows[1].get(2, 0) == F(1, 3)
        assert rows[1].get(4, 0) == F(2, 3)
        for i in range(100):
            x = sample_vector(rng_for(73, i), 1, 6, 8)
            assert eval_operator(out, x) == eval_operator(g, x)

    def test_denominator_bits_bounded(self):
        # A gadget has about 2 Random vertices per bit of its denominator,
        # and pipeline time grows with about the square of the bit length: 64
        # bits are taken, 65 are refused before the vertex's gadget is built.
        _, (rec,) = zwick_paterson_with_gadgets(biased_graph(F(1, 2**64 - 159)))
        assert rec.r == 63
        wide = biased_graph(F(1, 2**65 - 159))
        for stage in (zwick_paterson_with_gadgets, pipeline):
            with pytest.raises(PreconditionViolated, match="Random vertex 3 has a 65-bit"):
                stage(wide)

    def test_degree_one_random_removed(self):
        g = GameGraph(
            (1,), (2,), (3,),
            (
                Edge(1, 1, 3, payoff=F(2)),
                Edge(2, 3, 2, prob=F(1)),
                Edge(3, 2, 1, payoff=F(-1)),
            ),
        )
        out = zwick_paterson(g)
        assert out.random_vertices == ()
        for i in range(50):
            x = sample_vector(rng_for(79, i), 1, 6, 8)
            assert eval_operator(out, x) == eval_operator(g, x)

    @pytest.mark.parametrize(
        "build, digest",
        [
            (chain_graph, "819c5d17a7a9d243d2fd41c1b02585047ba48e0f0999fab002da849f6b1bf5cb"),
            (fan_graph, "df7c417778203407cc46494a137f1036143e3fc1c9a9079aa9b6b0afa2f5cf64"),
        ],
        ids=["chain", "fan"],
    )
    def test_hand_built_stages(self, build, digest):
        # Digests of the output JSON, recorded before the stages became
        # single-pass: the ids and the edge order must not move.
        g = build()
        out = zwick_paterson(g)
        text = json.dumps(out.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        for v in out.random_vertices:
            assert [e.prob for e in out.out_edges[v]] == [HALF, HALF]
        for i in range(50):
            x = sample_vector(rng_for(89, i), g.n, 6, 8)
            assert eval_operator(out, x) == eval_operator(g, x)

    def test_chain_bypassed_to_first_kept_vertex(self):
        out = zwick_paterson(chain_graph())
        edges = {e.id: e for e in out.edges}
        # Vertices 5, 6 and 8 are bypassed, and so their sole out-edges
        # 5, 6 and 8 are gone; edges into the chains head Min 1 and vertex 7.
        assert not {5, 6, 8} & set(out.random_vertices)
        assert not {5, 6, 8} & set(edges)
        assert (edges[3].head, edges[7].head) == (1, 7)

    def test_random_graphs_preserved_with_exact_gadget_probabilities(self):
        for trial in range(6):
            rng = rng_for(83, trial)
            g = random_valid_graph(rng)
            out, records = zwick_paterson_with_gadgets(g)
            assert validate_graph(out).ok
            for rec in records:
                assert len(rec.new_vertices) == 2 * rec.r + 1
                if rec.head_a != rec.head_b:
                    assert gadget_exit_probability(out, rec) == rec.q
            for i in range(50):
                x = sample_vector(rng_for(89 + trial, i), g.n, 6, 8)
                assert eval_operator(out, x) == eval_operator(g, x)


class TestFirstTransformation:
    def test_lift_projects_back(self):
        g = example_graph()
        out, witness = first_transformation(g)
        assert validate_graph(out).ok
        x = (F(1), F(-2), F(1, 2))
        assert witness.project(witness.lift(x)) == x
        assert witness.source_dim + len(witness.rows) == out.n
        assert witness.source_dim == g.n

    def test_subfixed_equivalence_through_lift(self):
        g = example_graph()
        out, witness = first_transformation(g)
        for i in range(200):
            x = sample_vector(rng_for(97, i), 3, 5, 8)
            assert subfixed(g, x) == subfixed(out, witness.lift(x))

    def test_target_subfixed_projects_to_source_subfixed(self):
        g = example_graph()
        out, witness = first_transformation(g)
        checked = 0
        for i in range(300):
            rng = rng_for(101, i)
            if i % 2:
                xp = sample_vector(rng, out.n, 5, 8)
            else:
                xp = witness.lift(sample_vector(rng, g.n, 5, 8))
            if subfixed(out, xp):
                checked += 1
                assert subfixed(g, witness.project(xp))
        assert checked > 0

    def test_new_coordinate_per_max_edge(self):
        g = example_graph()
        out, witness = first_transformation(g)
        max_out = [e for e in g.edges if g.kind[e.tail] == "max"]
        assert out.n == g.n + len(max_out)
        assert len(witness.new_coords) == len(max_out)

    def test_witness_folds_buffer_vertices_onto_min_heads(self):
        # Random 20 has two edges into Min 1, so two of the three Max
        # buffer vertices before its Min heads are single terms on
        # coordinate 0, which the lift's plan folds into one weight.
        g = GameGraph(
            (1, 2), (10,), (20,),
            (
                Edge(1, 1, 10, payoff=F(0)),
                Edge(2, 2, 10, payoff=F(1)),
                Edge(3, 10, 20, payoff=F(2)),
                Edge(4, 20, 1, prob=F(1, 4)),
                Edge(5, 20, 2, prob=F(1, 4)),
                Edge(6, 20, 1, prob=F(1, 2)),
            ),
        )
        out, witness = first_transformation(g)
        assert validate_graph(out).ok
        (row,) = fraction_witness_rows(witness)
        assert len(row) == 3
        sums = {}
        for p, ((c, i),) in row:
            assert c == 0
            sums[i] = sums.get(i, 0) + p
        assert sums == {0: F(3, 4), 1: F(1, 4)}
        ((den, const, singles, multis),) = witness._plan[1]
        assert (den, const, multis) == (4, 0, ())
        assert sorted(singles) == [(1, 1), (3, 0)]
        for i in range(20):
            x = sample_vector(rng_for(233, i), g.n, 5, 6)
            assert witness.lift(x) == fraction_lift(witness, x)
            assert subfixed(g, x) == subfixed(out, witness.lift(x))


class TestSecondTransformation:
    def _prepared(self):
        out, _ = first_transformation(zwick_paterson(example_graph()))
        return out

    def test_requires_random_random_edge(self):
        g = example_graph()
        with pytest.raises(PreconditionViolated):
            second_transformation(g, 1)

    def test_requires_max_edges_into_min(self):
        g = zwick_paterson(example_graph())
        rr = next(
            e for e in g.edges
            if g.kind[e.tail] == "random" and g.kind[e.head] == "random"
        )
        with pytest.raises(PreconditionViolated):
            second_transformation(g, rr.id)

    def test_splits_edge_and_preserves_subfixed(self):
        g = self._prepared()
        rr = next(
            e for e in g.edges
            if g.kind[e.tail] == "random" and g.kind[e.head] == "random"
        )
        out, witness = second_transformation(g, rr.id)
        assert validate_graph(out).ok
        assert out.n == g.n + 1
        assert all(e.id != rr.id for e in out.edges)
        for i in range(100):
            x = sample_vector(rng_for(103, i), g.n, 4, 6)
            lifted = witness.lift(x)
            assert witness.project(lifted) == tuple(x)
            assert subfixed(g, x) == subfixed(out, lifted)

    def test_unknown_edge(self):
        with pytest.raises(PreconditionViolated):
            second_transformation(self._prepared(), 10**6)

    @pytest.mark.parametrize("edge_id", [53.0, True])
    def test_edge_id_is_an_int(self, edge_id):
        # Edge 53 joins Random 21 to Random 25; a float or a bool is not its
        # id, and the one integer check refuses both.
        g = self._prepared()
        assert any(e.id == 53 and g.kind[e.tail] == g.kind[e.head] == "random" for e in g.edges)
        with pytest.raises(ValueError, match="expected an integer"):
            second_transformation(g, edge_id)

    def test_target_subfixed_projects_back(self):
        g = self._prepared()
        rr = next(
            e for e in g.edges
            if g.kind[e.tail] == "random" and g.kind[e.head] == "random"
        )
        out, witness = second_transformation(g, rr.id)
        checked = 0
        for i in range(200):
            rng = rng_for(107, i)
            if i % 2:
                xp = sample_vector(rng, out.n, 4, 6)
            else:
                xp = witness.lift(sample_vector(rng, g.n, 4, 6))
            if subfixed(out, xp):
                checked += 1
                assert subfixed(g, witness.project(xp))
        assert checked > 0


class TestPipeline:
    def test_example_becomes_compliant(self):
        out, witness = pipeline(example_graph())
        assert is_compliant(out)
        assert validate_graph(out).ok
        assert witness.source_dim == 3
        assert witness.source_dim + len(witness.rows) == out.n

    def test_compliant_input_is_identity(self):
        g = GameGraph(
            (1,), (2, 4), (3,),
            (
                Edge(1, 1, 3, payoff=F(0)),
                Edge(2, 3, 2, prob=HALF),
                Edge(3, 3, 4, prob=HALF),
                Edge(4, 2, 1, payoff=F(1)),
                Edge(5, 4, 1, payoff=F(0)),
            ),
        )
        out, witness = pipeline(g)
        assert out is g
        x = (F(5, 3),)
        assert witness.lift(x) == x

    def test_subfixed_equivalence_example(self):
        g = example_graph()
        out, witness = pipeline(g)
        for i in range(200):
            x = sample_vector(rng_for(109, i), 3, 5, 8)
            assert subfixed(g, x) == subfixed(out, witness.lift(x))

    def test_subfixed_equivalence_random_graphs(self):
        for trial in range(4):
            g = random_valid_graph(rng_for(113, trial))
            out, witness = pipeline(g)
            assert is_compliant(out)
            for i in range(50):
                x = sample_vector(rng_for(127 + trial, i), g.n, 5, 6)
                assert subfixed(g, x) == subfixed(out, witness.lift(x))

    def test_output_not_compliant_raises(self, monkeypatch):
        # The check on pipeline's output is a raise, not an assert, so it
        # holds under python -O.
        monkeypatch.setattr(transforms_module, "_split", lambda g, ids: (g, WitnessMap("t2", g.n)))
        with pytest.raises(NotCompliant):
            pipeline(example_graph())

    def test_lift_checks_dimension(self):
        _, witness = pipeline(example_graph())
        for x in ((F(0),) * 2, (F(0),) * 4):
            with pytest.raises(DimensionMismatch):
                witness.lift(x)


class TestIntegerLift:
    """WitnessMap.lift's integer plan against row-by-row Fraction arithmetic."""

    @pytest.mark.parametrize("den", [1, 7, 64])
    def test_matches_fraction_lift(self, den):
        graphs = [example_graph(), denominator_five_graph()]
        graphs += [graph_from_minmax(random_minmax(rng_for(211, t), n=3, denom=64)) for t in range(2)]
        for g in graphs:
            _, witness = pipeline(g)
            for i in range(20):
                rng = rng_for(223 + den, i)
                x = tuple(F(rng.randint(-6 * den, 6 * den), den) for _ in range(g.n))
                lifted = witness.lift(x)
                assert lifted == fraction_lift(witness, x)
                assert all(type(v) is F for v in lifted)

    def test_denominator_grows(self):
        # y2 = x0 / 3 + 2/3 max(x0 + 1/2, x1 - 4) and
        # y3 = (y2 + 1/2) / 5 + 4/5 (y2 - 1): at 0 the running denominator
        # goes from 2 to 6 to 30. Integer and Fraction inputs mix.
        witness = WitnessMap("test", 2, (
            (3, ((1, ((F(0), 0),)), (2, ((F(1, 2), 0), (F(-4), 1))))),
            (5, ((1, ((F(1, 2), 2),)), (4, ((F(-1), 2),)))),
        ))
        for x in ((0, 0), (F(5, 4), 3), (-7, F(-1, 9))):
            lifted = witness.lift(x)
            assert lifted == fraction_lift(witness, x)
            assert all(type(v) is F for v in lifted)
        assert witness.lift((0, 0)) == (0, 0, F(1, 3), F(-11, 30))

    def test_multi_term_rows(self):
        # A Random edge into Max vertex 3 of two out-edges: splitting the
        # Random-to-Random edges gives rows whose pairs take the max of two
        # terms, which no generated Tier-1 graph has.
        _, witness = pipeline(multi_term_graph())
        assert any(len(terms) > 1 for _, row in witness.rows for _, terms in row)
        for i in range(40):
            x = sample_vector(rng_for(227, i), 2, 6, 8)
            lifted = witness.lift(x)
            assert lifted == fraction_lift(witness, x)
            assert witness.project(lifted) == x

    def test_plan_holds_one_single_term_per_coordinate(self):
        # A row's single-term pairs on one coordinate, from buffer vertices
        # before one Min head or Max vertices of one out-edge, add up to
        # one weight in the plan: their N summed per coordinate.
        graphs = [graph_instance(0, shape, index).fresh() for shape, indices in BENCHMARK_RUNGS for index in indices]
        graphs += [random_valid_graph(rng_for(239, t)) for t in range(200)]
        shared = 0
        for g in graphs:
            _, witness = pipeline(g)
            for (_, row), (_, _, singles, _) in zip(witness.rows, witness._plan[1]):
                coords = [i for _, i in singles]
                assert len(coords) == len(set(coords))
                sums = {}
                for q, terms in row:
                    if len(terms) == 1:
                        sums[terms[0][1]] = sums.get(terms[0][1], 0) + q
                assert dict((i, q) for q, i in singles) == sums
                shared += sum(len(terms) == 1 for _, terms in row) > len(singles)
        assert shared > 0


def _boxed(point) -> tuple:
    return tuple(NEG_INF if v is None else Trop(v) for v in point)


class TestLiftOnTn:
    """The lift on T^n: a -inf coordinate lifts as None, a row is -inf when
    a single-term pair or a whole max is, and the lift keeps membership:
    subfixed(g, x) == subfixed(target, lift(x)) == pencil_member(cone,
    lift(x)) on the example, the multi-term graph and seeded random graphs,
    at points with -inf coordinates."""

    def _cases(self):
        graphs = [example_graph(), multi_term_graph()]
        graphs += [random_valid_graph(rng_for(777, t)) for t in range(40)]
        for t, g in enumerate(graphs):
            target, witness = pipeline(g)
            points = [sample_trop_vector(rng_for(787 + t, i), g.n, 5, 6, 0.35) for i in range(20)]
            yield g, target, witness, points

    def test_matches_boxed_lift(self):
        partial = 0  # rows that stay finite with a max over some -inf terms
        for g, _, witness, points in self._cases():
            for x in points + [(NEG_INF,) * g.n]:
                lifted = witness.lift(x)
                assert _boxed(lifted) == trop_lift(witness, x)
                for (_, row), v in zip(witness.rows, lifted[g.n:]):
                    tops = [[lifted[i] is None for _, i in terms] for _, terms in row if len(terms) > 1]
                    partial += v is not None and any(any(t) and not all(t) for t in tops)
            assert witness.lift((None,) * g.n) == (None,) * (g.n + len(witness.rows))
        assert partial > 0

    def test_keeps_membership(self):
        seen = set()
        for g, target, witness, points in self._cases():
            cone = synthesize_cone(target)
            for x in points:
                lifted = witness.lift(x)
                inside = subfixed(g, x)
                assert subfixed(target, lifted) is inside
                assert pencil_member(cone, lifted) is inside
                if any(v.is_neg_inf for v in x):
                    seen.add((inside, any(not v.is_neg_inf for v in x)))
        assert seen == {(True, True), (False, True), (True, False)}


class TestOnePassSplit:
    """`pipeline` splits every Random-to-Random edge in one pass; splitting
    them one at a time must give the same graph and the same lift."""

    def _check(self, g, seed):
        out, witness = pipeline(g)
        ref, ref_lift = sequential_pipeline(g)
        assert json.dumps(out.to_json()) == json.dumps(ref.to_json())
        assert witness.source_dim + len(witness.rows) == ref.n
        for i in range(10):
            x = sample_vector(rng_for(seed, i), g.n, 5, 6)
            assert witness.lift(x) == ref_lift(x)

    def test_example(self):
        self._check(example_graph(), 151)

    def test_random_graphs(self):
        for trial in range(10):
            self._check(random_valid_graph(rng_for(157, trial)), 163 + trial)

    def test_denominator_five_graph(self):
        self._check(denominator_five_graph(), 173)

    def test_one_absorption_solve(self, monkeypatch):
        # Each solve finds the Random components once; the first
        # transformation and the split both read the table of the first
        # transformation's output, computed on it.
        calls = []
        components = graph_module._random_components

        def counting(g):
            calls.append(g)
            return components(g)

        monkeypatch.setattr(graph_module, "_random_components", counting)
        for g in (example_graph(), denominator_five_graph(), random_valid_graph(rng_for(157, 0))):
            calls.clear()
            out, _ = pipeline(g)
            assert is_compliant(out)
            assert len(calls) == 1

    def test_each_graph_validated_once(self, monkeypatch):
        # The input, the Zwick-Paterson graph, the t1 graph and the output.
        calls = []
        validate = graph_module.validate_graph

        def counting(g):
            calls.append(g)
            return validate(g)

        monkeypatch.setattr(graph_module, "validate_graph", counting)
        out, _ = pipeline(example_graph())
        assert is_compliant(out)
        assert len(calls) == 4
        assert len({id(g) for g in calls}) == len(calls)


class TestBuiltGraphsReadBack:
    """Every builder's graph passes the checked constructor with ints and
    Fractions only, so its file reads back to the same fields."""

    @staticmethod
    def _check(g):
        for out in (zwick_paterson(g), first_transformation(g)[0], pipeline(g)[0]):
            back = GameGraph.from_json(json.loads(json.dumps(out.to_json())))
            for field in ("min_vertices", "max_vertices", "random_vertices", "edges"):
                assert getattr(back, field) == getattr(out, field), field

    def test_benchmark_graphs(self):
        for shape, indices in BENCHMARK_RUNGS:
            for index in indices:
                self._check(graph_instance(0, shape, index).fresh())
        self._check(example_graph())

    def test_random_graphs(self):
        for trial in range(200):
            self._check(random_valid_graph(rng_for(331, trial)))
