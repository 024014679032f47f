"""Metzler pencils: membership, synthesis from compliant graphs, and
tropical convex hulls, unions and strata among them, as generator pencils."""

import json
from fractions import Fraction
from itertools import product

import pytest

from support import (
    denominator_five_graph,
    hull_member,
    hull_member_bruteforce,
    placed,
    random_compliant_graph,
    residual_coefficient,
    tadd,
    tmul,
    trop_pencil_member,
)
from tropcone.errors import DimensionMismatch, NotCompliant, PreconditionViolated
from tropcone.fixtures import example_graph
from tropcone.graph import Edge, GameGraph, subfixed
from tropcone.pencil import (
    MetzlerPencil,
    ProjectedPencil,
    TropPointSet,
    affine_envelope,
    eval_compliant_operator,
    pencil_from_generators,
    pencil_member,
    subfixed_extended,
    synthesize_cone,
)
from tropcone.sampling import rng_for, sample_vector, sample_trop_vector
from tropcone.scalars import NEG_INF, SignedTrop, Trop
from tropcone.transforms import pipeline

F = Fraction
T = Trop
Z = Trop(0)


def one_edge_graph(c):
    return GameGraph(
        (1,), (2,), (),
        (Edge(1, 1, 2, payoff=F(0)), Edge(2, 2, 1, payoff=F(c))),
    )


def out_of_order_graph(first, second):
    """A compliant graph listing edges out of id order: Random 21's coin
    lists edge 10 (to Max 12) before edge 9 (to Max 11), and Max 11 reaches
    Min 1 by edge 7 (payoff `first`) listed before edge 5 (payoff
    `second`)."""
    return GameGraph(
        (1, 2), (11, 12), (21,),
        (
            Edge(1, 1, 21, payoff=F(0)),
            Edge(2, 2, 11, payoff=F(1)),
            Edge(3, 2, 21, payoff=F(-1, 2)),
            Edge(7, 11, 1, payoff=first),
            Edge(5, 11, 1, payoff=second),
            Edge(6, 11, 2, payoff=F(0)),
            Edge(8, 12, 2, payoff=F(-1)),
            Edge(4, 12, 1, payoff=F(3, 4)),
            Edge(10, 21, 12, prob=F(1, 2)),
            Edge(9, 21, 11, prob=F(1, 2)),
        ),
    )


def halfspace_pencil():
    """m=2, n=2 pencil whose members are exactly {x1 + x2 >= 0}."""
    return MetzlerPencil(
        2, 2,
        {
            (0, 0): {1: SignedTrop.pos(0)},
            (1, 1): {2: SignedTrop.pos(0)},
            (0, 1): {0: SignedTrop.neg(0)},
        },
    )


class TestMembership:
    def test_positive_diagonal_accepts_everything(self):
        p = MetzlerPencil(2, 2, {(0, 0): {1: SignedTrop.pos(0)}, (1, 1): {0: SignedTrop.pos(3)}})
        for x in ((Z, Z), (T(-100), T(5)), (NEG_INF, NEG_INF)):
            assert pencil_member(p, x)

    def test_halfspace_pencil(self):
        p = halfspace_pencil()
        assert pencil_member(p, (T(1), T(-1)))
        assert not pencil_member(p, (Z, T(-1)))
        assert pencil_member(p, (T(F(1, 3)), T(F(-1, 3))))
        assert not pencil_member(p, (NEG_INF, T(5)))

    def test_dimension_mismatch(self):
        for x in ((Z,), (Z, Z, Z)):
            with pytest.raises(DimensionMismatch):
                pencil_member(halfspace_pencil(), x)

    def test_off_diagonal_sign_enforced(self):
        with pytest.raises(ValueError):
            MetzlerPencil(2, 1, {(0, 1): {1: SignedTrop.pos(0)}})

    def test_empty_entry_refused(self):
        # A file holds no cell for an entry without coefficients, so it would
        # not survive to_json and from_json.
        with pytest.raises(ValueError, match="no coefficient"):
            MetzlerPencil(1, 1, {(0, 0): {}})
        with pytest.raises(ValueError, match="no coefficient"):
            MetzlerPencil(2, 1, {(0, 0): {1: SignedTrop.pos(0)}, (0, 1): {}})

    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 0): {True: SignedTrop.pos(0)}},
            {(0, 0): {1.0: SignedTrop.pos(0)}},
            {(0.0, 0.0): {1: SignedTrop.pos(0)}},
            {(False, 0): {1: SignedTrop.pos(0)}},
        ],
        ids=["bool-index", "float-index", "float-key", "bool-key"],
    )
    def test_keys_and_indices_are_ints(self, entries):
        # Each of these answered membership and wrote a cell that from_json
        # refuses, such as [0, 0, true, 1, "0/1"].
        with pytest.raises(ValueError, match="expected an integer"):
            MetzlerPencil(1, 1, entries)

    @pytest.mark.parametrize("c", [T(0), F(0), 0, (1, T(0))], ids=["trop", "fraction", "int", "tuple"])
    def test_coefficients_are_signed(self, c):
        with pytest.raises(ValueError, match="not a SignedTrop"):
            MetzlerPencil(1, 1, {(0, 0): {1: c}})

    def test_json_round_trip(self):
        p = synthesize_cone(pipeline(example_graph())[0])
        assert MetzlerPencil.from_json(p.to_json()).entries == p.entries
        back = MetzlerPencil.from_json(p.to_json())
        assert back.to_json() == p.to_json()
        for i in range(20):
            x = sample_trop_vector(rng_for(131, i), p.n, 5, 6)
            assert pencil_member(back, x) == pencil_member(p, x)


def _example_cone():
    return synthesize_cone(pipeline(example_graph())[0])


def _two_axis_strata():
    gens = placed(2, [((0,), ((T(0),), (T(3),))), ((1,), ((T(-1),), (T(2),)))])
    return pencil_from_generators(TropPointSet(2, gens))


PENCILS = {
    "synthesize_cone": _example_cone,
    "random_compliant": lambda: synthesize_cone(random_compliant_graph(rng_for(149, 0))),
    "affine_envelope": lambda: affine_envelope(_example_cone()),
    "union": lambda: pencil_from_generators(TropPointSet(2, ((Z, T(1)), (T(2), NEG_INF)))).pencil,
    "strata": lambda: _two_axis_strata().pencil,
}


class TestPencilFile:
    @pytest.mark.parametrize("name", sorted(PENCILS))
    def test_round_trip_is_exact(self, name):
        p = PENCILS[name]()
        obj = json.loads(json.dumps(p.to_json()))
        back = MetzlerPencil.from_json(obj)
        assert (back.m, back.n, back.entries) == (p.m, p.n, p.entries)
        assert back.to_json() == obj

    def test_only_nonzero_cells_sorted(self):
        p = _example_cone()
        cells = p.to_json()["entries"]
        assert len(cells) == sum(len(entry) for entry in p.entries.values())
        keys = [tuple(cell[:3]) for cell in cells]
        assert keys == sorted(set(keys))
        assert all(cell[3] in (-1, 1) for cell in cells)

    def test_dense_form_refused(self):
        # The dense "matrices" form of earlier versions is no longer read,
        # even when it is well formed or comes with "entries".
        one = [[{"sign": 1, "abs": "0/1"}]]
        for obj in (
            {"m": 1, "n": 0, "matrices": [one]},
            {**halfspace_pencil().to_json(), "matrices": []},
        ):
            with pytest.raises(ValueError, match="no longer read"):
                MetzlerPencil.from_json(obj)

    @pytest.mark.parametrize(
        "m, n", [(2.0, True), (-1, 2), (1, -1), ("1", 1)],
        ids=["float-bool", "negative-m", "negative-n", "string-m"],
    )
    def test_constructor_checks_sizes_as_the_reader_does(self, m, n):
        # A size the reader refuses is refused when the pencil is built, so
        # no pencil answers queries and writes a file it cannot read back.
        with pytest.raises(ValueError):
            MetzlerPencil(m, n, {})
        with pytest.raises(ValueError):
            MetzlerPencil.from_json({"m": m, "n": n, "entries": []})

    @pytest.mark.parametrize(
        "cell",
        [[0, 0, 1, 0, "-inf"], [0, 0, 1, 0, "0"], [0, 0, 1, 1, "-inf"]],
        ids=["sign-0-inf", "sign-0-finite", "sign-1-inf"],
    )
    def test_zero_coefficient_refused(self, cell):
        # A tropically zero coefficient is absent from the file, never signed.
        with pytest.raises(ValueError):
            MetzlerPencil.from_json({"m": 1, "n": 1, "entries": [cell]})


class TestSynthesis:
    def test_rejects_noncompliant_graph(self):
        with pytest.raises(NotCompliant):
            synthesize_cone(example_graph())

    @pytest.mark.parametrize("c", [F(1, 2), F(0), F(-1, 3)])
    def test_one_edge_cone(self, c):
        p = synthesize_cone(one_edge_graph(c))
        assert p.is_cone
        for x in (T(0), T(7), T(F(-5, 3))):
            assert pencil_member(p, (x,)) == (c >= 0)
        assert pencil_member(p, (NEG_INF,))

    def test_membership_shift_invariant(self):
        g = random_compliant_graph(rng_for(137, 0))
        p = synthesize_cone(g)
        assert p.is_cone
        for i in range(40):
            rng = rng_for(139, i)
            x = sample_vector(rng, g.n, 5, 6)
            lam = F(rng.randint(-30, 30), rng.randint(1, 6))
            shifted = tuple(v + lam for v in x)
            assert pencil_member(p, x) == pencil_member(p, shifted)

    @pytest.mark.parametrize("name", ["example", "denominator_five"])
    def test_lift_membership_shift_invariant(self, name):
        # The cone pencil is homogeneous: shifting a lift by lam keeps its
        # answer, and both answers are subfixed's at the source point. Twenty
        # points on each side; the denominator-five set is thin, about one
        # sample in a hundred.
        g = example_graph() if name == "example" else denominator_five_graph()
        target, witness = pipeline(g)
        p = synthesize_cone(target)
        counts = {True: 0, False: 0}
        for i in range(4000):
            rng = rng_for(199, i)
            x = sample_vector(rng, g.n, 5, 8)
            want = subfixed(g, x)
            if counts[want] == 20:
                continue
            counts[want] += 1
            y = witness.lift(x)
            lam = F(rng.randint(-30, 30), rng.randint(1, 6))
            assert pencil_member(p, y) == want
            assert pencil_member(p, tuple(v + lam for v in y)) == want
        assert counts == {True: 20, False: 20}

    def test_matches_subfixed_on_random_compliant_graphs(self):
        for trial in range(6):
            g = random_compliant_graph(rng_for(149, trial))
            p = synthesize_cone(g)
            for i in range(100):
                x = sample_vector(rng_for(151 + trial, i), g.n, 5, 6)
                want = subfixed(g, x)
                assert pencil_member(p, x) == want
                assert subfixed_extended(g, x) == want

    def test_matches_extended_operator_at_minus_inf_points(self):
        for trial in range(6):
            g = random_compliant_graph(rng_for(157, trial))
            p = synthesize_cone(g)
            for i in range(50):
                x = sample_trop_vector(rng_for(163 + trial, i), g.n, 5, 6, 0.4)
                assert pencil_member(p, x) == subfixed_extended(g, x)

    @pytest.mark.parametrize("first, second", [(F(1, 3), F(2)), (F(2), F(2))], ids=["smaller-first", "equal"])
    def test_edge_order_does_not_matter(self, first, second):
        # A coin's Max pair is taken in id order, and a Max polynomial keeps
        # the largest payoff per Min coordinate, whatever the list order.
        g = out_of_order_graph(first, second)
        by_id = GameGraph(g.min_vertices, g.max_vertices, g.random_vertices, tuple(sorted(g.edges, key=lambda e: e.id)))
        assert g.compliant and by_id.compliant and g.edges != by_id.edges
        cone = synthesize_cone(g)
        assert cone.to_json() == synthesize_cone(by_id).to_json()
        # Min 1's edge into the coin gives rows 0 and 1: Max 11 (edge 9), then Max 12.
        assert cone.entries[(0, 0)] == {1: SignedTrop.pos(2), 2: SignedTrop.pos(0)}
        assert cone.entries[(1, 1)] == {2: SignedTrop.pos(-1), 1: SignedTrop.pos(F(3, 4))}

    def test_extended_operator_absorbs_minus_inf(self):
        g = one_edge_graph(F(2))
        assert eval_compliant_operator(g, (NEG_INF,)) == (NEG_INF,)
        assert eval_compliant_operator(g, (T(1),)) == (T(3),)


def _pipeline_points(g, seed):
    """Lifts through the pipeline of g of ten subfixed and ten other sampled
    source points: its cone pencil, its envelope, and each lift as a cone
    point and an envelope point. Lifts of subfixed points are tight: a pencil
    row holds with equality."""
    target, witness = pipeline(g)
    cone = synthesize_cone(target)
    env = affine_envelope(cone)
    chosen = {True: [], False: []}
    for i in range(4000):
        x = sample_vector(rng_for(seed, i), g.n, 5, 8)
        side = chosen[subfixed(g, x)]
        if len(side) < 10:
            side.append(x)
    lifts = [witness.lift(x) for x in chosen[True] + chosen[False]]
    return cone, env, lifts, [y + tuple(-v for v in y) for y in lifts]


def _variants(point, k):
    """point, coordinate k raised by 1/7, coordinate k at -inf, and the
    point with int, Fraction and Trop coordinates mixed."""
    point = tuple(c.finite if isinstance(c, Trop) and not c.is_neg_inf else c for c in point)
    raised, lowered = list(point), list(point)
    if raised[k] is not NEG_INF:
        raised[k] += F(1, 7)
    lowered[k] = NEG_INF
    mixed = [
        c if c is NEG_INF
        else T(c) if t % 3 == 0
        else int(c) if c.denominator == 1
        else c
        for t, c in enumerate(point)
    ]
    return [point, tuple(raised), tuple(lowered), tuple(mixed)]


def _kernel_cases():
    cases = {}
    for name, g in (("example", example_graph()), ("denominator_five", denominator_five_graph())):
        cone, env, lifts, doubled = _pipeline_points(g, 181)
        cases[f"{name}_cone"] = (cone, lifts)
        cases[f"{name}_envelope"] = (env, doubled)
    cone, env, _, doubled = _pipeline_points(example_graph(), 191)
    (i, j), entry = next((key, e) for key, e in env.entries.items() if key[0] == key[1])
    k, c = next(iter(entry.items()))
    corrupted = dict(env.entries)
    corrupted[(i, j)] = {**entry, k: SignedTrop(c.sign, tmul(c.modulus, T(F(1, 3))))}
    cases["corrupted_envelope"] = (MetzlerPencil(env.m, env.n, corrupted), doubled)
    single = (T(F(3, 4)), NEG_INF, T(-2))
    point = pencil_from_generators(TropPointSet(3, (single,)))
    cases["singleton"] = (
        point.pencil,
        [point.lift(y) for y in (single, (T(1), NEG_INF, T(-2)), (T(0), T(0), T(0)))],
    )
    strata = [((0,), ((T(0),), (T(F(7, 3)),))), ((1,), ((T(-1),), (T(2),)))]
    for name, gens in (
        ("union", ((Z, T(F(1, 5))), (T(2), NEG_INF))),
        ("strata", placed(2, strata, bottom=True)),
    ):
        pp = pencil_from_generators(TropPointSet(2, gens))
        visible = [sample_trop_vector(rng_for(197, i), 2, 3, 6, 0.3) for i in range(40)]
        visible += list(pp.gens.points)
        cases[name] = (pp.pencil, [pp.lift(y) for y in visible])
    return cases


KERNEL_CASE_NAMES = (
    "corrupted_envelope",
    "denominator_five_cone",
    "denominator_five_envelope",
    "example_cone",
    "example_envelope",
    "singleton",
    "strata",
    "union",
)


@pytest.fixture(scope="module")
def kernel_cases():
    cases = _kernel_cases()
    assert sorted(cases) == list(KERNEL_CASE_NAMES)
    return cases


class TestIntegerKernel:
    """pencil_member's integer plan against boxed Trop evaluation."""

    @pytest.mark.parametrize("name", KERNEL_CASE_NAMES)
    def test_matches_trop_evaluation(self, kernel_cases, name):
        pencil, points = kernel_cases[name]
        answers = set()
        for t, point in enumerate(points):
            for x in _variants(point, t % len(point)):
                want = trop_pencil_member(pencil, x)
                assert pencil_member(pencil, x) == want, x
                answers.add(want)
        assert answers == {True, False}

    def test_plan_is_built_once_per_pencil(self, kernel_cases):
        pencil, points = kernel_cases["example_envelope"]
        fresh = MetzlerPencil(pencil.m, pencil.n, pencil.entries)
        assert "_plan" not in vars(fresh)
        pencil_member(fresh, points[0])
        plan = fresh._plan
        pencil_member(fresh, points[1])
        assert fresh._plan is plan


def _grid(n):
    """Every point of {-inf, -1, 0, 1/2, 2}^n."""
    return product((NEG_INF, T(-1), Z, T(F(1, 2)), T(2)), repeat=n)


class TestDistinctRowPlan:
    """The plan: a row with a one-term plus part is read from the point's
    own slot, any other row an off-diagonal reads gets one appended slot per
    distinct plus part, the rows with minus terms are checked on every
    query, and each off-diagonal term is one minor; each case against
    `trop_pencil_member`, at points with -inf coordinates among them."""

    def _check(self, pencil, points):
        answers = set()
        for x in points:
            want = trop_pencil_member(pencil, x)
            assert pencil_member(pencil, x) == want, x
            answers.add(want)
        assert answers == {True, False}

    def test_duplicate_rows_under_different_off_diagonals(self):
        # Rows 0 and 2 are both x1 (+) 1 x2 and rows 1 and 3 both x3; the
        # two off-diagonals bound them by x1 and by x2 - 1/3. The two-term
        # row has one appended slot, 4, which both minors read.
        row, other = {1: SignedTrop.pos(0), 2: SignedTrop.pos(1)}, {3: SignedTrop.pos(0)}
        pencil = MetzlerPencil(4, 3, {
            (0, 0): row, (1, 1): other, (2, 2): dict(row), (3, 3): dict(other),
            (0, 1): {1: SignedTrop.neg(0)}, (2, 3): {2: SignedTrop.neg(F(-1, 3))},
        })
        _, extra, _, minors = pencil._plan
        assert len(extra) == 1 and sorted(a for a, _, _, _ in minors) == [4, 4]
        self._check(pencil, _grid(3))

    def test_minus_rows_no_off_diagonal_reads_still_reject(self):
        # A singleton and a union are generator pencils, with no off-diagonal
        # at all, so no minor reads a row with minus terms and no row gets
        # an appended slot. Lowering a visible coordinate of a member breaks
        # only such rows.
        single = (T(F(3, 4)), NEG_INF, T(-2))
        point = pencil_from_generators(TropPointSet(3, (single,)))
        union = pencil_from_generators(TropPointSet(3, (single, (Z, Z, T(1)))))
        members = [union.lift(g) for g in union.gens.points]
        lowered = [
            tuple(T(c.finite - 1) if t == k else c for t, c in enumerate(y))
            for y in members
            for k in range(3)
            if not y[k].is_neg_inf
        ]
        for pp in (point, union):
            _, extra, checks, minors = pp.pencil._plan
            assert checks and extra == minors == ()
        self._check(point.pencil, [point.lift(y) for y in [*_grid(3), *point.gens.points]])
        self._check(union.pencil, members + lowered)
        assert not any(pencil_member(union.pencil, y) for y in lowered)

    def test_off_diagonal_whose_row_has_no_diagonal_entry(self):
        # Row 1 has no diagonal entry, so its plus part is -inf: members have
        # x2 = -inf, and x1 >= -1/2 from row 2.
        pencil = MetzlerPencil(3, 2, {
            (0, 0): {1: SignedTrop.pos(0)},
            (0, 1): {2: SignedTrop.neg(0)},
            (2, 2): {1: SignedTrop.pos(0), 0: SignedTrop.neg(F(-1, 2))},
        })
        self._check(pencil, _grid(2))
        assert pencil_member(pencil, (Z, NEG_INF))
        assert not pencil_member(pencil, (Z, Z))

    def test_example_envelope_rows(self):
        # Every envelope row and all but three distinct cone rows have a
        # one-term plus part; no row has minus terms; one minor per
        # off-diagonal term, 24 of the cone and 24 of the envelope.
        env = affine_envelope(synthesize_cone(pipeline(example_graph())[0]))
        _, extra, checks, minors = env._plan
        assert (env.m, len(extra), checks, len(minors)) == (96, 3, (), 48)
        assert all(len(terms) == 2 for terms in extra)


B64 = 2 ** 64 - 59

# Hand-built pencils in the file form, one per shape the plan treats
# apart; the CI step "Pencil answers" pins their answers over the same grid.
KERNEL_PENCILS = {
    # max(x1, x2 - 1/2) x3 >= max(x1 - 1, x2 + 1/3, x3)^2: three minors.
    "multi_term_off_diagonal": {"m": 2, "n": 3, "entries": [
        [0, 0, 1, 1, "0"], [0, 0, 2, 1, "-1/2"], [0, 1, 1, -1, "-1"], [0, 1, 2, -1, "1/3"],
        [0, 1, 3, -1, "0"], [1, 1, 3, 1, "0"],
    ]},
    # Row 2 has no diagonal entry and row 3 only a minus term, so both are
    # -inf: members have x2 = -inf.
    "row_without_diagonal": {"m": 4, "n": 3, "entries": [
        [0, 0, 1, 1, "0"], [0, 1, 3, -1, "1/2"], [0, 2, 2, -1, "0"], [0, 3, 2, -1, "-2"],
        [1, 1, 0, 1, "-1"], [1, 1, 3, 1, "0"], [3, 3, 2, -1, "0"],
    ]},
    # Row 0, max(x1, x2 + 1) >= x3, is checked and read by the minor.
    "plus_and_minus_row": {"m": 2, "n": 3, "entries": [
        [0, 0, 1, 1, "0"], [0, 0, 2, 1, "1"], [0, 0, 3, -1, "0"], [0, 1, 2, -1, "0"],
        [1, 1, 3, 1, "0"],
    ]},
    # Row 0 is the constant 1, read from slot 0, and row 1 is x2 + 1, read
    # from slot 2 with its constant; (0, 1) and (1, 2) have constant terms.
    "constant_terms": {"m": 3, "n": 3, "entries": [
        [0, 0, 0, 1, "1"], [0, 1, 0, -1, "-1/2"], [0, 1, 1, -1, "0"], [1, 1, 2, 1, "1"],
        [1, 2, 0, -1, "1"], [2, 2, 0, 1, "-1"], [2, 2, 3, 1, "0"],
    ]},
    # Rows 0 and 2 are both max(x1, x2 + 1): one appended slot.
    "shared_multi_term_row": {"m": 4, "n": 3, "entries": [
        [0, 0, 1, 1, "0"], [0, 0, 2, 1, "1"], [0, 1, 1, -1, "0"], [1, 1, 3, 1, "0"],
        [2, 2, 1, 1, "0"], [2, 2, 2, 1, "1"], [2, 3, 3, -1, "-1/3"], [3, 3, 2, 1, "0"],
    ]},
    "modulus_64_bit": {"m": 2, "n": 3, "entries": [
        [0, 0, 1, 1, f"1/{B64}"], [0, 1, 3, -1, f"{B64 - 1}/{B64}"], [1, 1, 2, 1, f"-1/{B64}"],
        [1, 1, 3, 1, "0"],
    ]},
}

# The plan of each: L, the appended plus parts, the (plus, minus) checks
# and the minors (a, b, k, K).
KERNEL_PLANS = {
    "multi_term_off_diagonal": (6, (((1, 0), (2, -3)),), (), ((4, 3, 1, -12), (4, 3, 2, 4), (4, 3, 3, 0))),
    "row_without_diagonal": (
        2, (((0, -2), (3, 0)), ()), (((), ((2, 0),)),), ((1, 4, 3, 2), (1, 5, 2, 0), (1, 5, 2, -8)),
    ),
    "plus_and_minus_row": (1, (((1, 0), (2, 1)),), ((((1, 0), (2, 1)), ((3, 0),)),), ((4, 3, 2, 0),)),
    "constant_terms": (2, (((0, -2), (3, 0)),), (), ((0, 2, 0, -6), (0, 2, 1, -4), (2, 4, 0, 2))),
    "shared_multi_term_row": (3, (((1, 0), (2, 3)),), (), ((4, 3, 1, 0), (4, 2, 3, -2))),
    "modulus_64_bit": (B64, (((2, -1), (3, 0)),), (), ((1, 4, 3, 2 * (B64 - 1) - 1),)),
}


class TestFlatKernel:
    """The minor loop against `trop_pencil_member` on hand-built pencils,
    over every point of {-inf, -1, 0, 1/2, 1/B, 2}^3 with B a 64-bit
    prime: both answers are seen on each."""

    @pytest.mark.parametrize("name", sorted(KERNEL_PENCILS))
    def test_matches_trop_evaluation(self, name):
        pencil = MetzlerPencil.from_json(json.loads(json.dumps(KERNEL_PENCILS[name])))
        assert pencil._plan == KERNEL_PLANS[name]
        answers = set()
        for x in product((None, -1, 0, F(1, 2), F(1, B64), 2), repeat=3):
            want = trop_pencil_member(pencil, x)
            assert pencil_member(pencil, x) == want, x
            answers.add(want)
        assert answers == {True, False}


class TestEnvelope:
    def test_rejects_non_cone(self):
        p = MetzlerPencil(1, 1, {(0, 0): {0: SignedTrop.pos(0)}})
        with pytest.raises(PreconditionViolated):
            affine_envelope(p)

    def test_members_are_finite(self):
        env = affine_envelope(synthesize_cone(one_edge_graph(F(1))))
        assert not pencil_member(env, (NEG_INF, Z))
        assert not pencil_member(env, (Z, NEG_INF))
        assert pencil_member(env, (T(4), T(-4)))

    def test_negation_lift_is_member(self):
        g = pipeline(example_graph())[0]
        p = synthesize_cone(g)
        env = affine_envelope(p)
        for i in range(60):
            x = sample_vector(rng_for(167, i), g.n, 5, 6)
            doubled = tuple(T(v) for v in x) + tuple(T(-v) for v in x)
            assert pencil_member(env, doubled) == pencil_member(p, x)

    def test_empty_cone_gives_empty_envelope(self):
        p = synthesize_cone(one_edge_graph(F(-1)))
        env = affine_envelope(p)
        for i in range(30):
            x = sample_vector(rng_for(173, i), 2, 5, 6)
            assert not pencil_member(env, x)


class TestUnion:
    def test_two_singletons(self):
        u = pencil_from_generators(TropPointSet(2, ((Z, Z), (T(2), T(2)))))
        assert u.member((T(1), T(1)))
        assert not u.member((Z, T(2)))

    def test_closed_under_combinations(self):
        u = pencil_from_generators(TropPointSet(2, ((T(0), T(3)), (T(2), T(0)), (NEG_INF, T(1)))))
        pool = u.gens.points
        for i in range(60):
            rng = rng_for(227, i)
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            lam, mu = Z, T(-abs(F(rng.randint(0, 20), rng.randint(1, 4))))
            if rng.random() < 0.5:
                lam, mu = mu, lam
            z = tuple(tadd(tmul(lam, p), tmul(mu, q)) for p, q in zip(a, b))
            assert u.member(z)

    def test_agrees_with_hull_membership(self):
        for trial in range(5):
            rng = rng_for(229, trial)
            pts1 = tuple(sample_trop_vector(rng, 3, 4, 4, 0.25) for _ in range(rng.randint(1, 3)))
            pts2 = tuple(sample_trop_vector(rng, 3, 4, 4, 0.25) for _ in range(rng.randint(1, 3)))
            combined = TropPointSet(3, pts1 + pts2)
            u = pencil_from_generators(combined)
            for i in range(60):
                y = sample_trop_vector(rng_for(233 + trial, i), 3, 4, 4, 0.3)
                assert u.member(y) == hull_member(y, combined)


class TestStrata:
    def test_single_full_support(self):
        pp = pencil_from_generators(TropPointSet(2, ((T(1), T(0)),)))
        out = pencil_from_generators(TropPointSet(2, placed(2, [((0, 1), pp.gens.points)])))
        for i in range(40):
            y = sample_trop_vector(rng_for(239, i), 2, 4, 4, 0.3)
            assert out.member(y) == pp.member(y)

    def test_empty_family_is_empty(self):
        out = pencil_from_generators(TropPointSet(2, placed(2, [])))
        for i in range(20):
            y = sample_trop_vector(rng_for(241, i), 2, 4, 4, 0.3)
            assert not out.member(y)

    def test_two_axis_strata(self):
        out = _two_axis_strata()
        embedded = TropPointSet(
            2,
            (
                (T(0), NEG_INF), (T(3), NEG_INF),
                (NEG_INF, T(-1)), (NEG_INF, T(2)),
            ),
        )
        for i in range(80):
            y = sample_trop_vector(rng_for(251, i), 2, 4, 4, 0.4)
            assert out.member(y) == hull_member(y, embedded)

    def test_include_bottom(self):
        pieces = [((0,), ((T(1),),))]
        out = pencil_from_generators(TropPointSet(2, placed(2, pieces, bottom=True)))
        assert out.member((NEG_INF, NEG_INF))
        assert not pencil_from_generators(TropPointSet(2, placed(2, pieces))).member((NEG_INF, NEG_INF))


def _generator_case(count):
    def build():
        rng = rng_for(257, count)
        n = 2 + count % 2
        gens = TropPointSet(n, tuple(sample_trop_vector(rng, n, 4, 4, 0.25) for _ in range(count)))
        return pencil_from_generators(gens), gens

    return build


def _union_case(seed):
    def build():
        rng = rng_for(263, seed)
        sets = [
            tuple(sample_trop_vector(rng, 3, 4, 4, 0.25) for _ in range(rng.randint(1, 4)))
            for _ in range(3)
        ]
        gens = TropPointSet(3, sum(sets, ()))
        return pencil_from_generators(gens), gens

    return build


def _strata_case(include_bottom):
    def build():
        rng = rng_for(269, int(include_bottom))
        pieces = [
            (support, tuple(sample_trop_vector(rng, len(support), 4, 4, 0) for _ in range(rng.randint(1, 3))))
            for support in ((0,), (1, 2), (0, 2))
        ]
        gens = TropPointSet(3, placed(3, pieces, bottom=include_bottom))
        return pencil_from_generators(gens), gens

    return build


SUMS = {
    **{f"generators-{k}": _generator_case(k) for k in (1, 2, 4, 5, 8, 12)},
    **{f"union-{seed}": _union_case(seed) for seed in range(2)},
    "strata": _strata_case(False),
    "strata-bottom": _strata_case(True),
}


def _hull_points(rng, gens, count):
    """Tropical convex combinations of the generators, the largest weight 0."""
    out = []
    for _ in range(count):
        lams = [
            T(-F(rng.randint(0, 12), rng.randint(1, 4))) if rng.random() < 0.7 else NEG_INF
            for _ in gens.points
        ]
        lams[rng.randrange(len(lams))] = Z
        y = [NEG_INF] * gens.dimension
        for lam, g in zip(lams, gens.points):
            y = [tadd(a, tmul(lam, b)) for a, b in zip(y, g)]
        out.append(tuple(y))
    return out


class TestTropicalSum:
    @pytest.mark.parametrize("name", sorted(SUMS))
    def test_member_matches_hull(self, name):
        pp, gens = SUMS[name]()
        rng = rng_for(271, len(name))
        points = _hull_points(rng, gens, 30)
        points += [sample_trop_vector(rng, gens.dimension, 4, 4, 0.3) for _ in range(60)]
        inside = 0
        for y in points:
            want = hull_member(y, gens)
            inside += want
            assert pp.member(y) == want
            if len(gens.points) <= 5:
                assert hull_member_bruteforce(y, gens) == want
        assert inside >= 30

    @pytest.mark.parametrize("name", sorted(SUMS))
    def test_lift_is_a_pencil_point(self, name):
        pp, gens = SUMS[name]()
        for y in _hull_points(rng_for(277, len(name)), gens, 30):
            lifted = pp.lift(y)
            assert lifted[: len(y)] == y
            assert pencil_member(pp.pencil, lifted)
            finite = [i for i, c in enumerate(y) if not c.is_neg_inf]
            if finite:
                # The diagonal row of that coordinate now fails, whatever the
                # residuation says.
                raised = list(lifted)
                raised[finite[0]] = tmul(raised[finite[0]], T(F(1, 7)))
                assert not pencil_member(pp.pencil, raised)

    def test_five_hundred_points_on_a_line(self):
        gens = TropPointSet(3, tuple((T(F(i, 7)), T(F(2 * i, 7)), T(F(-i, 7))) for i in range(500)))
        pp = pencil_from_generators(gens)
        assert pp.pencil.m <= 20 * 500 + 10
        assert pp.member(gens.points[0])
        assert pp.member(gens.points[499])
        for y in ((T(0), T(1), T(0)), (T(0), T(1), T(-1)), (T(1), NEG_INF, T(-1))):
            assert pp.member(y) == hull_member(y, gens)


def _oracle_lift(gens, y) -> tuple:
    """The boxed residuation lift: y followed by the weight of (0, y) over
    (0, g_j) per generator, by the oracle's `residual_coefficient`."""
    y = tuple(map(T, y))
    return y + tuple(residual_coefficient((Z,) + y, (Z,) + g) for g in gens.points)


class TestIntegerLift:
    """`lift` and `member` run on one integer lift; the boxed residuation of
    tests/support.py gives the same weights and the same answers."""

    @pytest.mark.parametrize("denom", [4, 2**64], ids=["small", "64-bit"])
    def test_matches_oracle_residuation(self, denom):
        seen = set()
        for trial in range(8):
            rng = rng_for(281, trial)
            n = 2 + trial % 3
            # Trials 0 and 4 hull the bottom point alone, the all -inf
            # generator, whose weight is always 0.
            points = tuple(sample_trop_vector(rng, n, 4, denom, 0.3) for _ in range(trial % 4))
            gens = TropPointSet(n, points + ((NEG_INF,) * n,))
            pp = pencil_from_generators(gens)
            ys = _hull_points(rng, gens, 20) + [sample_trop_vector(rng, n, 4, denom, 0.3) for _ in range(20)]
            for y in ys:
                want = _oracle_lift(gens, y)
                assert pp.lift(y) == want
                assert want[-1] == Z
                inside = pp.member(y)
                assert inside == trop_pencil_member(pp.pencil, want) == hull_member(y, gens)
                seen.add((inside, any(v.is_neg_inf for v in y)))
        # Inside and outside, each with and without a -inf coordinate.
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_wrong_size_pencil_refused(self):
        gens = TropPointSet(2, ((Z, T(1)), (T(1), Z)))
        assert ProjectedPencil(MetzlerPencil(0, 4, {}), gens).pencil.n == 4
        for n in (3, 5):
            with pytest.raises(DimensionMismatch):
                ProjectedPencil(MetzlerPencil(0, n, {}), gens)


class TestFlatPencil:
    """pencil_from_generators writes tconv(gens) over (x, lambda) with
    diagonal rows only, and `member` decides by the pencil at the lift."""

    @pytest.mark.parametrize("name", [name for name in sorted(SUMS) if name.startswith("generators")])
    def test_rows_and_variables(self, name):
        pp, gens = SUMS[name]()
        n, k = gens.dimension, len(gens.points)
        finite = sum(not c.is_neg_inf for g in gens.points for c in g)
        assert (pp.pencil.n, pp.pencil.m) == (n + k, k + finite + n + 1)
        assert len(pp.pencil.entries) == pp.pencil.m
        assert all(i == j for i, j in pp.pencil.entries)

    def test_singleton_is_a_one_generator_hull(self):
        # n + 1 variables: the point's coordinates and one weight; `member`
        # reads a raw point through the lift.
        g = (T(F(3, 4)), NEG_INF, T(-2))
        pp = pencil_from_generators(TropPointSet(3, (g,)))
        assert pp.pencil.n == len(g) + 1
        assert pp.member((F(3, 4), None, -2))
        assert not pp.member((F(3, 4), 0, -2))
        assert not pp.member((0, None, -2))

    def test_five_hundred_points_on_a_line_size(self):
        gens = TropPointSet(3, tuple((T(F(i, 7)), T(F(2 * i, 7)), T(F(-i, 7))) for i in range(500)))
        pp = pencil_from_generators(gens)
        assert (pp.pencil.m, pp.pencil.n) == (500 + 1500 + 3 + 1, 503)

    def test_member_follows_the_pencil(self):
        # Without its last row, max_j lambda_j >= 0, the pencil holds every
        # point below the hull: g - 1 for a generator g is then a member.
        gens = TropPointSet(2, ((T(1), T(0)), (T(0), T(2))))
        pp = pencil_from_generators(gens)
        last = (pp.pencil.m - 1,) * 2
        entries = {key: entry for key, entry in pp.pencil.entries.items() if key != last}
        loose = ProjectedPencil(MetzlerPencil(pp.pencil.m, pp.pencil.n, entries), gens)
        below = (T(0), T(-1))
        assert not hull_member(below, gens)
        assert not pp.member(below)
        assert loose.member(below)
        assert pp.lift(below) == loose.lift(below) == (T(0), T(-1), T(-1), T(-3))
        top = {3: SignedTrop.pos(0), 4: SignedTrop.pos(0), 0: SignedTrop.neg(0)}
        assert pp.pencil.entries[last] == top
