"""Scalar and signed scalar arithmetic, and rationals from text."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import dense_absorption_rows, dense_pivot, default_digit_limit, tadd, tmul, trop_eval_operator
from support import trop_lift, trop_pencil_member
from tropcone.errors import TooManyDigits
from tropcone.fixtures import example_graph, example_minmax, example_union
from tropcone.graph import eval_operator, minmax_eval, subfixed
from tropcone.lp import eval_F_from_polyhedra, lp_max, union_member
from tropcone.pencil import MetzlerPencil, TropPointSet, pencil_from_generators, pencil_member, synthesize_cone
from tropcone.sampling import rng_for
from tropcone.scalars import (
    NEG_INF,
    SignedTrop,
    Trop,
    exact,
    integers_over,
    pivot,
    rational_from_str,
    rational_text,
    rational_to_str,
    sums_to_one,
)
from tropcone.transforms import pipeline

trops = st.one_of(
    st.just(NEG_INF),
    st.fractions(min_value=-50, max_value=50, max_denominator=16).map(Trop),
)


# Few values, so that ties are drawn often; None is -inf.
order_values = st.one_of(st.none(), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def order_key(v):
    return (0,) if v is None else (1, v)


class TestTrop:
    def test_tadd_is_max(self):
        assert tadd(Trop(3), Trop(7)) == Trop(7)

    def test_neg_inf_neutral(self):
        assert tadd(NEG_INF, Trop(Fraction(-5, 3))) == Trop(Fraction(-5, 3))

    def test_idempotent(self):
        half5 = Trop(Fraction(5, 2))
        assert tadd(half5, half5) == half5

    def test_tmul_is_plus(self):
        assert tmul(Trop(3), Trop(7)) == Trop(10)

    def test_neg_inf_absorbing(self):
        assert tmul(NEG_INF, Trop(7)) == NEG_INF

    def test_inverses(self):
        assert tmul(Trop(Fraction(-1, 3)), Trop(Fraction(1, 3))) == Trop(0)

    def test_order(self):
        assert NEG_INF < Trop(-1000)
        assert Trop(Fraction(1, 3)) < Trop(Fraction(1, 2))
        assert not Trop(0) < Trop(0)

    @given(order_values, order_values)
    def test_order_agrees_with_fractions(self, a, b):
        # None is -inf: (0,) sorts below every finite (1, value).
        x, y, ka, kb = Trop(a), Trop(b), order_key(a), order_key(b)
        assert (x < y, x <= y, x > y, x >= y, x == y) == (ka < kb, ka <= kb, ka > kb, ka >= kb, a == b)

    def test_str_round_trip(self):
        for t in (NEG_INF, Trop(Fraction(-7, 3)), Trop(4)):
            assert Trop.from_str(t.to_str()) == t

    def test_keeps_its_fraction(self):
        q = Fraction(-7, 3)
        assert Trop(q).finite is q

    @pytest.mark.parametrize(
        "value, want",
        [(3, Fraction(3)), ("1/2", Fraction(1, 2)), (Trop(Fraction(5, 4)), Fraction(5, 4))],
        ids=["int", "string", "trop"],
    )
    def test_other_values_converted(self, value, want):
        t = Trop(value)
        assert type(t.finite) is Fraction
        assert t.finite == want
        assert t == Trop(want)

    @given(trops, trops)
    def test_commutative(self, a, b):
        assert tadd(a, b) == tadd(b, a)
        assert tmul(a, b) == tmul(b, a)

    @given(trops, trops, trops)
    def test_associative(self, a, b, c):
        assert tadd(tadd(a, b), c) == tadd(a, tadd(b, c))
        assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))

    @given(trops, trops, trops)
    def test_distributive(self, a, b, c):
        assert tmul(a, tadd(b, c)) == tadd(tmul(a, b), tmul(a, c))

    @given(trops)
    def test_idempotent_addition(self, a):
        assert tadd(a, a) == a


class TestSignedTrop:
    def test_sign_zero_iff_neg_inf(self):
        with pytest.raises(ValueError):
            SignedTrop(0, Trop(1))
        with pytest.raises(ValueError):
            SignedTrop(1, NEG_INF)

    @pytest.mark.parametrize("sign", [True, 1.0, "1"])
    def test_sign_must_be_an_integer(self, sign):
        with pytest.raises(ValueError):
            SignedTrop(sign, Trop(1))

    @pytest.mark.parametrize("modulus", [Fraction(1), 1, "1", None], ids=["fraction", "int", "string", "none"])
    def test_modulus_must_be_a_trop(self, modulus):
        # A Fraction modulus raised AttributeError; pos and neg read values.
        with pytest.raises(ValueError, match="modulus is a Trop"):
            SignedTrop(1, modulus)

    @pytest.mark.parametrize("make", [SignedTrop.pos, SignedTrop.neg], ids=["pos", "neg"])
    def test_fixed_sign_refuses_neg_inf(self, make):
        with pytest.raises(ValueError, match="not -inf"):
            make(None)

    def test_fixed_sign_equals_checked_constructor(self):
        q = Fraction(2, 7)
        assert SignedTrop.pos(q) == SignedTrop(1, Trop(q))
        assert SignedTrop.neg("-1") == SignedTrop(-1, Trop(-1))
        assert (SignedTrop.neg(0).sign, SignedTrop.pos(0).sign) == (-1, 1)

    def test_json_round_trip(self):
        # A signed value is written as the [i, j, k, sign, abs] cell of a pencil file.
        for s in (SignedTrop.pos(Fraction(2, 7)), SignedTrop.neg(-1)):
            p = MetzlerPencil(1, 0, {(0, 0): {0: s}})
            assert MetzlerPencil.from_json(p.to_json()).entries[(0, 0)][0] == s

    def test_no_signed_zero(self):
        # A tropically zero coefficient is absent, so no sign stands for it.
        for sign in (0, -1, 1):
            with pytest.raises(ValueError):
                SignedTrop(sign, NEG_INF)


class TestRationalFromStr:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("-7/3", Fraction(-7, 3)),
            (" 4 ", Fraction(4)),
            ("+2", Fraction(2)),
            ("1.5", Fraction(3, 2)),
            (".5", Fraction(1, 2)),
            (12, Fraction(12)),
        ],
    )
    def test_accepts_rationals(self, text, want):
        assert rational_from_str(text) == want

    @pytest.mark.parametrize("text", ["1e100000", "1E5", "2.5e-3", "-1e0", "1/2e3"])
    def test_rejects_exponent_notation(self, text):
        # Fraction("1e10000000") alone builds a 33-million-bit integer.
        with pytest.raises(ValueError, match="exponent"):
            rational_from_str(text)

    @pytest.mark.parametrize("value", ["1/0", 1.5, True, None, "inf", "nan", "x"])
    def test_rejects_other_non_rationals(self, value):
        with pytest.raises(ValueError):
            rational_from_str(value)


class TestFloatsRefused:
    """A float is refused wherever a rational is read, since its binary
    value is rarely the one meant: subfixed(example_graph(), (1.3, -10, 0.3))
    would say False, yet the point (13/10, -10, 3/10) is subfixed."""

    def test_exact_point_is_subfixed(self):
        assert subfixed(example_graph(), (Fraction(13, 10), -10, "3/10"))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Trop(0.1),
            lambda: integers_over((0.5,), 1),
            lambda: subfixed(example_graph(), (1.3, -10, 0.3)),
            lambda: eval_operator(example_graph(), (0, 0.1, 0)),
            lambda: pencil_member(MetzlerPencil(1, 1, {(0, 0): {1: SignedTrop.pos(0)}}), (0.25,)),
            lambda: pencil_from_generators(TropPointSet(2, ((0, None),))).member((0.25, None)),
            lambda: pipeline(example_graph())[1].lift_integers((0.1, 0, 0)),
            lambda: pipeline(example_graph())[1].lift((0, 0, 0.1)),
            lambda: minmax_eval(example_minmax(), (0.1, 0, 0)),
        ],
        ids=["Trop", "integers_over", "subfixed", "eval_operator", "pencil_member", "hull_pencil_member",
             "lift_integers", "lift", "minmax_eval"],
    )
    def test_float_raises(self, call):
        with pytest.raises(ValueError, match="float"):
            call()


class TestBoolsRefused:
    """A bool is refused wherever a rational is read, as the LP frontend
    does: eval_operator(example_graph(), (True, 0, 0)) would answer as at
    (1, 0, 0), and a flag passed for a coordinate is rarely meant as one."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Trop(True),
            lambda: integers_over((False,), 1),
            lambda: subfixed(example_graph(), (True, 0, 0)),
            lambda: eval_operator(example_graph(), (True, 0, 0)),
            lambda: pencil_member(MetzlerPencil(1, 1, {(0, 0): {1: SignedTrop.pos(0)}}), (False,)),
            lambda: pencil_from_generators(TropPointSet(2, ((0, None),))).member((False, None)),
            lambda: pipeline(example_graph())[1].lift_integers((0, True, 0)),
            lambda: pipeline(example_graph())[1].lift((0, 0, False)),
            lambda: minmax_eval(example_minmax(), (True, 0, 0)),
        ],
        ids=["Trop", "integers_over", "subfixed", "eval_operator", "pencil_member", "hull_pencil_member",
             "lift_integers", "lift", "minmax_eval"],
    )
    def test_bool_raises(self, call):
        with pytest.raises(ValueError, match="bool"):
            call()

    def test_ints_still_read(self):
        assert Trop(1) == Trop(Fraction(1))
        assert eval_operator(example_graph(), (1, 0, 0)) == eval_operator(
            example_graph(), (Fraction(1), Fraction(0), Fraction(0))
        )


class TestExactReading:
    """`exact` reads a string by `rational_from_str`, so exponent notation is
    refused on every path that takes a point, and a finite `Trop` by its
    value; -inf and None have none and raise ValueError where no -inf is
    taken (the lift takes it: `TestOneReader`)."""

    def test_exponent_notation_refused(self):
        with pytest.raises(ValueError, match="exponent"):
            exact("1e5")
        # Fraction("1e10000000") alone builds a 33-million-bit integer.
        for call in (
            lambda: subfixed(example_graph(), ("1e10000000", 0, 0)),
            lambda: Trop("1e10000000"),
            lambda: pipeline(example_graph())[1].lift(("1e10000000", 0, 0)),
            lambda: minmax_eval(example_minmax(), ("1e10000000", 0, 0)),
        ):
            with pytest.raises(ValueError, match="exponent"):
                call()

    def test_finite_trop_read_by_its_value(self):
        lift = pipeline(example_graph())[1].lift
        assert lift((Trop(1), 0, 0)) == lift((1, 0, 0))
        point = (Trop(Fraction(1, 3)), 0, Trop(-2))
        want = minmax_eval(example_minmax(), (Fraction(1, 3), 0, -2))
        assert minmax_eval(example_minmax(), point) == want
        assert exact(Trop(Fraction(-7, 3))) == Fraction(-7, 3)

    @pytest.mark.parametrize("value", [NEG_INF, None], ids=["neg_inf", "none"])
    def test_no_finite_value_refused(self, value):
        with pytest.raises(ValueError):
            minmax_eval(example_minmax(), (0, value, 0))
        with pytest.raises(ValueError):
            exact(value)


def _kernels() -> dict:
    """name: (the kernel at a point, points to read) for each kernel that
    takes a query point."""
    g = example_graph()
    target, witness = pipeline(g)
    cone = synthesize_cone(target)
    u = example_union()
    a, b = u.pieces[0]
    graph_points = [(-3, 0, 0), (2, 0, 0), (Fraction(1, 3), Fraction(-5, 7), 2)]
    cone_points = [witness.lift(x) for x in graph_points]
    cone_points.append(tuple(math.floor(v) for v in cone_points[1]))
    lp_points = [(5, 1, 0), (-3, 2, 1), (Fraction(1, 3), Fraction(-5, 7), 2)]
    hull = pencil_from_generators(TropPointSet(3, ((0, 1, None), (Fraction(-1, 2), 0, 2))))
    hull_points = [
        (0, 1, -4), (Fraction(-1, 3), Fraction(2, 3), 2), (Fraction(-1, 3), Fraction(5, 7), 1), (0, 0, 0),
    ]
    return {
        "eval_operator": (lambda x: eval_operator(g, x), graph_points),
        "subfixed": (lambda x: subfixed(g, x), graph_points),
        "pencil_member": (lambda x: pencil_member(cone, x), cone_points),
        "lift": (witness.lift, graph_points),
        "hull_pencil_member": (hull.member, hull_points),
        "union_member": (lambda x: union_member(u, x), lp_points),
        "eval_F_from_polyhedra": (lambda x: eval_F_from_polyhedra(u, x), lp_points),
        "lp_max": (lambda x: tuple(lp_max(a, b, x, k) for k in range(u.n)), lp_points),
    }


def _writings(point) -> list:
    """The point as Fractions, strings and finite Trops, and as ints when
    every coordinate is an integer."""
    point = tuple(map(Fraction, point))
    forms = [point, tuple(map(str, point)), tuple(map(Trop, point))]
    if all(v.denominator == 1 for v in point):
        forms.append(tuple(map(int, point)))
    return forms


def _with(point, k, value) -> tuple:
    return (*point[:k], value, *point[k + 1:])


class TestOneReader:
    """Every kernel reads a query point by `integers_over`: a Fraction, an
    int, a string and a finite Trop of one value give one answer, and None
    and a -inf Trop are -inf where a kernel takes it."""

    @pytest.mark.parametrize("name", list(_kernels()))
    def test_every_writing_gives_one_answer(self, name):
        call, points = _kernels()[name]
        answers = set()
        for point in points:
            answer = call(tuple(map(Fraction, point)))
            assert [call(form) for form in _writings(point)] == [answer] * len(_writings(point))
            answers.add(answer)
        assert len(answers) > 1

    def test_mixed_list_over_the_lcm(self):
        # Each coordinate is read once; D is lcm(scale, denominators) and
        # each finite value is scaled to an integer over it.
        class Sub(Fraction):
            pass

        vals = [Fraction(3, 4), Sub(-5, 6), 7, "-2/9", Trop(Fraction(1, 10)), NEG_INF, None]
        finite = [Fraction(3, 4), Fraction(-5, 6), Fraction(7), Fraction(-2, 9), Fraction(1, 10)]
        d = math.lcm(8, *(q.denominator for q in finite))
        assert d == 360
        assert integers_over(vals, 8) == (d, [int(q * d) for q in finite] + [None, None])
        assert integers_over([Fraction(1, 3)] * 3, 6) == (6, [2, 2, 2])
        assert integers_over([], 5) == (5, [])

    @pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
    def test_mixed_list_refuses_float_and_bool(self, value):
        # The message is `exact`'s, after a Fraction, a Trop and None read.
        message = (
            f"{value!r} is a {type(value).__name__}, not an exact number: "
            "pass a Fraction, an int, a string or a finite Trop"
        )
        with pytest.raises(ValueError) as info:
            integers_over([Fraction(1, 2), Trop(1), None, value, 0.25], 1)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [None, NEG_INF], ids=["none", "neg_inf"])
    def test_graph_kernels_read_minus_infinity(self, value):
        g = example_graph()
        rows = dense_absorption_rows(g)
        seen = set()
        for point in [(0, 0, 0), (2, 0, 0), (Fraction(1, 3), Fraction(-5, 7), 2)]:
            for k in range(g.n):
                x = _with(point, k, value)
                want = trop_eval_operator(g, rows, _with(point, k, NEG_INF))
                assert tuple(NEG_INF if v is None else Trop(v) for v in eval_operator(g, x)) == want
                holds = all(Trop(v) <= w for v, w in zip(_with(point, k, NEG_INF), want))
                assert subfixed(g, x) is holds
                seen.add(holds)
        assert eval_operator(g, (value,) * g.n) == (None,) * g.n
        assert subfixed(g, (value,) * g.n)
        assert seen == {True, False}

    @pytest.mark.parametrize("value", [None, NEG_INF], ids=["none", "neg_inf"])
    def test_pencil_member_reads_minus_infinity(self, value):
        call, points = _kernels()["pencil_member"]
        cone = synthesize_cone(pipeline(example_graph())[0])
        seen = set()
        for point in points:
            for k in range(len(point)):
                answer = call(_with(point, k, value))
                assert answer is trop_pencil_member(cone, _with(point, k, NEG_INF))
                seen.add(answer)
        assert call((value,) * cone.n)
        assert seen == {True, False}

    @pytest.mark.parametrize("value", [None, NEG_INF], ids=["none", "neg_inf"])
    def test_lift_reads_minus_infinity(self, value):
        # A -inf coordinate lifts as the boxed rows give it, None where a
        # row is -inf, as `eval_operator` writes -inf.
        call, points = _kernels()["lift"]
        witness = pipeline(example_graph())[1]
        seen = set()
        for point in points:
            for k in range(len(point)):
                lifted = call(_with(point, k, value))
                want = trop_lift(witness, _with(point, k, NEG_INF))
                assert tuple(NEG_INF if v is None else Trop(v) for v in lifted) == want
                assert lifted[k] is None
                seen.update(v is None for v in lifted[len(point):])
        assert call((value,) * len(points[0])) == (None,) * (witness.source_dim + len(witness.rows))
        assert seen == {True, False}

    # Only the LP frontend refuses -inf, since its polyhedra live in R^n;
    # the lift reads it (`test_lift_reads_minus_infinity`).
    @pytest.mark.parametrize("value", [None, NEG_INF], ids=["none", "neg_inf"])
    @pytest.mark.parametrize("name", ["union_member", "eval_F_from_polyhedra", "lp_max"])
    def test_lift_and_lp_refuse_minus_infinity(self, name, value):
        call, points = _kernels()[name]
        with pytest.raises(ValueError, match=type(value).__name__):
            call(_with(points[0], 1, value))


class TestSumsToOne:
    """`sums_to_one` keeps one running integer sum over the lcm of the
    denominators so far; it must agree with the `Fraction` sum."""

    @pytest.mark.parametrize(
        "vals, want",
        [
            ([], False),
            ([Fraction(1)], True),
            ([1], True),
            ([Fraction(0), Fraction(1)], True),
            ([Fraction(1, 2)], False),
            ([Fraction(1, 2), Fraction(1, 2)], True),
            ([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)], True),
            ([Fraction(3, 2), Fraction(-1, 2)], True),
            ([Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)], False),
        ],
    )
    def test_small_cases(self, vals, want):
        assert sums_to_one(vals) is want

    @pytest.mark.parametrize("exps", [(61,), (89,), (61, 89), (31, 61, 89)])
    def test_mersenne_prime_denominators(self, exps):
        # Coprime denominators: the running lcm grows at every value.
        ps = [2**e - 1 for e in exps]
        vals = [Fraction(1, p) for p in ps]
        vals.append(1 - sum(vals))
        assert sums_to_one(vals)
        assert not sums_to_one(vals[:-1])
        # One part in p * q off.
        off = Fraction(1, ps[0] * ps[-1])
        assert not sums_to_one([*vals[:-1], vals[-1] + off])
        assert not sums_to_one([*vals[:-1], vals[-1] - off])

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2**70), max_size=8))
    def test_agrees_with_fraction_sum(self, vals):
        assert sums_to_one(vals) is (sum(vals, Fraction(0)) == 1)
        if vals:
            fixed = [*vals[:-1], 1 - sum(vals[:-1], Fraction(0))]
            assert sums_to_one(fixed)


class TestPivot:
    """`pivot` against the dense step it replaced (`support.dense_pivot`,
    every row over one d) and a `Fraction` Gauss-Jordan tableau."""

    def test_matches_dense_step(self):
        seen = Counter()
        for trial in range(150):
            rng = rng_for(341, trial)
            height, width = rng.randint(2, 6), rng.randint(3, 8)
            # Most entries 0, so that a pivot column misses some rows.
            start = [[rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(width)] for _ in range(height)]
            rows, base, p = [list(row) for row in start], [1] * height, 1
            dense, d = [list(row) for row in start], 1
            fractions = [[Fraction(v) for v in row] for row in start]
            for _ in range(rng.randint(1, 8)):
                nonzero = [(r, c) for r in range(height) for c in range(width) if fractions[r][c]]
                if not nonzero:
                    break
                r, c = rng.choice(nonzero)
                seen["negative"] += fractions[r][c] < 0
                seen["behind"] += base[r] != p
                seen["left alone"] += sum(1 for i in range(height) if i != r and not fractions[i][c])
                p = pivot(rows, base, r, c, p)
                d = dense_pivot(dense, r, c, d)
                q = fractions[r][c]
                fractions[r] = [v / q for v in fractions[r]]
                for i in range(height):
                    f = fractions[i][c]
                    if f and i != r:
                        fractions[i] = [v - f * w for v, w in zip(fractions[i], fractions[r])]
                assert p == d > 0 and min(base) > 0
                for row, b, line, want in zip(rows, base, dense, fractions):
                    assert [Fraction(v, b) for v in row] == [Fraction(v, d) for v in line] == want
        assert len(seen) == 3 and all(seen.values()), seen


@default_digit_limit
class TestDigitLimit:
    """Python writes no integer of more than 4300 digits: a message names a
    longer rational by its size, and a result that long is refused with a
    tropcone error, not a bare ValueError."""

    def test_text_is_str_up_to_the_limit(self):
        for q in (Fraction(-7, 3), Fraction(4), Fraction(10 ** 4300 - 1, 3), Fraction(1, 10 ** 4300 - 1)):
            assert rational_text(q) == str(q)
        assert rational_to_str(Fraction(10 ** 4300 - 1)) == "9" * 4300 + "/1"

    def test_text_names_the_size_past_the_limit(self):
        q = Fraction(1, 3 ** 6000) + Fraction(1, 2 ** 9000)
        assert rational_text(q) == "a rational with a 9510-bit numerator and a 18510-bit denominator"
        assert rational_text(Fraction(-(10 ** 4300))) == (
            "a rational with a 14285-bit numerator and a 1-bit denominator"
        )

    @pytest.mark.parametrize("q", [Fraction(10 ** 4300), Fraction(1, 10 ** 4300), Fraction(-(3 ** 9100), 7)])
    def test_to_str_refuses_past_the_limit(self, q):
        with pytest.raises(TooManyDigits, match="too many digits to print"):
            rational_to_str(q)
