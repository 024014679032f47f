"""The polyhedral frontend: exact LP, the canonical operator of a union of
polyhedra, and the tropical convexity falsifier."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

import pytest

from support import default_digit_limit, lp_max_oracle, random_minmax, small_rational
from tropcone import lp as lp_module
from tropcone.errors import DimensionMismatch, EmptyBelow
from tropcone.fixtures import TWO_PI, example_graph, example_minmax, example_union
from tropcone.graph import graph_from_minmax, subfixed
from tropcone.lp import (
    PolyhedralUnion,
    eval_F_from_polyhedra,
    lp_max,
    tropical_convexity_falsifier,
    union_from_minmax,
    union_member,
)
from tropcone.sampling import rng_for, sample_vector

F = Fraction


def halfplane():
    """{x : x1 <= x2} as a one-piece union."""
    return PolyhedralUnion(2, ((((F(1), F(-1)),), (F(0),)),))


class TestLpMax:
    def test_no_rows_returns_coordinate(self):
        assert lp_max((), (), (F(3), F(-2)), 0) == F(3)
        assert lp_max((), (), (F(3), F(-2)), 1) == F(-2)

    def test_single_bound(self):
        a = ((F(1), F(0)),)
        b = (F(0),)
        assert lp_max(a, b, (F(5), F(5)), 0) == F(0)
        assert lp_max(a, b, (F(5), F(5)), 1) == F(5)

    def test_infeasible(self):
        a = ((F(-1), F(0)),)
        b = (F(-10),)
        assert lp_max(a, b, (F(5), F(5)), 0) is None

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            lp_max(((F(1),),), (F(0),), (F(1), F(2)), 0)
        with pytest.raises(DimensionMismatch):
            lp_max((), (), (F(1),), 3)
        with pytest.raises(DimensionMismatch):
            lp_max(((F(1),),), (F(0), F(-5)), (F(1),), 0)

    @pytest.mark.parametrize("k", [1.0, True, "1"], ids=["float", "bool", "str"])
    def test_coordinate_is_an_integer(self, k):
        # 1.0 raised a bare TypeError from the tableau, and True was read as 1.
        with pytest.raises(ValueError, match="expected an integer"):
            lp_max(((F(1), F(0)),), (F(0),), (F(5), F(5)), k)

    def test_matches_vertex_enumeration_oracle(self):
        for trial in range(30):
            rng = rng_for(263, trial)
            n = rng.randint(2, 4)
            m = rng.randint(1, 6)
            a = tuple(
                tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m)
            )
            b = tuple(small_rational(rng, 5, 4) for _ in range(m))
            x = sample_vector(rng, n, 5, 4)
            k = rng.randrange(n)
            assert lp_max(a, b, x, k) == lp_max_oracle(a, b, x, k)

    def test_integer_solve_matches_oracle(self):
        # Rows with denominators up to 64, one of them repeated as its 1/7
        # multiple, are scaled to integers row by row; the scaled solve
        # gives the rational answer.
        infeasible = 0
        for trial in range(40):
            rng = rng_for(311, trial)
            n = rng.randint(1, 3)
            a = [tuple(small_rational(rng, 3, 64) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            b = [small_rational(rng, 5, 64) for _ in a]
            i = rng.randrange(len(a))
            a.append(tuple(v / 7 for v in a[i]))
            b.append(b[i] / 7)
            x = sample_vector(rng, n, 5, 64)
            k = rng.randrange(n)
            value = lp_max(tuple(a), tuple(b), x, k)
            assert value == lp_max_oracle(a, b, x, k)
            infeasible += value is None
            (rows, rhs, cols), = PolyhedralUnion(n, ((tuple(a), tuple(b)),)).plan
            assert cols == tuple(zip(*rows))
            for row, bi, scaled, si in zip(a, b, rows, rhs):
                s = lcm(bi.denominator, *(v.denominator for v in row))
                assert all(type(v) is int for v in (*scaled, si))
                assert (*scaled, si) == tuple(s * v for v in (*row, bi))
        assert 0 < infeasible < 40


class TestEvalF:
    def test_halfplane_hand_lp(self):
        assert eval_F_from_polyhedra(halfplane(), (F(5), F(0))) == (F(0), F(0))

    def test_member_point_is_fixed(self):
        u = halfplane()
        x = (F(-2), F(1))
        assert eval_F_from_polyhedra(u, x) == x

    def test_empty_below(self):
        u = PolyhedralUnion(1, ((((F(-1),),), (F(-3),)),))  # {y >= 3}
        with pytest.raises(EmptyBelow, match=r"below \(0\)$"):
            eval_F_from_polyhedra(u, (F(0),))
        with pytest.raises(EmptyBelow, match=r"below \(-1/2, 3\)$"):
            eval_F_from_polyhedra(PolyhedralUnion(2, ((((-1, 0),), (-3,)),)), (F(-1, 2), 3))

    @default_digit_limit
    def test_empty_below_past_the_digit_limit(self):
        # A point past Python's 4300-digit int-to-string limit is named by
        # its size: the message once formatted the point itself, and raised
        # ValueError in place of EmptyBelow.
        u = PolyhedralUnion(1, ((((F(-1),),), (F(-1),)),))  # {y >= 1}
        with pytest.raises(EmptyBelow, match="a rational with a 14285-bit numerator"):
            eval_F_from_polyhedra(u, (F(-(10 ** 4300)),))

    def test_agrees_with_graph_on_example(self):
        # The canonical operator returns the largest member below x, so it is
        # dominated by x everywhere and fixes exactly the subfixed points of
        # the encoded graph operator.
        u = example_union()
        g = example_graph()
        for i in range(60):
            x = sample_vector(rng_for(269, i), 3, 4, 4)
            fx = eval_F_from_polyhedra(u, x)
            assert all(a <= b for a, b in zip(fx, x))
            below = subfixed(g, x)
            assert union_member(u, x) == below
            assert (fx == x) == below

    def test_homogeneous(self):
        u = example_union()
        for i in range(20):
            rng = rng_for(271, i)
            x = sample_vector(rng, 3, 4, 4)
            lam = small_rational(rng, 4, 4)
            fx = eval_F_from_polyhedra(u, x)
            assert eval_F_from_polyhedra(u, tuple(v + lam for v in x)) == tuple(
                v + lam for v in fx
            )

    def test_monotone(self):
        u = example_union()
        for i in range(20):
            rng = rng_for(277, i)
            x = sample_vector(rng, 3, 4, 4)
            y = tuple(v + abs(small_rational(rng, 3, 4)) for v in x)
            fx = eval_F_from_polyhedra(u, x)
            fy = eval_F_from_polyhedra(u, y)
            assert all(a <= b for a, b in zip(fx, fy))

    def test_membership_iff_subfixed(self):
        u = example_union()
        for i in range(100):
            x = sample_vector(rng_for(281, i), 3, 4, 4)
            fx = eval_F_from_polyhedra(u, x)
            assert union_member(u, x) == all(a <= b for a, b in zip(x, fx))


def random_piece(rng, n, x):
    """A piece of 1-4 random rows, or of none. Half the time a row that x
    violates is repeated, as is or doubled, so the LP is degenerate;
    three times in ten a row y_0 >= x_0 + 1 makes the piece infeasible
    below x."""
    if rng.random() < 0.15:
        return (), ()
    a = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
    b = [small_rational(rng, 5, 4) for _ in a]
    violated = [i for i, (row, bi) in enumerate(zip(a, b))
                if sum(av * xv for av, xv in zip(row, x)) > bi]
    if violated and rng.random() < 0.5:
        i = rng.choice(violated)
        scale = rng.choice((1, 2))
        a.append(tuple(scale * v for v in a[i]))
        b.append(scale * b[i])
    if rng.random() < 0.3:
        a.append(tuple(F(-int(j == 0)) for j in range(n)))
        b.append(-x[0] - 1)
    return tuple(a), tuple(b)


def column_maxima(pieces, x, solve):
    """Per coordinate, the largest `solve(a, b, x, k)` over the pieces;
    None where every piece is infeasible."""
    best = []
    for k in range(len(x)):
        values = [v for a, b in pieces if (v := solve(a, b, x, k)) is not None]
        best.append(max(values) if values else None)
    return tuple(best)


class TestDifferential:
    """eval_F against the per-coordinate maxima of separate LPs, on seeded
    unions with degenerate, empty and infeasible pieces."""

    def test_matches_lp_max_and_oracle(self, monkeypatch):
        kinds = {"empty": 0, "no rows": 0, "degenerate": 0}
        for trial in range(60):
            rng = rng_for(283, trial)
            n = rng.randint(1, 4)
            x = sample_vector(rng, n, 5, 4)
            pieces = tuple(random_piece(rng, n, x) for _ in range(rng.randint(1, 3)))
            by_lp = column_maxima(pieces, x, lp_max)
            assert by_lp == column_maxima(pieces, x, lp_max_oracle)
            try:
                fx = eval_F_from_polyhedra(PolyhedralUnion(n, pieces), x)
            except EmptyBelow:
                kinds["empty"] += 1
                assert by_lp == (None,) * n
            else:
                assert fx == by_lp
            kinds["no rows"] += any(not a for a, _ in pieces)
            kinds["degenerate"] += any(len(set(a)) < len(a) for a, _ in pieces)
        assert all(kinds.values()), kinds
        # One union over 64-bit denominators, each row's bound within 2 of
        # its value at x: a pivot row that fell behind the last pivot is
        # brought up to it on integers of hundreds of bits.
        shared_pivot, behind = lp_module.pivot, []

        def pivot(tableau, base, r, enter, d):
            behind.append(base[r] != d)
            return shared_pivot(tableau, base, r, enter, d)

        monkeypatch.setattr(lp_module, "pivot", pivot)
        rng = rng_for(349, 0)

        def wide():
            return F(rng.choice((0, rng.randint(-3 * 2**64, 3 * 2**64))), rng.randrange(2**63, 2**64))

        x = sample_vector(rng, 3, 5, 4)
        pieces = []
        for _ in range(3):
            a = tuple(tuple(wide() for _ in range(3)) for _ in range(5))
            pieces.append((a, tuple(sum(map(mul, row, x)) + wide() / 3 for row in a)))
        want = column_maxima(pieces, x, lp_max_oracle)
        assert None not in want
        assert column_maxima(pieces, x, lp_max) == want
        assert eval_F_from_polyhedra(PolyhedralUnion(3, tuple(pieces)), x) == want
        assert any(behind), behind

    def test_lp_calls_per_piece(self, monkeypatch):
        # Each piece is one warm-started solve over the coordinates still
        # open. A piece with no point below x is known from its first
        # coordinate; a coordinate that an earlier piece took to x_k is not
        # passed again.
        calls = []
        piece_gaps = lp_module._piece_gaps

        def counting(piece, h, ks):
            gaps = piece_gaps(piece, h, ks)
            calls.append((piece, list(ks), gaps))
            if gaps is None:
                assert piece_gaps(piece, h, ks[:1]) is None
            return gaps

        monkeypatch.setattr(lp_module, "_piece_gaps", counting)
        seen = {"empty": 0, "skipped": 0}
        # {y_0 >= 3} has no point below most of these x; the half-plane after
        # it then still decides F(x).
        ledge = PolyhedralUnion(2, ((((-1, 0),), (-3,)), *halfplane().pieces))
        for u in (example_union(), halfplane(), ledge):
            for i in range(20):
                x = sample_vector(rng_for(293, i), u.n, 4, 4)
                calls.clear()
                try:
                    eval_F_from_polyhedra(u, x)
                except EmptyBelow:
                    pass
                best = [None] * u.n
                for (a, b), piece in zip(u.pieces, u.plan):
                    solves = [(ks, gaps) for pa, ks, gaps in calls if pa is piece]
                    if best == list(x):
                        assert solves == []
                        continue
                    ((ks, gaps),) = solves
                    assert ks == [k for k in range(u.n) if best[k] != x[k]]
                    values = [lp_max_oracle(a, b, x, k) for k in range(u.n)]
                    if values[0] is None:
                        assert gaps is None
                        seen["empty"] += 1
                        continue
                    assert len(gaps) == len(ks)
                    seen["skipped"] += u.n - len(ks)
                    best = [v if c is None else max(c, v) for c, v in zip(best, values)]
        assert all(seen.values()), seen

    def test_warm_start_matches_oracle(self, monkeypatch):
        # eval_F and lp_max against the per-coordinate maxima of the vertex
        # enumeration, n = 1..5, on pieces with repeated and scaled rows and
        # rows tight at x. Every coordinate after a piece's first is solved
        # from the last optimal basis by dual pivots; the test counts them,
        # and the ratio ties that Bland's rule breaks in both phases, so that
        # it cannot pass without them.
        seen = Counter()
        piece_gaps, shared_pivot = lp_module._piece_gaps, lp_module.pivot
        primal_rhs = []

        def gaps(piece, h, ks):
            # Primal pivots are those of the first coordinate, read from
            # column m + k of the tableau.
            primal_rhs[:] = [len(h) + ks[0]]
            return piece_gaps(piece, h, ks)

        def pivot(tableau, base, r, enter, d):
            # Each test multiplies one entry of each of two rows, so the
            # rows' own bases leave it as it is on the rational tableau.
            row, cost, p = tableau[r], tableau[-1], tableau[r][enter]
            if p < 0:
                seen["dual pivots"] += 1
                seen["dual ties"] += any(
                    j != enter and q < 0 and cost[j] * p == cost[enter] * q for j, q in enumerate(row)
                )
            else:
                c = primal_rhs[0]
                seen["primal ties"] += any(
                    i != r and line[enter] > 0 and line[c] * p == row[c] * line[enter]
                    for i, line in enumerate(tableau[:-1])
                )
            return shared_pivot(tableau, base, r, enter, d)

        monkeypatch.setattr(lp_module, "_piece_gaps", gaps)
        monkeypatch.setattr(lp_module, "pivot", pivot)
        for trial in range(60):
            rng = rng_for(317, trial)
            n = 1 + trial % 5
            x = sample_vector(rng, n, 4, 4)
            pieces = []
            for _ in range(rng.randint(1, 3)):
                a = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(1, 5 - n // 2))]
                b = [small_rational(rng, 4, 2) for _ in a]
                i = rng.randrange(len(a))
                scale = rng.choice((1, 2, F(1, 3)))
                a.append(tuple(scale * v for v in a[i]))
                b.append(scale * b[i])
                if rng.random() < 0.4:
                    j = rng.randrange(len(a))
                    b[j] = sum(av * xv for av, xv in zip(a[j], x))
                pieces.append((tuple(a), tuple(b)))
            want = column_maxima(pieces, x, lp_max_oracle)
            assert column_maxima(pieces, x, lp_max) == want
            try:
                fx = eval_F_from_polyhedra(PolyhedralUnion(n, tuple(pieces)), x)
            except EmptyBelow:
                seen["empty"] += 1
                assert want == (None,) * n
            else:
                assert fx == want
        assert len(seen) == 4 and all(seen.values()), seen

    def test_one_slack_per_piece(self, monkeypatch):
        # b - Ax is computed once per (piece, point), not once per coordinate.
        calls = []
        slack = lp_module._slack

        def counting(piece, scale, xs):
            calls.append(piece)
            return slack(piece, scale, xs)

        monkeypatch.setattr(lp_module, "_slack", counting)
        u = example_union()
        for i in range(20):
            calls.clear()
            try:
                eval_F_from_polyhedra(u, sample_vector(rng_for(293, i), u.n, 4, 4))
            except EmptyBelow:
                pass
            assert 0 < len(calls) == len({id(a) for a in calls}) <= len(u.pieces)

    @pytest.mark.parametrize("kind", ["repeated", "doubled", "tight", "infeasible"])
    def test_degenerate_pieces_match_oracle(self, kind):
        # Every dual solve starts degenerate, since e_k has n - 1 zeros; these
        # pieces make the primal degenerate too, or empty below x with more
        # rows than coordinates.
        for trial in range(40):
            rng = rng_for(307, trial)
            n = rng.randint(1, 4)
            x = sample_vector(rng, n, 5, 4)
            a = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            b = [small_rational(rng, 5, 4) for _ in a]
            if kind in ("repeated", "doubled"):
                i = rng.randrange(len(a))
                scale = 1 if kind == "repeated" else 2
                a.append(tuple(scale * v for v in a[i]))
                b.append(scale * b[i])
            elif kind == "tight":
                b = [sum(av * xv for av, xv in zip(row, x)) for row in a]
            else:
                a.append(tuple(F(-int(j == 0)) for j in range(n)))
                b.append(-x[0] - 1)
                while len(a) <= n:
                    a.append(tuple(F(rng.randint(-3, 3)) for _ in range(n)))
                    b.append(small_rational(rng, 5, 4))
            k = rng.randrange(n)
            value = lp_max(tuple(a), tuple(b), x, k)
            assert value == lp_max_oracle(a, b, x, k)
            if kind in ("tight", "infeasible"):
                assert (value is None) == (kind == "infeasible")


class TestCrossForm:
    """The subfixed set of a min-max operator three ways: as a union of
    polyhedra (membership and F(x) = x) and as the encoded game graph."""

    def test_example_union_pieces(self):
        # One piece per choice of the maximizing branch in each coordinate,
        # branch 0 before 1, the last coordinate's choice innermost.
        rows = (
            (((1, 0, -1), 1), ((1, F(-1, 3), F(-2, 3)), F(4, 3))),
            (((F(-1, 4), 1, F(-3, 4)), F(3, 4)), ((0, 1, -1), TWO_PI)),
            (((-1, 0, 1), 0), ((0, -1, 1), 0)),
        )
        pieces = tuple(
            (tuple(r for r, _ in choice), tuple(c for _, c in choice)) for choice in product(*rows)
        )
        u = union_from_minmax(example_minmax())
        assert u == example_union() == PolyhedralUnion(3, pieces)

    def test_three_forms_agree(self):
        seen = {True: 0, False: 0}
        for trial in range(24):
            rng = rng_for(313, trial)
            op = random_minmax(rng, n=2 + trial % 3)
            u, g = union_from_minmax(op), graph_from_minmax(op)
            for _ in range(6):
                x = sample_vector(rng, op.n, 5, 4)
                try:
                    below = eval_F_from_polyhedra(u, x)
                except EmptyBelow:
                    points = [x]
                else:
                    # F(x) is the largest member below x, so it is subfixed.
                    points = [x, below]
                for p in points:
                    try:
                        fixed = eval_F_from_polyhedra(u, p) == p
                    except EmptyBelow:
                        fixed = False
                    inside = subfixed(g, p)
                    assert union_member(u, p) == fixed == inside, (trial, p)
                    seen[inside] += 1
        assert all(seen.values()), seen

    def test_empty_min_term_has_no_union(self):
        op = example_minmax()
        with pytest.raises(ValueError):
            union_from_minmax(replace(op, subsets=(((),), ((0, 1),), ((0, 1),))))


class TestExactInputs:
    """Floats and bools are refused at every entry point: 0.1 * 3 exceeds
    0.3 in floats, so a float piece would answer wrongly without a word."""

    def tenth(self):
        # {x : x_1 / 10 <= 3 / 10}, with ints where they are exact.
        return PolyhedralUnion(2, ((((F(1, 10), 0),), (F(3, 10),)),))

    @pytest.mark.parametrize("bad", [0.1, True, "1/10", None])
    def test_union_entries(self, bad):
        with pytest.raises(ValueError):
            PolyhedralUnion(2, ((((bad, 0),), (F(3, 10),)),))
        with pytest.raises(ValueError):
            PolyhedralUnion(2, ((((F(1, 10), 0),), (bad,)),))

    def test_union_stores_fractions(self):
        u = PolyhedralUnion(2, ((((1, 0),), (3,)),))
        assert all(type(v) is F for a, b in u.pieces for v in (*a[0], *b))
        assert eval_F_from_polyhedra(u, (5, 1)) == (F(3), F(1))

    @pytest.mark.parametrize("bad", [0.1, False])
    def test_lp_max_point(self, bad):
        a, b = ((F(1, 10), F(0)),), (F(3, 10),)
        assert lp_max(a, b, (3, 0), 0) == 3
        with pytest.raises(ValueError):
            lp_max(a, b, (bad, F(0)), 0)

    @pytest.mark.parametrize("bad", [3.0, True])
    def test_union_member_point(self, bad):
        assert union_member(self.tenth(), (3, 0))
        with pytest.raises(ValueError):
            union_member(self.tenth(), (bad, 0))

    @pytest.mark.parametrize("bad", [5.0, True])
    def test_eval_F_point(self, bad):
        fx = eval_F_from_polyhedra(self.tenth(), (5, 1))
        assert fx == (3, 1) and all(type(v) is F for v in fx)
        with pytest.raises(ValueError):
            eval_F_from_polyhedra(self.tenth(), (bad, 1))


class TestFalsifier:
    def test_tropically_convex_set_passes(self):
        assert tropical_convexity_falsifier(halfplane(), trials=200, seed=7) is None

    def test_counterexample_found(self):
        u = PolyhedralUnion(
            2,
            (
                (((F(1), F(0)),), (F(0),)),
                (((F(0), F(1)),), (F(0),)),
            ),
        )
        hit = tropical_convexity_falsifier(u, trials=200, seed=7)
        assert hit is not None
        y1, y2, lam, mu, z = hit
        assert union_member(u, y1) and union_member(u, y2)
        assert not union_member(u, z)
        assert max(lam, mu) == 0
        assert z == tuple(max(lam + a, mu + b) for a, b in zip(y1, y2))

    def test_zero_trials_vacuous(self):
        assert tropical_convexity_falsifier(halfplane(), trials=0) is None

    @staticmethod
    def _no_sampling(monkeypatch):
        def no_eval(u, x):
            raise AssertionError("a sample was evaluated")

        monkeypatch.setattr(lp_module, "eval_F_from_polyhedra", no_eval)

    @pytest.mark.parametrize("name, value", [("trials", -1), ("box", -1), ("denom", 0), ("denom", -4)])
    def test_meaningless_arguments_refused(self, monkeypatch, name, value):
        # Refused before any sample is drawn, with the argument named, as
        # `verify_graph` refuses its own.
        self._no_sampling(monkeypatch)
        with pytest.raises(ValueError, match=f"tropical_convexity_falsifier needs {name} >= "):
            tropical_convexity_falsifier(halfplane(), **{"trials": 1, name: value})

    @pytest.mark.parametrize(
        "kwargs",
        [{"trials": True}, {"trials": 20.0}, {"seed": 0.5}, {"seed": True}, {"box": True, "denom": True}, {"denom": 16.0}],
        ids=["trials-bool", "trials-float", "seed-float", "seed-bool", "box-denom-bool", "denom-float"],
    )
    def test_non_int_arguments_refused(self, monkeypatch, kwargs):
        # A bool is not read as 0 or 1, nor a float seed as some other seed.
        self._no_sampling(monkeypatch)
        with pytest.raises(ValueError, match="expected an integer"):
            tropical_convexity_falsifier(halfplane(), **{"trials": 1, **kwargs})


class TestSerialization:
    def test_round_trip(self):
        u = example_union()
        back = PolyhedralUnion.from_json(u.to_json())
        assert back.to_json() == u.to_json()

    def test_dimension_is_an_integer(self):
        obj = example_union().to_json()
        with pytest.raises(ValueError):
            PolyhedralUnion.from_json({**obj, "n": float(obj["n"])})

    @pytest.mark.parametrize("n", [True, 2.0, "2"], ids=["bool", "float", "string"])
    def test_constructor_checks_dimension_as_the_reader_does(self, n):
        # The constructor refuses a dimension that `from_json` refuses.
        with pytest.raises(ValueError):
            PolyhedralUnion(n, (((), ()),))
        with pytest.raises(ValueError):
            PolyhedralUnion.from_json({"n": n, "pieces": [{"A": [], "b": []}]})

    def test_needs_a_piece(self):
        with pytest.raises(ValueError):
            PolyhedralUnion(2, ())

    @pytest.mark.parametrize("n", [0, -1, -2])
    def test_dimension_is_positive(self, n):
        with pytest.raises(ValueError):
            PolyhedralUnion(n, (((), ()),))
        with pytest.raises(ValueError):
            PolyhedralUnion.from_json({"n": n, "pieces": [{"A": [], "b": []}]})

    def test_zero_dimension_rejected(self):
        # In dimension 0 the piece {() <= -1} holds no point, yet the only
        # vector below x = () is (), so F cannot tell it from a member.
        with pytest.raises(ValueError):
            PolyhedralUnion(0, ((((),), (F(-1),)),))
