"""The polyhedral frontend: exact LP, the canonical operator of a union of
polyhedra, and the tropical convexity falsifier."""

from fractions import Fraction

import pytest

from support import lp_max_oracle, small_rational
from tropcone.errors import DimensionMismatch, EmptyBelow
from tropcone.fixtures import example_graph, example_union
from tropcone.graph import subfixed
from tropcone.lp import (
    PolyhedralUnion,
    eval_F_from_polyhedra,
    lp_max,
    tropical_convexity_falsifier,
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


class TestEvalF:
    def test_halfplane_hand_lp(self):
        assert eval_F_from_polyhedra(halfplane(), (F(5), F(0))) == (F(0), F(0))

    def test_member_point_is_fixed(self):
        u = halfplane()
        x = (F(-2), F(1))
        assert eval_F_from_polyhedra(u, x) == x

    def test_empty_below(self):
        u = PolyhedralUnion(1, ((((F(-1),),), (F(-3),)),))  # {y >= 3}
        with pytest.raises(EmptyBelow):
            eval_F_from_polyhedra(u, (F(0),))

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


class TestSerialization:
    def test_round_trip(self):
        u = example_union()
        back = PolyhedralUnion.from_json(u.to_json())
        assert back.to_json() == u.to_json()

    def test_dimension_is_an_integer(self):
        obj = example_union().to_json()
        with pytest.raises(ValueError):
            PolyhedralUnion.from_json({**obj, "n": float(obj["n"])})

    def test_needs_a_piece(self):
        with pytest.raises(ValueError):
            PolyhedralUnion(2, ())
