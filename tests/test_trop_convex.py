"""Cone and hull membership by residuation, the oracles of tests/support.py,
against a brute-force oracle, and the generator sets of `tropcone.pencil`
that they read."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import cone_member, hull_member, hull_member_bruteforce, residual_coefficient, tadd, tmul
from tropcone.errors import DimensionMismatch
from tropcone.pencil import TropPointSet
from tropcone.sampling import rng_for, sample_trop_vector
from tropcone.scalars import NEG_INF, Trop

T = Trop
Z = Trop(0)


def pts(*rows):
    return TropPointSet(len(rows[0]), tuple(tuple(T(c) if c is not None else NEG_INF for c in r) for r in rows))


class TestResiduation:
    def test_generator_is_member(self):
        g = pts((1, 2), (0, 5))
        for p in g.points:
            assert cone_member(p, g)

    def test_diagonal_point_not_in_single_ray(self):
        assert not cone_member((Z, T(1)), pts((0, 0)))

    def test_axes_span_positive_orthant(self):
        g = pts((0, None), (None, 0))
        assert cone_member((T(5), T(7)), g)
        assert residual_coefficient((T(5), T(7)), g.points[0]) == T(5)

    def test_neg_inf_generator_inert(self):
        g = TropPointSet(2, ((NEG_INF, NEG_INF), (Z, Z)))
        assert cone_member((T(3), T(3)), g)
        assert not cone_member((T(3), T(4)), g)

    def test_scale_invariance_of_generators(self):
        g1 = pts((0, 1), (2, 0))
        g2 = pts((5, 6), (-1, -3))
        rng = rng_for(11, 0)
        for i in range(40):
            y = sample_trop_vector(rng_for(11, i), 2, 6, 8)
            assert cone_member(y, g1) == cone_member(y, g2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cone_member((Z,), pts((0, 0)))
        with pytest.raises(DimensionMismatch):
            TropPointSet(2, ((Z,),))


class TestRawPoints:
    """A generator set holds `Trop`s, and membership reads y the same way,
    so ints, Fractions and None (-inf) answer as their `Trop`s do."""

    def test_point_set_converts_its_points(self):
        g = TropPointSet(2, ((0, Fraction(1, 2)), (None, 3)))
        assert g.points == ((Z, T(Fraction(1, 2))), (NEG_INF, T(3)))

    def test_float_coordinate_refused(self):
        with pytest.raises(ValueError):
            TropPointSet(1, ((0.5,),))
        with pytest.raises(ValueError):
            hull_member((0.5,), TropPointSet(1, ((0,),)))

    @pytest.mark.parametrize(
        "dimension, points", [(True, ((0,),)), (1.0, ((0,),)), (-1, ())], ids=["bool", "float", "negative"]
    )
    def test_dimension_is_a_nonnegative_int(self, dimension, points):
        # Read by int_from_json, as the size of a min-max operator or a union is.
        with pytest.raises(ValueError):
            TropPointSet(dimension, points)

    def test_hull_member_on_raw_points(self):
        raw = TropPointSet(2, ((0, 1),))
        assert hull_member((Trop(0), Trop(1)), raw)
        assert hull_member((0, 1), raw)
        assert not hull_member((0, 2), raw)
        segment = TropPointSet(2, ((0, 0), (2, 2)))
        assert hull_member((1, 1), segment)
        assert not hull_member((0, 2), segment)

    def test_cone_member_on_raw_points(self):
        raw = TropPointSet(2, ((0, None), (None, 0)))
        assert cone_member((5, 7), raw)
        assert cone_member((T(5), None), raw)
        assert not cone_member((0, 1), TropPointSet(2, ((0, 0),)))
        assert cone_member((3, 3), TropPointSet(2, ((0, 0),)))


class TestHull:
    def test_generator_is_member(self):
        g = pts((0, 0), (2, 2))
        assert hull_member((Z, Z), g)

    def test_segment_interior(self):
        assert hull_member((T(1), T(1)), pts((0, 0), (2, 2)))

    def test_off_segment(self):
        assert not hull_member((Z, T(2)), pts((0, 0), (2, 2)))

    def test_union_wrapper(self):
        # The hull of a union is the hull of the concatenated generators.
        assert hull_member((T(1), T(1)), pts((0, 0), (2, 2)))
        assert not hull_member((Z, T(2)), pts((0, 0), (2, 2)))
        assert hull_member((Z, Z), pts((0, None), (None, 0)))

    def test_closure_under_combinations(self):
        g = pts((0, 3, -1), (2, 0, 0), (None, 1, 4))
        for i in range(60):
            rng = rng_for(23, i)
            x = g.points[rng.randrange(3)]
            y = g.points[rng.randrange(3)]
            mu = Trop(-abs(Fraction(rng.randint(0, 40), rng.randint(1, 8))))
            lam = Z
            if rng.random() < 0.5:
                lam, mu = mu, lam
            z = tuple(tadd(tmul(lam, a), tmul(mu, b)) for a, b in zip(x, y))
            assert hull_member(z, g)


class TestCaratheodoryOracle:
    def test_agrees_with_subset_search(self):
        for trial in range(8):
            rng = rng_for(31, trial)
            gens = TropPointSet(
                3,
                tuple(sample_trop_vector(rng, 3, 5, 6, 0.25) for _ in range(rng.randint(1, 5))),
            )
            for i in range(25):
                y = sample_trop_vector(rng_for(37 + trial, i), 3, 5, 6, 0.3)
                assert hull_member(y, gens) == hull_member_bruteforce(y, gens)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_members_need_few_generators(self, seed, count):
        rng = rng_for(seed, count)
        gens = TropPointSet(
            2, tuple(sample_trop_vector(rng, 2, 5, 4, 0.2) for _ in range(count))
        )
        y = sample_trop_vector(rng, 2, 5, 4, 0.2)
        assert hull_member(y, gens) == hull_member_bruteforce(y, gens)
