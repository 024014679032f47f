"""Scalar, signed scalar, and polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import signed_json
from tropcone.errors import ArityMismatch, MixedSigns
from tropcone.scalars import (
    NEG_INF,
    SignedTrop,
    Trop,
    TropPolynomial,
    poly_eval_pm,
    sadd,
    smul,
    tadd,
    tmul,
    tscale,
    tsum,
)

trops = st.one_of(
    st.just(NEG_INF),
    st.fractions(min_value=-50, max_value=50, max_denominator=16).map(Trop),
)
finite_signed = st.tuples(
    st.sampled_from([-1, 1]),
    st.fractions(min_value=-50, max_value=50, max_denominator=16),
).map(lambda t: SignedTrop(t[0], Trop(t[1])))
signeds = st.one_of(st.just(SignedTrop.zero()), finite_signed)


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

    def test_tsum_empty(self):
        assert tsum([]) == NEG_INF

    def test_str_round_trip(self):
        for t in (NEG_INF, Trop(Fraction(-7, 3)), Trop(4)):
            assert Trop.from_str(t.to_str()) == t

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
    def test_smul_sign_rules(self):
        assert smul(SignedTrop.neg(3), SignedTrop.pos(7)) == SignedTrop.neg(10)
        assert smul(SignedTrop.neg(3), SignedTrop.neg(7)) == SignedTrop.pos(10)

    def test_smul_zero_absorbing(self):
        assert smul(SignedTrop.zero(), SignedTrop.neg(5)).is_zero

    def test_sadd_same_sign(self):
        assert sadd(SignedTrop.neg(3), SignedTrop.neg(7)) == SignedTrop.neg(7)

    def test_sadd_mixed_signs(self):
        with pytest.raises(MixedSigns):
            sadd(SignedTrop.neg(3), SignedTrop.pos(7))

    def test_sadd_zero_neutral(self):
        assert sadd(SignedTrop.zero(), SignedTrop.pos(4)) == SignedTrop.pos(4)

    def test_sign_zero_iff_neg_inf(self):
        with pytest.raises(ValueError):
            SignedTrop(0, Trop(1))
        with pytest.raises(ValueError):
            SignedTrop(1, NEG_INF)

    @pytest.mark.parametrize("sign", [True, 1.0, "1"])
    def test_sign_must_be_an_integer(self, sign):
        with pytest.raises(ValueError):
            SignedTrop(sign, Trop(1))

    def test_json_round_trip(self):
        for s in (SignedTrop.zero(), SignedTrop.pos(Fraction(2, 7)), SignedTrop.neg(-1)):
            assert SignedTrop.from_json(signed_json(s)) == s

    @given(trops, trops)
    def test_positive_part_isomorphic(self, a, b):
        sa = SignedTrop.zero() if a.is_neg_inf else SignedTrop(1, a)
        sb = SignedTrop.zero() if b.is_neg_inf else SignedTrop(1, b)
        assert sadd(sa, sb).modulus == tadd(a, b)
        assert smul(sa, sb).modulus == tmul(a, b)


class TestTropPolynomial:
    def test_eval_both_parts(self):
        p = TropPolynomial(
            2,
            [((1, 0), SignedTrop.pos(0)), ((0, 1), SignedTrop.neg(0))],
        )
        assert p.eval_pm((Trop(1), Trop(2))) == (Trop(1), Trop(2))

    def test_empty_negative_part(self):
        p = TropPolynomial(1, [((1,), SignedTrop.pos(2))])
        plus, minus = p.eval_pm((Trop(5),))
        assert plus == Trop(7)
        assert minus == NEG_INF

    def test_all_positive_constant_and_linear(self):
        p = TropPolynomial(
            2,
            [((0, 0), SignedTrop.pos(Fraction(4, 3))), ((0, 1), SignedTrop.pos(Fraction(1, 3)))],
        )
        assert poly_eval_pm(p, (Trop(0), Trop(2))) == (Trop(Fraction(7, 3)), NEG_INF)

    def test_same_key_monomials_merge(self):
        p = TropPolynomial(1, [((1,), SignedTrop.pos(1)), ((1,), SignedTrop.pos(3))])
        assert len(p.monomials) == 1
        assert p.eval_pm((Trop(0),)) == (Trop(3), NEG_INF)

    def test_arity_mismatch(self):
        p = TropPolynomial(2, [((1, 0), SignedTrop.pos(0))])
        with pytest.raises(ArityMismatch):
            p.eval_pm((Trop(0),))
        with pytest.raises(ArityMismatch):
            TropPolynomial(2, [((1,), SignedTrop.pos(0))])

    @given(st.lists(st.tuples(trops, trops), min_size=1, max_size=3))
    def test_monotone_in_each_sign_part(self, pairs):
        p = TropPolynomial(
            2,
            [
                ((1, 0), SignedTrop.pos(1)),
                ((0, 2), SignedTrop.pos(0)),
                ((1, 1), SignedTrop.neg(2)),
            ],
        )
        for a, b in pairs:
            lo = (tadd(a, NEG_INF), b)
            hi = (tadd(a, Trop(1)), tadd(b, Trop(2)))
            plo, mlo = p.eval_pm(lo)
            phi, mhi = p.eval_pm(hi)
            assert plo <= phi
            assert mlo <= mhi

    def test_tscale_power(self):
        assert tscale(Trop(Fraction(3, 2)), 2) == Trop(3)
        assert tscale(NEG_INF, 3) == NEG_INF
        assert tscale(NEG_INF, 0) == Trop(0)
