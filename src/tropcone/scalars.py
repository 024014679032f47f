"""Exact max-plus and signed max-plus scalar arithmetic.

All finite values are arbitrary-precision rationals (`fractions.Fraction`).
The additive zero of the semiring is a distinguished minus-infinity element,
not a numeric sentinel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import ArityMismatch, MixedSigns

RationalLike = Union[int, Fraction]


def rational_to_str(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def rational_from_str(s) -> Fraction:
    """A rational from JSON: a string such as "-7/3" or an integer. Floats
    (and booleans) are rejected, since they are rarely the value meant."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"expected a rational string or an integer, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc


def int_from_json(v) -> int:
    """An integer from JSON, such as an id, an index or a size. Floats,
    numeric strings and booleans are rejected rather than truncated."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


class Trop:
    """An element of R union {-inf} with max as addition and + as product."""

    __slots__ = ("_v",)

    def __init__(self, value=None):
        if value is None:
            self._v = None
        elif isinstance(value, Trop):
            self._v = value._v
        else:
            self._v = Fraction(value)

    @property
    def is_neg_inf(self) -> bool:
        return self._v is None

    @property
    def finite(self) -> Fraction:
        if self._v is None:
            raise ValueError("minus infinity has no finite value")
        return self._v

    def __eq__(self, other):
        if not isinstance(other, Trop):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(("Trop", self._v))

    def __le__(self, other: "Trop") -> bool:
        if self._v is None:
            return True
        if other._v is None:
            return False
        return self._v <= other._v

    def __lt__(self, other: "Trop") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "Trop") -> bool:
        return other <= self

    def __gt__(self, other: "Trop") -> bool:
        return other < self

    def __repr__(self):
        return "Trop(-inf)" if self._v is None else f"Trop({self._v})"

    def to_str(self) -> str:
        if self._v is None:
            return "-inf"
        return f"{self._v.numerator}/{self._v.denominator}"

    @classmethod
    def from_str(cls, s: str) -> "Trop":
        if s == "-inf":
            return NEG_INF
        return cls(rational_from_str(s))


NEG_INF = Trop()


def tadd(a: Trop, b: Trop) -> Trop:
    """Tropical addition: max(a, b). Minus infinity is neutral."""
    return a if b <= a else b


def tmul(a: Trop, b: Trop) -> Trop:
    """Tropical multiplication: a + b. Minus infinity is absorbing."""
    if a.is_neg_inf or b.is_neg_inf:
        return NEG_INF
    return Trop(a.finite + b.finite)


def tsum(items: Iterable[Trop]) -> Trop:
    """Tropical sum (max) of an iterable; empty sum is -inf."""
    acc = NEG_INF
    for x in items:
        acc = tadd(acc, x)
    return acc


def tscale(a: Trop, n: int) -> Trop:
    """Tropical n-th power: n * a."""
    if a.is_neg_inf:
        return NEG_INF if n > 0 else Trop(0)
    return Trop(a.finite * n)


class SignedTrop:
    """A signed tropical number: a sign in {-1, 0, +1} and a modulus.

    The sign is 0 exactly when the modulus is minus infinity.
    """

    __slots__ = ("sign", "modulus")

    def __init__(self, sign: int, modulus: Trop):
        if int_from_json(sign) not in (-1, 0, 1):
            raise ValueError(f"invalid sign {sign!r}")
        if (sign == 0) != modulus.is_neg_inf:
            raise ValueError("sign 0 iff modulus is -inf")
        self.sign = sign
        self.modulus = modulus

    @classmethod
    def pos(cls, value) -> "SignedTrop":
        return cls(1, Trop(value))

    @classmethod
    def neg(cls, value) -> "SignedTrop":
        return cls(-1, Trop(value))

    @classmethod
    def zero(cls) -> "SignedTrop":
        return SZERO

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __eq__(self, other):
        if not isinstance(other, SignedTrop):
            return NotImplemented
        return self.sign == other.sign and self.modulus == other.modulus

    def __hash__(self):
        return hash(("SignedTrop", self.sign, self.modulus))

    def __repr__(self):
        if self.sign == 0:
            return "SignedTrop(-inf)"
        mark = "-" if self.sign < 0 else "+"
        return f"SignedTrop({mark}{self.modulus.to_str()})"

    @classmethod
    def from_json(cls, obj: dict) -> "SignedTrop":
        return cls(obj["sign"], Trop.from_str(obj["abs"]))


SZERO = SignedTrop(0, NEG_INF)


def smul(a: SignedTrop, b: SignedTrop) -> SignedTrop:
    """Signed tropical multiplication with the usual sign rules."""
    sign = a.sign * b.sign
    if sign == 0:
        return SZERO
    return SignedTrop(sign, tmul(a.modulus, b.modulus))


def sadd(a: SignedTrop, b: SignedTrop) -> SignedTrop:
    """Signed tropical addition; defined only when signs do not clash."""
    if a.sign * b.sign == -1:
        raise MixedSigns(f"cannot add {a!r} and {b!r}")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return SignedTrop(a.sign, tadd(a.modulus, b.modulus))


class TropPolynomial:
    """A signed tropical polynomial in n variables.

    Monomials are keyed by (exponent vector, sign); same-key duplicates are
    merged by tropical addition of their moduli.
    """

    __slots__ = ("arity", "monomials")

    def __init__(self, arity: int, monomials=()):
        self.arity = arity
        merged: dict = {}
        for exps, coeff in monomials:
            exps = tuple(exps)
            if len(exps) != arity:
                raise ArityMismatch(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            if coeff.is_zero:
                continue
            key = (exps, coeff.sign)
            if key in merged:
                merged[key] = tadd(merged[key], coeff.modulus)
            else:
                merged[key] = coeff.modulus
        self.monomials = merged

    def eval_pm(self, x) -> tuple[Trop, Trop]:
        """Evaluate the positive and negative parts at x in T^n."""
        if len(x) != self.arity:
            raise ArityMismatch(f"point has length {len(x)}, arity {self.arity}")
        plus = NEG_INF
        minus = NEG_INF
        for (exps, sign), modulus in self.monomials.items():
            term = modulus
            for e, xi in zip(exps, x):
                if e:
                    term = tmul(term, tscale(xi, e))
            if sign > 0:
                plus = tadd(plus, term)
            else:
                minus = tadd(minus, term)
        return plus, minus


def poly_eval_pm(poly: TropPolynomial, x) -> tuple[Trop, Trop]:
    return poly.eval_pm(x)
