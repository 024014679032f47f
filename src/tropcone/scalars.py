"""Exact scalars: max-plus elements (`Trop`), signed tropical coefficients
(`SignedTrop`), and the rules that read rationals and integers from text
and JSON, check lengths and turn rationals into integers.

All finite values are arbitrary-precision rationals (`fractions.Fraction`),
never floats; a `Trop` keeps a `Fraction` it is given. The additive zero of
the semiring is a minus-infinity element, not a numeric sentinel. The
module holds no max-plus sum or product: each kernel computes in integers
over a common denominator (`integers_over`, `times`), and a list of
probabilities is checked to sum to one by `sums_to_one`, which reads each
once. A rational with more digits than Python writes is named by its size
in a message (`rational_text`) and refused as output (`rational_to_str`).
The absorption solve and the LP tableau update their rows by one `pivot`.

A query point enters every kernel one way: `integers_over` reads each
coordinate once, a `Fraction` (by its exact type) by `as_integer_ratio`, a
`Trop` by its value, None and a -inf `Trop` as None (-inf), and anything
else by `exact`, so a float or a bool raises ValueError; the common
denominator grows by an lcm only when a denominator does not divide it.
Only the LP frontend, whose polyhedra live in R^n, reads by
`finite_integers_over`, which refuses -inf with `exact`'s message.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

from .errors import DimensionMismatch, TooManyDigits


def rational_text(q: Fraction) -> str:
    """q as `str` writes it, for a message, or its size when it has more
    digits than Python turns into a string (`sys.get_int_max_str_digits`)."""
    try:
        return str(q)
    except ValueError:
        n, d = q.numerator.bit_length(), q.denominator.bit_length()
        return f"a rational with a {n}-bit numerator and a {d}-bit denominator"


def rational_to_str(r: Fraction) -> str:
    """r as "N/D"; TooManyDigits when Python will not write N or D."""
    try:
        return f"{r.numerator}/{r.denominator}"
    except ValueError as exc:
        raise TooManyDigits(f"{rational_text(r)} has too many digits to print") from exc


def rational_from_str(s) -> Fraction:
    """A rational from JSON or the command line: a string such as "-7/3" or
    an integer. Floats (and booleans) are rejected, since they are rarely the
    value meant, and so is exponent notation: "1e10000000" is ten characters
    but a 33-million-bit integer."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"expected a rational string or an integer, got {s!r}")
    if isinstance(s, str) and "e" in s.lower():
        raise ValueError(f"exponent notation is not accepted: {s!r}")
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


def exact(v) -> Fraction:
    """v as a Fraction: a Fraction, an int, a string read by
    `rational_from_str` or a finite `Trop`. A float, whose binary value is
    rarely the one meant (3 * 0.1 > 0.3), a bool, rarely meant as 0 or 1,
    -inf and None raise ValueError rather than give a wrong answer."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, Trop) and not v.is_neg_inf:
        return v.finite
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        return rational_from_str(v)
    raise ValueError(
        f"{v!r} is a {type(v).__name__}, not an exact number: pass a Fraction, an int, a string or a finite Trop"
    )


def rational(v) -> Fraction:
    """v as a Fraction; ValueError unless it is an int (not a bool) or one.
    Stricter than `exact`: the entries of a stored operator or union take no
    string either."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ValueError(f"expected an int or a Fraction, not {v!r}")
    return v if isinstance(v, Fraction) else Fraction(v)


def sized(x, n: int):
    """x, checked to have length n (DimensionMismatch otherwise): the one
    length check, for every point taken and every row and list of a stored
    min-max operator or union."""
    if len(x) != n:
        raise DimensionMismatch(f"length {len(x)}, expected {n}")
    return x


@total_ordering
class Trop:
    """An element of R union {-inf} with max as addition and + as product,
    ordered by `<=` with -inf below every finite value."""

    __slots__ = ("_v",)

    def __init__(self, value=None):
        if value is None:
            self._v = None
        elif type(value) is Fraction:
            self._v = value
        elif isinstance(value, Trop):
            self._v = value._v
        else:
            self._v = exact(value)

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

    def __repr__(self):
        return "Trop(-inf)" if self._v is None else f"Trop({self._v})"

    def to_str(self) -> str:
        return "-inf" if self._v is None else rational_to_str(self._v)

    @classmethod
    def from_str(cls, s: str) -> "Trop":
        if s == "-inf":
            return NEG_INF
        return cls(rational_from_str(s))


NEG_INF = Trop()


def times(q: Fraction, m: int) -> int:
    """q * m as an int, for an m that q's denominator divides."""
    return q.numerator * (m // q.denominator)


def integers_over(vals, scale: int) -> tuple:
    """(D, [v * D for v in vals]) for D = lcm(scale, every denominator in
    vals), -inf as None: the one reader of a query point (see the module
    docstring). Max-plus comparisons do not change when every value is
    multiplied by D. With `times` and `sums_to_one`, the one way a rational
    becomes an integer."""
    d, read = scale, []
    for v in vals:
        if type(v) is not Fraction and v is not None:
            v = v._v if isinstance(v, Trop) else exact(v)
        q = None if v is None else v.as_integer_ratio()
        if q and d % q[1]:
            d = lcm(d, q[1])
        read.append(q)
    return d, [None if q is None else q[0] * (d // q[1]) for q in read]


def finite_integers_over(vals, scale: int) -> tuple:
    """`integers_over`, refusing None and -inf by `exact` (module docstring)."""
    d, y = integers_over(vals, scale)
    if None in y:
        exact(vals[y.index(None)])
    return d, y


def sums_to_one(vals) -> bool:
    """Do the rationals vals sum to exactly 1? One running integer sum n
    over d, the lcm of the denominators so far, each value read once by
    `as_integer_ratio`; d grows only when a denominator does not divide it.
    An empty list sums to 0."""
    n, d = 0, 1
    for v in vals:
        a, b = v.as_integer_ratio()
        if d % b:
            f = b // gcd(d, b)
            n, d = n * f, d * f
        n += a * (d // b)
    return n == d


def pivot(rows: list, base: list, r: int, c: int, d: int) -> int:
    """The one fraction-free pivot (Edmonds 1967, Bareiss 1968), on row r
    and column c after the pivot d (1 before the first); returns the new
    pivot p > 0. Row i is base[i] > 0 times its rational value. Row r is
    first brought up to d, row * d / base[r], and negated if its entry in
    column c is negative, so p is that entry's modulus and stored signs are
    rational signs. Each other row with a nonzero f in column c becomes
    (p * row - f * row r) / base[i]; it and row r are then at base p, both
    divisions exact. Every other row is left alone."""
    row, b = rows[r], base[r]
    if b != d:
        row = [x * d // b for x in row]
    if row[c] < 0:
        row = [-x for x in row]
    p = row[c]
    rows[r], base[r] = row, p
    for i, line in enumerate(rows):
        f = line[c]
        if f and i != r:
            b = base[i]
            rows[i] = [(p * x - f * y) // b for x, y in zip(line, row)]
            base[i] = p
    return p


class SignedTrop:
    """A nonzero signed tropical number: a sign, -1 or 1, and a finite
    `Trop` modulus. A zero coefficient of a pencil is absent, not signed."""

    __slots__ = ("sign", "modulus")

    def __init__(self, sign: int, modulus: Trop):
        if type(sign) is not int:
            int_from_json(sign)
        if sign not in (-1, 1):
            raise ValueError(f"invalid sign {sign!r}: a signed coefficient is -1 or 1")
        if not isinstance(modulus, Trop):
            raise ValueError(f"a signed coefficient's modulus is a Trop, not {modulus!r}")
        if modulus.is_neg_inf:
            raise ValueError("a signed coefficient has a finite modulus, not -inf")
        self.sign = sign
        self.modulus = modulus

    @classmethod
    def pos(cls, value) -> "SignedTrop":
        return cls(1, Trop(value))

    @classmethod
    def neg(cls, value) -> "SignedTrop":
        return cls(-1, Trop(value))

    def __eq__(self, other):
        if not isinstance(other, SignedTrop):
            return NotImplemented
        return self.sign == other.sign and self.modulus == other.modulus

    def __hash__(self):
        return hash(("SignedTrop", self.sign, self.modulus))

    def __repr__(self):
        mark = "-" if self.sign < 0 else "+"
        return f"SignedTrop({mark}{self.modulus.to_str()})"
