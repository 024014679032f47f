"""Exact linear programming frontend for unions of rational polyhedra.

A closed semilinear real tropical cone given as U = union of {x : Ax <= b}
has the canonical operator F_k(x) = max over pieces of max{y_k : Ay <= b,
y <= x}. Each inner maximum is solved exactly as its LP dual, which always
has a feasible basis, by one phase of a rational simplex with Bland's rule
(no cycling); an unbounded dual means the piece has no point below x. The
operator skips coordinates that already reach x_k and stops going through
pieces once F(x) = x. Entries and points are ints or Fractions, never
floats: 3 * 0.1 > 0.3, so a float would give a wrong answer without a word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch, EmptyBelow
from .sampling import rng_for, sample_rational, sample_vector
from .scalars import int_from_json, rational_from_str, rational_to_str

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def _rational(v) -> Fraction:
    """v as a Fraction; ValueError unless it is an int (not a bool) or one."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ValueError(f"expected an int or a Fraction, not {v!r}")
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class PolyhedralUnion:
    """Union of polyhedra {x : A^(s) x <= b^(s)} in R^n, held as Fractions."""

    n: int
    pieces: tuple[tuple[Matrix, Vector], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a polyhedral union needs dimension at least 1, not {self.n}")
        if not self.pieces:
            raise ValueError("a polyhedral union needs at least one piece")
        pieces = []
        for a, b in self.pieces:
            if len(a) != len(b):
                raise DimensionMismatch("matrix and vector of different heights")
            for row in a:
                if len(row) != self.n:
                    raise DimensionMismatch(f"row of length {len(row)} in dimension {self.n}")
            pieces.append((tuple(tuple(map(_rational, row)) for row in a), tuple(map(_rational, b))))
        object.__setattr__(self, "pieces", tuple(pieces))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pieces": [
                {
                    "A": [[rational_to_str(v) for v in row] for row in a],
                    "b": [rational_to_str(v) for v in b],
                }
                for a, b in self.pieces
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PolyhedralUnion":
        pieces = tuple(
            (
                tuple(tuple(rational_from_str(v) for v in row) for row in piece["A"]),
                tuple(rational_from_str(v) for v in piece["b"]),
            )
            for piece in obj["pieces"]
        )
        return cls(int_from_json(obj["n"]), pieces)


def _pivot(tableau, basis, row, col):
    """Pivot on (row, col) in every row, the objective row included, and
    make col the basic variable of row."""
    piv = tableau[row][col]
    pivot_row = tableau[row] = [v / piv for v in tableau[row]]
    for i, line in enumerate(tableau):
        f = line[col]
        if i != row and f:
            tableau[i] = [a - f * b if b else a for a, b in zip(line, pivot_row)]
    basis[row] = col


def _slack(a: Matrix, b: Vector, x: Vector) -> list:
    """b - Ax, the row slacks of a piece at x, all >= 0 iff x is in it."""
    return [bi - sum(av * xv for av, xv in zip(row, x)) for row, bi in zip(a, b)]


def _dual_min(a: Matrix, h: list, x: Vector, k: int) -> Optional[Fraction]:
    """min{b.u + x.v : A^T u + v = e_k, u, v >= 0}, the dual of max{y_k :
    Ay <= b, y <= x} and equal to it; None if the dual is unbounded, which
    by Farkas' lemma means that no point of {Ay <= b} lies below x.

    The n rows (A^T | I | e_k) start on the basis v = e_k, so the reduced
    costs are h = b - Ax on u and 0 on v, and the objective entry is -x_k.
    Bland's rule: the lowest column with a negative reduced cost enters;
    the minimum ratio leaves, ties to the smaller basis index."""
    n, m = len(x), len(a)
    zero, one = Fraction(0), Fraction(1)
    e = [[one if i == j else zero for i in range(n)] for j in range(n)]
    tableau = [[row[j] for row in a] + e[j] + [e[k][j]] for j in range(n)]
    tableau.append(h + [zero] * n + [-x[k]])
    basis = list(range(m, m + n))
    while True:
        enter = next((j for j in range(m + n) if tableau[-1][j] < 0), None)
        if enter is None:
            return -tableau[-1][-1]
        ratios = [
            (line[-1] / line[enter], basis[i], i)
            for i, line in enumerate(tableau[:-1])
            if line[enter] > 0
        ]
        if not ratios:
            return None
        _pivot(tableau, basis, min(ratios)[2], enter)


def _point(u: PolyhedralUnion, x) -> Vector:
    x = tuple(map(_rational, x))
    if len(x) != u.n:
        raise DimensionMismatch(f"point of length {len(x)} in dimension {u.n}")
    return x


def lp_max(a: Matrix, b: Vector, x: Sequence[Fraction], k: int) -> Optional[Fraction]:
    """max{y_k : Ay <= b, y <= x}, exactly; None if infeasible. (A, b) is
    checked as a one-piece union, so entries are ints or Fractions too."""
    if not 0 <= k < len(x):
        raise DimensionMismatch(f"coordinate {k} out of range")
    u = PolyhedralUnion(len(x), ((a, b),))
    (a, b), x = u.pieces[0], _point(u, x)
    return _dual_min(a, _slack(a, b, x), x, k)


def union_member(u: PolyhedralUnion, x: Sequence[Fraction]) -> bool:
    x = _point(u, x)
    for a, b in u.pieces:
        if all(v >= 0 for v in _slack(a, b, x)):
            return True
    return False


def eval_F_from_polyhedra(u: PolyhedralUnion, x: Sequence[Fraction]) -> Vector:
    """The canonical operator of the union: per coordinate, the largest
    value attained below x. Raises EmptyBelow when no piece is feasible
    under y <= x."""
    x = _point(u, x)
    best = None
    for a, b in u.pieces:
        h, values = _slack(a, b, x), []
        for k, xk in enumerate(x):
            # No LP value exceeds x_k, so a coordinate already at x_k is final.
            v = xk if best is not None and best[k] == xk else _dual_min(a, h, x, k)
            if v is None:
                break  # the piece has no point below x
            values.append(v)
        else:
            best = tuple(values if best is None else map(max, best, values))
            if best == x:
                break
    if best is None:
        raise EmptyBelow(f"no point of the union lies below {x}")
    return best


def tropical_convexity_falsifier(
    u: PolyhedralUnion, trials: int, seed: int = 0, box: int = 10, denom: int = 16
):
    """Sample members and tropical combinations; return a violating
    (y1, y2, lam, mu, z) if the union is not tropically convex, else None."""
    for t in range(trials):
        rng = rng_for(seed, t)
        try:
            y1 = eval_F_from_polyhedra(u, sample_vector(rng, u.n, box, denom))
            y2 = eval_F_from_polyhedra(u, sample_vector(rng, u.n, box, denom))
        except EmptyBelow:
            continue
        lam = Fraction(0)
        mu = -abs(sample_rational(rng, box, denom))
        if rng.random() < 0.5:
            lam, mu = mu, lam
        z = tuple(max(lam + a, mu + b) for a, b in zip(y1, y2))
        if not union_member(u, z):
            return y1, y2, lam, mu, z
    return None
