"""Exact linear programming frontend for unions of rational polyhedra.

A closed semilinear real tropical cone given as U = union of {x : Ax <= b}
has the canonical operator F_k(x) = max over pieces of max{y_k : Ay <= b,
y <= x}. The inner maximum is solved exactly by a rational simplex with
Bland's rule (no cycling), whose reduced costs ride in the tableau as an
objective row that every pivot updates. Phase 1 runs once per (piece,
point) and phase 2 once per coordinate on a copy of its basis; the
operator skips coordinates that already reach x_k and stops going through
pieces once F(x) = x.
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


@dataclass(frozen=True)
class PolyhedralUnion:
    """Union of polyhedra {x : A^(s) x <= b^(s)} in R^n."""

    n: int
    pieces: tuple[tuple[Matrix, Vector], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a polyhedral union needs dimension at least 1, not {self.n}")
        if not self.pieces:
            raise ValueError("a polyhedral union needs at least one piece")
        for a, b in self.pieces:
            if len(a) != len(b):
                raise DimensionMismatch("matrix and vector of different heights")
            for row in a:
                if len(row) != self.n:
                    raise DimensionMismatch(f"row of length {len(row)} in dimension {self.n}")

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
    """Pivot on (row, col) in every row, an objective row included; rows
    are replaced, never mutated, so tableau copies may share them."""
    piv = tableau[row][col]
    pivot_row = tableau[row] = [v / piv for v in tableau[row]]
    for i, line in enumerate(tableau):
        f = line[col]
        if i != row and f:
            tableau[i] = [a - f * b if b else a for a, b in zip(line, pivot_row)]
    basis[row] = col


def _simplex(tableau, basis, ncols):
    """Bland's rule: the lowest column below ncols with a negative reduced
    cost enters; the minimum ratio leaves, ties to the smaller basis index.
    Both objectives here are bounded below by 0, so a ratio always exists."""
    while True:
        enter = next((j for j in range(ncols) if tableau[-1][j] < 0), None)
        if enter is None:
            return
        _, _, leave = min(
            (line[-1] / line[enter], basis[i], i)
            for i, line in enumerate(tableau[:-1])
            if line[enter] > 0
        )
        _pivot(tableau, basis, leave, enter)


def _phase1(a: Matrix, b: Vector, x: Vector):
    """A feasible basis of -A s <= b - Ax, s >= 0, which is {Ay <= b, y <= x}
    under y = x - s: (constraint rows over s and the slacks, basis), or
    None if the piece has no point below x. Rows with h_i < 0 are negated
    and start on an artificial variable; phase 1 minimises their sum."""
    n, m = len(x), len(a)
    h = [bi - sum(av * xv for av, xv in zip(row, x)) for row, bi in zip(a, b)]
    neg_rows = [i for i in range(m) if h[i] < 0]
    ncols = n + m + len(neg_rows)
    tableau, basis = [], []
    for i in range(m):
        row = [Fraction(0)] * (ncols + 1)
        sign = -1 if h[i] < 0 else 1
        for j in range(n):
            row[j] = -sign * a[i][j]
        row[n + i] = Fraction(sign)
        row[-1] = sign * h[i]
        basis.append(n + i)
        tableau.append(row)
    # Reduced costs of "minimise the artificials": 1 on each artificial
    # column minus the sum of the rows they start on.
    objective = [Fraction(0)] * (ncols + 1)
    for t, i in enumerate(neg_rows):
        tableau[i][n + m + t] = Fraction(1)
        basis[i] = n + m + t
        objective = [o - v for o, v in zip(objective, tableau[i])]
        objective[n + m + t] += 1
    if neg_rows:
        tableau.append(objective)
        _simplex(tableau, basis, ncols)
        if tableau.pop()[-1] != 0:
            return None
        # An artificial still basic sits at zero; pivot it out on any real
        # column, or leave it on its redundant, all-zero row.
        for i in range(m):
            if basis[i] >= n + m:
                col = next((j for j in range(n + m) if tableau[i][j] != 0), None)
                if col is not None:
                    _pivot(tableau, basis, i, col)
    return [row[: n + m] + row[-1:] for row in tableau], basis


def _phase2(start, x: Vector, k: int) -> Fraction:
    """max y_k = x_k - min s_k from a feasible basis of _phase1, solved on a
    copy so that the basis serves every coordinate."""
    rows, basis = start
    objective = [Fraction(0)] * (len(x) + len(rows) + 1)
    objective[k] = Fraction(1)
    if k in basis:
        objective = [o - v for o, v in zip(objective, rows[basis.index(k)])]
    tableau = rows + [objective]
    _simplex(tableau, list(basis), len(objective) - 1)
    return x[k] + tableau[-1][-1]


def lp_max(a: Matrix, b: Vector, x: Sequence[Fraction], k: int) -> Optional[Fraction]:
    """max{y_k : Ay <= b, y <= x}, exactly; None if infeasible.

    Solved through the substitution y = x - s with s >= 0, which bounds the
    objective, so the program is never unbounded.
    """
    n = len(x)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("matrix width does not match the point")
    if len(a) != len(b):
        raise DimensionMismatch("matrix and vector of different heights")
    if not 0 <= k < n:
        raise DimensionMismatch(f"coordinate {k} out of range")
    x = tuple(Fraction(v) for v in x)
    start = _phase1(a, b, x)
    return None if start is None else _phase2(start, x, k)


def union_member(u: PolyhedralUnion, x: Sequence[Fraction]) -> bool:
    x = tuple(Fraction(v) for v in x)
    if len(x) != u.n:
        raise DimensionMismatch(f"point of length {len(x)} in dimension {u.n}")
    for a, b in u.pieces:
        if all(sum(av * xv for av, xv in zip(row, x)) <= bi for row, bi in zip(a, b)):
            return True
    return False


def eval_F_from_polyhedra(u: PolyhedralUnion, x: Sequence[Fraction]) -> Vector:
    """The canonical operator of the union: per coordinate, the largest
    value attained below x. Raises EmptyBelow when no piece is feasible
    under y <= x."""
    x = tuple(Fraction(v) for v in x)
    if len(x) != u.n:
        raise DimensionMismatch(f"point of length {len(x)} in dimension {u.n}")
    best = None
    for a, b in u.pieces:
        start = _phase1(a, b, x)
        if start is None:
            continue
        # No LP value exceeds x_k, so a coordinate already at x_k is final.
        best = [
            _phase2(start, x, k) if best is None
            else best[k] if best[k] == x[k]
            else max(best[k], _phase2(start, x, k))
            for k in range(u.n)
        ]
        if best == list(x):
            break
    if best is None:
        raise EmptyBelow(f"no point of the union lies below {x}")
    return tuple(best)


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
