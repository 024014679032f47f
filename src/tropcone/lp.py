"""Exact linear programming frontend for unions of rational polyhedra.

A closed semilinear real tropical cone given as U = union of {x : Ax <= b}
has the canonical operator F_k(x) = max over pieces of max{y_k : Ay <= b,
y <= x}. The inner maximum is solved exactly with a two-phase rational
simplex (Bland's rule, no cycling).
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


class _Unbounded(Exception):
    pass


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, line in enumerate(tableau):
        if i != row and line[col] != 0:
            f = line[col]
            tableau[i] = [a - f * b for a, b in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(tableau, basis, costs, ncols):
    m = len(tableau)
    while True:
        reduced = [
            costs[j] - sum(costs[basis[i]] * tableau[i][j] for i in range(m))
            for j in range(ncols)
        ]
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            return
        candidates = [
            (tableau[i][-1] / tableau[i][enter], basis[i], i)
            for i in range(m)
            if tableau[i][enter] > 0
        ]
        if not candidates:
            raise _Unbounded
        _, _, leave = min(candidates)
        _pivot(tableau, basis, leave, enter)


def _solve_min(c: Sequence[Fraction], g_rows, h) -> Optional[tuple[Fraction, list]]:
    """min c.s subject to G s <= h, s >= 0; returns (value, s) or None if
    infeasible; raises _Unbounded if the minimum is unbounded below."""
    n = len(c)
    m = len(g_rows)
    neg_rows = [i for i in range(m) if h[i] < 0]
    n_art = len(neg_rows)
    ncols = n + m + n_art
    art_index = {i: n + m + t for t, i in enumerate(neg_rows)}

    tableau = []
    basis = []
    for i in range(m):
        row = [Fraction(0)] * (ncols + 1)
        sign = -1 if h[i] < 0 else 1
        for j in range(n):
            row[j] = sign * g_rows[i][j]
        row[n + i] = Fraction(sign)
        row[-1] = sign * h[i]
        if h[i] < 0:
            row[art_index[i]] = Fraction(1)
            basis.append(art_index[i])
        else:
            basis.append(n + i)
        tableau.append(row)

    if n_art:
        phase1 = [Fraction(0)] * ncols
        for i in neg_rows:
            phase1[art_index[i]] = Fraction(1)
        _run_simplex(tableau, basis, phase1, ncols)
        value = sum(phase1[basis[i]] * tableau[i][-1] for i in range(m))
        if value > 0:
            return None
        for i in range(m):
            if basis[i] >= n + m:
                col = next(
                    (j for j in range(n + m) if tableau[i][j] != 0), None
                )
                if col is not None:
                    _pivot(tableau, basis, i, col)

    phase2 = list(c) + [Fraction(0)] * (ncols - n)
    for t in range(n + m, ncols):
        phase2[t] = Fraction(0)
    _run_simplex(tableau, basis, phase2, n + m)

    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = tableau[i][-1]
    value = sum(ci * si for ci, si in zip(c, solution))
    return value, solution


def lp_max(a: Matrix, b: Vector, x: Sequence[Fraction], k: int) -> Optional[Fraction]:
    """max{y_k : Ay <= b, y <= x}, exactly; None if infeasible.

    Solved through the substitution y = x - s with s >= 0, which bounds the
    objective, so the program is never unbounded.
    """
    n = len(x)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("matrix width does not match the point")
    if not 0 <= k < n:
        raise DimensionMismatch(f"coordinate {k} out of range")
    x = tuple(Fraction(v) for v in x)
    g_rows = [tuple(-v for v in row) for row in a]
    h = [bi - sum(av * xv for av, xv in zip(row, x)) for row, bi in zip(a, b)]
    c = [Fraction(0)] * n
    c[k] = Fraction(1)
    try:
        res = _solve_min(c, g_rows, h)
    except _Unbounded:  # pragma: no cover - impossible by construction
        raise AssertionError("objective bounded below by 0 cannot be unbounded")
    if res is None:
        return None
    value, _ = res
    return x[k] - value


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
    result = []
    for k in range(u.n):
        best = None
        for a, b in u.pieces:
            opt = lp_max(a, b, x, k)
            if opt is not None and (best is None or opt > best):
                best = opt
        if best is None:
            raise EmptyBelow(f"no point of the union lies below {x}")
        result.append(best)
    return tuple(result)


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
