"""Exact linear programming frontend for unions of rational polyhedra.

A closed semilinear real tropical cone given as U = union of {x : Ax <= b}
has the canonical operator F_k(x) = max over pieces of max{y_k : Ay <= b,
y <= x}. Each inner maximum is solved exactly as its LP dual, which always
has a feasible basis, by one phase of Bland's rule (no cycling) with
fraction-free integer pivoting, one scaling per point (Edmonds 1967,
Bareiss 1968); an unbounded dual means the piece has no point below x.
The operator skips coordinates that already reach x_k and stops going
through pieces once F(x) = x. Entries and points are ints or Fractions,
never floats: 3 * 0.1 > 0.3, so a float would give a wrong answer without
a word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatch, EmptyBelow
from .graph import MinMaxOperator
from .sampling import check_sampling, rng_for, sample_rational, sample_vector
from .scalars import int_from_json, integers_over, rational, rational_from_str, rational_to_str
from .scalars import sized

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class PolyhedralUnion:
    """Union of polyhedra {x : A^(s) x <= b^(s)} in R^n, held as Fractions."""

    n: int
    pieces: tuple[tuple[Matrix, Vector], ...]

    def __post_init__(self):
        if int_from_json(self.n) < 1:
            raise ValueError(f"a polyhedral union needs dimension at least 1, not {self.n}")
        if not self.pieces:
            raise ValueError("a polyhedral union needs at least one piece")
        pieces = []
        for a, b in self.pieces:
            for row in sized(a, len(b)):
                sized(row, self.n)
            pieces.append((tuple(tuple(map(rational, row)) for row in a), tuple(map(rational, b))))
        object.__setattr__(self, "pieces", tuple(pieces))

    @cached_property
    def plan(self) -> tuple:
        """The integer form every evaluation reads, built on the first one
        and not in `__post_init__`, so a union never evaluated pays nothing
        for it: per piece (rows, rhs, cols). Row i of (A | b) is multiplied by s_i,
        the lcm of its denominators: rows[i] = s_i * A_i and rhs[i] = s_i *
        b_i. cols[j] is column j of the scaled A, the j-th row of the dual
        tableau (A^T with column i scaled by s_i)."""
        plan = []
        for a, b in self.pieces:
            rows, rhs = [], []
            for row, bi in zip(a, b):
                _, (*scaled, si) = integers_over((*row, bi), 1)
                rows.append(tuple(scaled))
                rhs.append(si)
            cols = tuple(tuple(row[j] for row in rows) for j in range(self.n))
            plan.append((tuple(rows), tuple(rhs), cols))
        return tuple(plan)

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
        return cls(obj["n"], pieces)


def union_from_minmax(op: MinMaxOperator) -> PolyhedralUnion:
    """The subfixed set {x <= F(x)} of the min-max operator F as a union of
    polyhedra. x_k <= max_{s in S_ki} (A^(s)_k x + b^(s)_k) holds for every
    (k, i) when it holds for one s per S_ki, so there is one piece per
    choice, with rows (e_k - A^(s)_k) x <= b^(s)_k, in `itertools.product`
    order over the (k, i). An empty S_ki leaves no piece: ValueError."""
    choices = [
        [
            (tuple(int(j == k) - a for j, a in enumerate(op.matrices[s][k])), op.offsets[s][k])
            for s in s_ki
        ]
        for k, per_k in enumerate(op.subsets)
        for s_ki in per_k
    ]
    pieces = (
        (tuple(row for row, _ in rows), tuple(c for _, c in rows)) for rows in product(*choices)
    )
    return PolyhedralUnion(op.n, tuple(pieces))


def _slack(piece: tuple, scale: int, xs: list) -> list:
    """The row slacks of a plan piece at the point x = xs / scale, as the
    integers scale * s_i * (b - Ax)_i: all >= 0 iff x is in the piece."""
    rows, rhs, _ = piece
    return [scale * bi - sum(map(mul, row, xs)) for row, bi in zip(rows, rhs)]


def _dual_min(piece: tuple, h: list, scale: int, xs: list, k: int) -> Optional[Fraction]:
    """min{b.u + x.v : A^T u + v = e_k, u, v >= 0}, the dual of max{y_k :
    Ay <= b, y <= x} and equal to it; None if the dual is unbounded, which
    by Farkas' lemma means that no point of {Ay <= b} lies below x.

    The n rows (cols[j] | e_j | [j = k]) start on the basis v = e_k, with
    the u columns scaled by s_i and the objective row (h | 0 | -xs_k) by
    scale, h the slacks. Positive scalings keep the sign of every reduced
    cost and the order of every ratio, so the pivots are those of the
    rational tableau. Bland's rule: the lowest column with a negative
    reduced cost enters; the minimum ratio leaves, ties to the smaller basis
    index. Each pivot p updates every other row to (T_i p - T_ic T_r) / d,
    d the previous pivot, an exact division (Edmonds 1967, Bareiss 1968);
    every stored row is d times its rational value."""
    cols = piece[2]
    n, m = len(xs), len(h)
    tableau = [[*cols[j], *(0,) * n, int(j == k)] for j in range(n)]
    for j in range(n):
        tableau[j][m + j] = 1
    tableau.append([*h, *(0,) * n, -xs[k]])
    basis = list(range(m, m + n))
    d = 1
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(m + n) if cost[j] < 0), None)
        if enter is None:
            return Fraction(-cost[-1], d * scale)
        r = None
        for i in range(n):
            q = tableau[i][enter]
            if q > 0:
                if r is None:
                    r = i
                    continue
                # rhs_i / q against rhs_r / T_r,enter, both denominators > 0
                lhs, rhs = tableau[i][-1] * tableau[r][enter], tableau[r][-1] * q
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r is None:
            return None
        pivot_row = tableau[r]
        p = pivot_row[enter]
        for i, line in enumerate(tableau):
            if i != r:
                f = line[enter]
                tableau[i] = [(a * p - f * b) // d for a, b in zip(line, pivot_row)]
        basis[r] = enter
        d = p


def _point(u: PolyhedralUnion, x) -> tuple:
    """(x, L, xs): x as Fractions and xs = L * x as integers, L the lcm of
    its denominators."""
    x = sized(tuple(map(rational, x)), u.n)
    return (x, *integers_over(x, 1))


def lp_max(a: Matrix, b: Vector, x: Sequence[Fraction], k: int) -> Optional[Fraction]:
    """max{y_k : Ay <= b, y <= x}, exactly; None if infeasible. k is an int
    (ValueError otherwise). (A, b) is checked and solved as a one-piece
    union, so entries are ints or Fractions too."""
    if not 0 <= int_from_json(k) < len(x):
        raise DimensionMismatch(f"coordinate {k} out of range")
    u = PolyhedralUnion(len(x), ((a, b),))
    _, scale, xs = _point(u, x)
    piece = u.plan[0]
    return _dual_min(piece, _slack(piece, scale, xs), scale, xs, k)


def union_member(u: PolyhedralUnion, x: Sequence[Fraction]) -> bool:
    _, scale, xs = _point(u, x)
    for piece in u.plan:
        if all(v >= 0 for v in _slack(piece, scale, xs)):
            return True
    return False


def eval_F_from_polyhedra(u: PolyhedralUnion, x: Sequence[Fraction]) -> Vector:
    """The canonical operator of the union: per coordinate, the largest
    value attained below x. Raises EmptyBelow when no piece is feasible
    under y <= x."""
    x, scale, xs = _point(u, x)
    best = None
    for piece in u.plan:
        h, values = _slack(piece, scale, xs), []
        for k, xk in enumerate(x):
            # No LP value exceeds x_k, so a coordinate already at x_k is final.
            v = xk if best is not None and best[k] == xk else _dual_min(piece, h, scale, xs, k)
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
    (y1, y2, lam, mu, z) if the union is not tropically convex, else None.
    The arguments are checked as `verify_graph` checks its own."""
    check_sampling("tropical_convexity_falsifier", "trials", trials, seed, box, denom)
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
