"""Exact linear programming frontend for unions of rational polyhedra.

A closed semilinear real tropical cone given as U = union of {x : Ax <= b}
has the canonical operator F_k(x) = max over pieces of max{y_k : Ay <= b,
y <= x}. Each inner maximum is solved exactly as its LP dual, which always
has a feasible basis, on integers scaled once per point and pivoted by
the fraction-free `scalars.pivot`. The n duals of a piece differ only
in their right-hand side e_k, so they share one tableau: the first
coordinate runs Bland's primal simplex (no cycling) from the basis v, and
each later one continues from the last optimal basis by Bland's dual
simplex (Lemke 1954, Bland 1977). An unbounded dual means the piece has no
point below x. The operator keeps each coordinate's best as an integer
gap below x_k, skips coordinates that already reach x_k and stops going
through pieces once F(x) = x. Entries are ints or Fractions, and a point
is read by the rule of `tropcone.scalars`, with no -inf; never floats:
3 * 0.1 > 0.3, so a float would give a wrong answer without a word.
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
from .scalars import finite_integers_over, int_from_json, integers_over, rational, rational_from_str, rational_text
from .scalars import pivot, rational_to_str, sized

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


def _piece_gaps(piece: tuple, h: list, ks: Sequence[int]) -> Optional[list]:
    """Per coordinate k of ks, the gap (g, d) of min{b.u + x.v : A^T u + v =
    e_k, u, v >= 0} = max{y_k : Ay <= b, y <= x}, whose value is
    x_k - g / (d * L), L the scale of the point; None if the dual is
    unbounded, which by Farkas' lemma means that no point of {Ay <= b} lies
    below x, whatever k.

    One tableau serves every k: the n rows (cols[j] | e_j), the u columns
    scaled by s_i, and the cost row (h | 0), h the slacks, start on the
    basis v. Column m + k is B^-1 e_k, coordinate k's right-hand side, and
    the reduced cost of v_k is its gap g. The first k runs Bland's primal
    simplex from v: the lowest column with a negative reduced cost enters,
    the minimum ratio leaves, ties to the smaller basis index. Each later k
    starts from the last optimal basis, whose reduced costs stay >= 0, and
    runs Bland's dual simplex until column m + k is >= 0: the negative row
    of the smallest basis index leaves, the minimum ratio cost_j / -T_rj
    enters, ties to the smaller column (Lemke 1954, Bland 1977). Each row is
    kept over its own positive base by `scalars.pivot`, and coordinate k's
    gap is (cost-row entry, cost-row base). A ratio or tie test multiplies
    one entry of each of two rows, and every other test reads a sign, so
    the pivots are those of the rational tableau."""
    cols = piece[2]
    n, m = len(cols), len(h)
    width = m + n
    tableau = [[*cols[j], *(0,) * n] for j in range(n)]
    for j in range(n):
        tableau[j][m + j] = 1
    tableau.append([*h, *(0,) * n])
    basis, base = list(range(m, width)), [1] * (n + 1)
    d = 1
    gaps = []
    for k in ks:
        rhs = m + k
        while True:
            cost = tableau[-1]
            if gaps:
                r = min((i for i in range(n) if tableau[i][rhs] < 0), key=basis.__getitem__, default=None)
                if r is None:
                    break
                # Some T_rj < 0, since v = e_k is a feasible dual point.
                row, enter = tableau[r], None
                for j in range(width):
                    q = row[j]
                    # cost_j / -q against cost_enter / -T_r,enter
                    if q < 0 and (enter is None or cost[j] * row[enter] > cost[enter] * q):
                        enter = j
            else:
                enter = next((j for j in range(width) if cost[j] < 0), None)
                if enter is None:
                    break
                r = None
                for i in range(n):
                    q = tableau[i][enter]
                    if q > 0:
                        if r is None:
                            r = i
                            continue
                        # T_i,rhs / q against T_r,rhs / T_r,enter, both denominators > 0
                        lhs, rhs_r = tableau[i][rhs] * tableau[r][enter], tableau[r][rhs] * q
                        if lhs < rhs_r or (lhs == rhs_r and basis[i] < basis[r]):
                            r = i
                if r is None:
                    return None
            d = pivot(tableau, base, r, enter, d)
            basis[r] = enter
        gaps.append((tableau[-1][rhs], base[-1]))
    return gaps


def lp_max(a: Matrix, b: Vector, x: Sequence[Fraction], k: int) -> Optional[Fraction]:
    """max{y_k : Ay <= b, y <= x}, exactly; None if infeasible. k is an int
    (ValueError otherwise). (A, b) is checked and solved as a one-piece
    union, so entries are ints or Fractions too."""
    if not 0 <= int_from_json(k) < len(x):
        raise DimensionMismatch(f"coordinate {k} out of range")
    u = PolyhedralUnion(len(x), ((a, b),))
    scale, xs = finite_integers_over(sized(x, u.n), 1)
    piece = u.plan[0]
    gaps = _piece_gaps(piece, _slack(piece, scale, xs), (k,))
    if gaps is None:
        return None
    ((g, d),) = gaps
    return Fraction(xs[k] * d - g, d * scale)


def union_member(u: PolyhedralUnion, x: Sequence[Fraction]) -> bool:
    scale, xs = finite_integers_over(sized(x, u.n), 1)
    for piece in u.plan:
        if all(v >= 0 for v in _slack(piece, scale, xs)):
            return True
    return False


def eval_F_from_polyhedra(u: PolyhedralUnion, x: Sequence[Fraction]) -> Vector:
    """The canonical operator of the union: per coordinate, the largest
    value attained below x. Raises EmptyBelow when no piece is feasible
    under y <= x. The best of each coordinate so far is kept as an integer
    gap (g, d), the value x_k - g / (d * L), and gaps are compared by cross
    multiplication: no LP value exceeds x_k, so a coordinate with g = 0 is
    final and not passed to a later piece, and the pieces stop once every
    g is 0."""
    scale, xs = finite_integers_over(sized(x, u.n), 1)
    best = None
    for piece in u.plan:
        ks = range(u.n) if best is None else [k for k, (g, _) in enumerate(best) if g]
        gaps = _piece_gaps(piece, _slack(piece, scale, xs), ks)
        if gaps is None:
            continue  # the piece has no point below x
        if best is None:
            best = gaps
        else:
            for k, (g, d) in zip(ks, gaps):
                c, e = best[k]
                if g * e < c * d:
                    best[k] = (g, d)
        if not any(g for g, _ in best):
            break
    if best is None:
        below = ", ".join(rational_text(Fraction(v, scale)) for v in xs)
        raise EmptyBelow(f"no point of the union lies below ({below})")
    return tuple(Fraction(xk * d - g, d * scale) for xk, (g, d) in zip(xs, best))


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
