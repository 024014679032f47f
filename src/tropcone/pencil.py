"""Tropical Metzler pencils and their combinators.

A pencil is a sequence of symmetric signed tropical matrices Q^(0),...,Q^(n)
whose off-diagonal entries are tropically negative or -inf. It describes the
set of points x satisfying Q_ii+(x) >= Q_ii-(x) for every row and
Q_ii+(x) (.) Q_jj+(x) >= Q_ij(x)^2 for every pair of rows, where
Q_ij(X) = Q^(0)_ij (+) Q^(1)_ij (.) X_1 (+) ... (+) Q^(n)_ij (.) X_n.

Membership is decided in exact integer arithmetic. The first
`pencil_member` call on a pencil builds its plan and keeps it on the
pencil: the lcm L of every modulus denominator, every coefficient as an
integer over L, and each distinct diagonal row once, split by sign. A query
scales the point to integers over D = lcm(L, its denominators); max-plus
comparisons do not change when every value is multiplied by D.

The module provides membership, synthesis of a cone pencil from a compliant
game graph, and the tropical convex hull of a union as one n-ary tropical
sum: each summand is homogenized once into its own block of variables, tied
to the visible coordinates by one diagonal row per coordinate. Finite
generator sets, unions and strata are all built by that sum. A projected
pencil keeps its summands as data and lifts a visible point by one
residuation per summand. Entries are stored sparsely as {variable index:
signed coefficient} with index 0 reserved for the constant matrix Q^(0).
The module holds no operator kernel: the operator of a compliant graph on
T^n, whose subfixed set a cone pencil realizes, is evaluated by the one
operator plan of `tropcone.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .convex import TropPointSet, residual_combination
from .errors import DimensionMismatch, PreconditionViolated, SupportMismatch
from .graph import _UNSET, GameGraph, _compliant_pairs, eval_operator, require_compliant, subfixed
from .scalars import (
    NEG_INF,
    SignedTrop,
    Trop,
    int_from_json,
    integers_over,
    rational_or_none,
    sized,
    tadd,
    tmul,
)

Entry = dict  # variable index (0 = constant) -> SignedTrop
Point = tuple


def _scaled_terms(entry: Entry, sign: int, scale: int) -> tuple:
    """(variable, modulus * scale) for each coefficient of the given sign,
    in variable order; scale is a multiple of every modulus denominator."""
    return tuple(sorted(
        (k, c.modulus.finite.numerator * (scale // c.modulus.finite.denominator))
        for k, c in entry.items()
        if c.sign == sign
    ))


class MetzlerPencil:
    """Immutable sparse tropical Metzler pencil with m rows and n variables."""

    def __init__(self, m: int, n: int, entries):
        self.m = m
        self.n = n
        cleaned = {}
        for (i, j), entry in entries.items():
            if not (0 <= i <= j < m):
                raise ValueError(f"entry ({i},{j}) outside upper triangle of size {m}")
            if not entry:
                # A file holds no cell for it, so it would not round-trip.
                raise ValueError(f"entry ({i},{j}) has no coefficient: leave it out")
            for k, c in entry.items():
                if not 0 <= k <= n:
                    raise ValueError(f"coefficient index {k} outside 0..{n}")
                if i != j and c.sign != -1:
                    raise ValueError(
                        f"off-diagonal entry ({i},{j}) has a nonnegative coefficient"
                    )
            cleaned[(i, j)] = dict(entry)
        self.entries = cleaned

    @cached_property
    def _plan(self) -> tuple:
        """The integer form `pencil_member` evaluates, built on its first
        call: L, the lcm of every modulus denominator; the plus terms of
        each distinct diagonal row, as (variable, modulus * L); (slot,
        minus terms) per distinct row with minus terms; per off-diagonal
        entry (a, b, terms), a and b the slots of its rows. A row with no
        diagonal entry is -inf and holds; its slot is one past the last."""
        scale = lcm(
            *(c.modulus.finite.denominator for entry in self.entries.values() for c in entry.values())
        )
        distinct, slot = {}, {}
        for (i, j), entry in self.entries.items():
            if i == j:
                key = (_scaled_terms(entry, 1, scale), _scaled_terms(entry, -1, scale))
                slot[i] = distinct.setdefault(key, len(distinct))
        plus = tuple(pos for pos, _ in distinct)
        checks = tuple((k, neg) for (_, neg), k in distinct.items() if neg)
        offdiag = tuple(
            (slot.get(i, len(plus)), slot.get(j, len(plus)), _scaled_terms(entry, -1, scale))
            for (i, j), entry in self.entries.items()
            if i != j
        )
        return scale, plus, checks, offdiag

    @property
    def is_cone(self) -> bool:
        return all(0 not in entry for entry in self.entries.values())

    def to_json(self) -> dict:
        """The file form: one [i, j, k, sign, "abs"] per nonzero coefficient
        of the upper triangle, sorted by (i, j, k)."""
        cells = sorted(
            [i, j, k, c.sign, c.modulus.to_str()]
            for (i, j), entry in self.entries.items()
            for k, c in entry.items()
        )
        return {"m": self.m, "n": self.n, "entries": cells}

    @classmethod
    def from_json(cls, obj: dict) -> "MetzlerPencil":
        """Read the sparse "entries" form. The file is outside input: a bad
        size, index, sign or modulus, a repeated coefficient, or the dense
        "matrices" form of earlier versions raises ValueError."""
        m, n = int_from_json(obj["m"]), int_from_json(obj["n"])
        if m < 0 or n < 0:
            raise ValueError(f"negative pencil size m = {m}, n = {n}")
        if "matrices" in obj:
            raise ValueError('the dense "matrices" pencil form is no longer read; use "entries"')
        entries: dict = {}
        for item in obj["entries"]:
            if not isinstance(item, list) or len(item) != 5:
                raise ValueError(f"pencil entry {item!r} is not [i, j, k, sign, abs]")
            i, j, k, sign, modulus = item
            if not isinstance(modulus, str):
                raise ValueError(f"pencil entry modulus {modulus!r} is not a rational string")
            c = SignedTrop(sign, Trop.from_str(modulus))
            entry = entries.setdefault((int_from_json(i), int_from_json(j)), {})
            if int_from_json(k) in entry:
                raise ValueError(f"coefficient ({i},{j},{k}) given twice")
            entry[k] = c
        return cls(m, n, entries)


def to_trop_vector(x) -> Point:
    return tuple(v if isinstance(v, Trop) else Trop(v) for v in x)


def _top(terms, y: list, r: int) -> Optional[int]:
    """max over (k, c) in terms of c * r + y[k], None for -inf."""
    if len(terms) == 1:
        (k, c), = terms
        return None if y[k] is None else y[k] + c * r
    best = None
    for k, c in terms:
        v = y[k]
        if v is not None:
            v += c * r
            if best is None or v > best:
                best = v
    return best


def pencil_member(pencil: MetzlerPencil, x) -> bool:
    """Decide membership of x in the tropical Metzler spectrahedron."""
    vals = [rational_or_none(v) for v in x]
    return pencil_member_integers(pencil, *integers_over(vals, pencil._plan[0]))


def pencil_member_integers(pencil: MetzlerPencil, d: int, y: list) -> bool:
    """Decide membership of the point y / d, y integers with None for -inf,
    over D = lcm(L, d) with the constant slot 0 pinned to 0. Rows with minus
    terms are checked first; a row's plus part is computed when an
    off-diagonal entry first reads it."""
    sized(y, pencil.n)
    scale, rows, checks, offdiag = pencil._plan
    f = scale // gcd(d, scale)
    y = [0, *y] if f == 1 else [0, *(None if v is None else v * f for v in y)]
    r = d * f // scale
    plus = [_UNSET] * len(rows) + [None]
    for k, neg in checks:
        p = plus[k] = _top(rows[k], y, r)
        m_ = _top(neg, y, r)
        if m_ is not None and (p is None or p < m_):
            return False
    for i, j, terms in offdiag:
        v = _top(terms, y, r)
        if v is None:
            continue
        if plus[i] is _UNSET:
            plus[i] = _top(rows[i], y, r)
        if plus[j] is _UNSET:
            plus[j] = _top(rows[j], y, r)
        a, b = plus[i], plus[j]
        if a is None or b is None or a + b < 2 * v:
            return False
    return True


@dataclass(frozen=True)
class ProjectedPencil:
    """A pencil whose first `visible` variables project onto tconv(gens).

    A pencil built by a tropical sum keeps one (support, summand, first
    variable) part per summand; the summand's homogenized block starts at
    that pencil variable. A pencil with no hidden variables, a singleton,
    is its own lift.
    """

    pencil: MetzlerPencil
    gens: TropPointSet
    parts: tuple = ()

    @property
    def visible(self) -> int:
        return self.gens.dimension

    def member(self, x) -> bool:
        lifted = self.lift(x)
        return lifted is not None and pencil_member(self.pencil, lifted)

    def lift(self, x) -> Optional[Point]:
        """A full point of the pencil over the visible point x, or None when
        x is outside tconv(gens).

        One residuation of (0, x) per summand, over that summand's homogenized
        generators on its support; the combinations must reproduce (0, x), and
        each one is lifted through its summand's own parts.
        """
        x = sized(to_trop_vector(x), self.visible)
        if self.pencil.n == len(x):
            return x
        p = (Trop(0),) + x
        covered = [NEG_INF] * len(p)
        combos = []
        for support, summand, _ in self.parts:
            coords = (0,) + tuple(k + 1 for k in support)
            hgens = tuple((Trop(0),) + g for g in summand.gens.points)
            combo = residual_combination(tuple(p[c] for c in coords), hgens)
            for c, u in zip(coords, combo):
                covered[c] = tadd(covered[c], u)
            combos.append(combo)
        if tuple(covered) != p:
            return None
        out = list(x) + [NEG_INF] * (self.pencil.n - len(x))
        out[len(x)] = Trop(0)
        for (_, summand, first), combo in zip(self.parts, combos):
            block = summand._homogenized_lift(combo)
            out[first - 1 : first - 1 + len(block)] = block
        return tuple(out)

    def _homogenized_lift(self, u: Point) -> Point:
        """The block (u_0, u_vis, hidden, zeta) of the homogenization over a
        point u = (u_0, u_vis) of its hull cone; u_0 = -inf gives the all
        -inf block. u_vis - u_0 is in tconv(gens), so its lift exists."""
        u0, ux = u[0], u[1:]
        if u0.is_neg_inf:
            return (NEG_INF,) * (1 + self.pencil.n + len(ux))
        down = Trop(-u0.finite)
        inner = self.lift(tuple(tmul(c, down) for c in ux))
        hidden = tuple(tmul(c, u0) for c in inner[len(ux):])
        zetas = tuple(tmul(tmul(c, c), down) for c in ux)
        return (u0,) + ux + hidden + zetas


def synthesize_cone(g: GameGraph) -> MetzlerPencil:
    """Cone pencil over the Min coordinates of a compliant graph whose
    members are exactly the subfixed points, over all of T^n.

    Each Min out-edge e contributes a fresh 2x2 block: the two diagonal
    entries carry the positive polynomials of the Max pair reachable from
    the head of e, and the off-diagonal carries the single negative monomial
    (-)(-r_e) (.) X_v.
    """
    require_compliant(g)
    idx = g.min_index
    entries: dict = {}
    polynomials: dict = {}  # Max vertex -> diagonal entry; MetzlerPencil copies it per block
    row = 0
    for v, e, w, w2 in _compliant_pairs(g):
        i, j = row, row + 1
        row += 2
        for target, max_vertex in ((i, w), (j, w2)):
            if max_vertex not in polynomials:
                # The largest payoff per Min coordinate, in out-edge order.
                best = {}
                for f in g.out_edges[max_vertex]:
                    k = idx[f.head] + 1
                    best[k] = max(best.get(k, f.payoff), f.payoff)
                polynomials[max_vertex] = {k: SignedTrop.pos(p) for k, p in best.items()}
            entries[(target, target)] = polynomials[max_vertex]
        entries[(i, j)] = {idx[v] + 1: SignedTrop.neg(-e.payoff)}
    return MetzlerPencil(row, g.n, entries)


def eval_compliant_operator(g: GameGraph, x) -> Point:
    """The encoded operator of a compliant graph at a point of T^n, as
    `Trop` values (`tropcone.graph.eval_operator`; NotCompliant on any
    other graph)."""
    require_compliant(g)
    return tuple(NEG_INF if v is None else Trop(v) for v in eval_operator(g, x))


def subfixed_extended(g: GameGraph, x) -> bool:
    """Does x <= F(x) hold on T^n, for a compliant graph
    (`tropcone.graph.subfixed`; NotCompliant on any other graph)?"""
    require_compliant(g)
    return subfixed(g, x)


def affine_envelope(pencil: MetzlerPencil) -> MetzlerPencil:
    """Intersect a cone pencil over variables x with the constraints
    x_k + y_k >= 0 over doubled variables (x, y); members have no -inf
    coordinate, so the spectrahedron is real."""
    if not pencil.is_cone:
        raise PreconditionViolated("affine envelope expects a cone pencil")
    n = pencil.n
    entries = dict(pencil.entries)  # MetzlerPencil copies each entry
    row = pencil.m
    zero = SignedTrop.pos(0)
    for k in range(1, n + 1):
        i, j = row, row + 1
        row += 2
        entries[(i, i)] = {k: zero}
        entries[(j, j)] = {n + k: zero}
        entries[(i, j)] = {0: SignedTrop.neg(0)}
    return MetzlerPencil(row, 2 * n, entries)


def pencil_from_point(g) -> ProjectedPencil:
    """The singleton {g} as a projected pencil (no hidden coordinates)."""
    g = to_trop_vector(g)
    n = len(g)
    entries: dict = {}
    row = 0
    for k, c in enumerate(g, start=1):
        if c.is_neg_inf:
            entries[(row, row)] = {k: SignedTrop.neg(0)}
            row += 1
        else:
            entries[(row, row)] = {k: SignedTrop.pos(0), 0: SignedTrop.neg(c.finite)}
            entries[(row + 1, row + 1)] = {0: SignedTrop.pos(c.finite), k: SignedTrop.neg(0)}
            row += 2
    return ProjectedPencil(MetzlerPencil(row, n, entries), TropPointSet(n, (g,)))


def _tropical_sum(n: int, summands) -> ProjectedPencil:
    """tconv of the union of the summands' sets, as one projected pencil over T^n.

    Each summand (K, pp) places the set of pp on the coordinates K of T^n, a
    strictly increasing tuple, with -inf elsewhere. The result realizes
    S_1^h (+) ... (+) S_k^h with the homogenizing coordinate z_0 pinned to 0.
    Variables: z_1..z_n, then z_0, then one block per summand holding its
    homogenization u^(j): u_0, the summand's own variables with its constant
    moved to u_0, and one zeta_t per visible u_t with u_0 + zeta_t >= 2 u_t, so
    u_0 = -inf forces every visible u_t to -inf. Rows z_i >= u^(j)_i tie each
    block to z, and one diagonal row u^(1)_i (+) ... (+) u^(k)_i >= z_i per
    coordinate closes the sum (the bare row -inf >= z_i where no summand
    covers i).
    """
    pos0, neg0 = SignedTrop.pos(0), SignedTrop.neg(0)
    z0 = n + 1
    entries: dict = {}
    cover = [{} for _ in range(n + 1)]  # coordinate i -> {u^(j)_i: pos0}
    parts, points = [], []
    row, first = 0, n + 2
    for support, pp in summands:
        support = tuple(support)
        if len(support) != pp.visible:
            raise SupportMismatch(
                f"support {support} does not match {pp.visible} visible coordinates"
            )
        if any(not 0 <= k < n for k in support) or any(
            a >= b for a, b in zip(support, support[1:])
        ):
            raise SupportMismatch(
                f"support {support} is not a strictly increasing subset of 0..{n - 1}"
            )
        if not pp.gens.points:
            raise PreconditionViolated("a summand of a tropical sum has no generators")
        for (i, j), entry in pp.pencil.entries.items():
            entries[(row + i, row + j)] = {first + k: c for k, c in entry.items()}
        row += pp.pencil.m
        for t, k in enumerate(support, start=1):
            # u_0 + zeta_t >= 2 u_t, then z_k >= u_t.
            entries[(row, row)] = {first: pos0}
            entries[(row + 1, row + 1)] = {first + pp.pencil.n + t: pos0}
            entries[(row, row + 1)] = {first + t: neg0}
            entries[(row + 2, row + 2)] = {k + 1: pos0, first + t: neg0}
            cover[k + 1][first + t] = pos0
            row += 3
        entries[(row, row)] = {z0: pos0, first: neg0}
        cover[0][first] = pos0
        row += 1
        parts.append((support, pp, first))
        for g in pp.gens.points:
            point = [NEG_INF] * n
            for t, k in enumerate(support):
                point[k] = g[t]
            points.append(tuple(point))
        first += 1 + pp.pencil.n + len(support)
    for i, covering in enumerate(cover):
        entries[(row, row)] = {**covering, (z0 if i == 0 else i): neg0}
        row += 1
    entries[(row, row)] = {z0: pos0, 0: neg0}
    entries[(row + 1, row + 1)] = {0: pos0, z0: neg0}
    pencil = MetzlerPencil(row + 2, first - 1, entries)
    return ProjectedPencil(pencil, TropPointSet(n, tuple(points)), tuple(parts))


def pencil_from_generators(gens: TropPointSet) -> ProjectedPencil:
    """tconv of finitely many points: one tropical sum of singletons."""
    full = tuple(range(gens.dimension))
    return _tropical_sum(gens.dimension, [(full, pencil_from_point(g)) for g in gens.points])


def union_pencil(*pps: ProjectedPencil) -> ProjectedPencil:
    """tconv(S_1 u ... u S_k) of projected pencils over the same T^n, as one
    tropical sum. Each S_j needs at least one generator."""
    if not pps:
        raise PreconditionViolated("a union needs at least one pencil")
    n = pps[0].visible
    if any(pp.visible != n for pp in pps):
        raise DimensionMismatch("union of pencils with different visible dimensions")
    full = tuple(range(n))
    return _tropical_sum(n, [(full, pp) for pp in pps])


def assemble_strata(
    n: int,
    pieces: Sequence[tuple[tuple[int, ...], ProjectedPencil]],
    include_bottom: bool = False,
) -> ProjectedPencil:
    """Combine per-support projected pencils into one over T^n.

    Each piece (K, pp) realizes a subset of R^K placed on the coordinates K
    (strictly increasing) with -inf elsewhere; the pieces, plus the all -inf
    point when include_bottom is set, form one tropical sum.
    """
    supports = [tuple(support) for support, _ in pieces]
    if len(set(supports)) != len(supports):
        raise SupportMismatch(f"duplicate support among {supports}")
    summands = list(pieces)
    if include_bottom:
        summands.append(((), pencil_from_point(())))
    return _tropical_sum(n, summands)
