"""Tropical Metzler pencils and their combinators.

A pencil is a sequence of symmetric signed tropical matrices Q^(0),...,Q^(n)
whose off-diagonal entries are tropically negative or -inf. It describes the
set of points x satisfying Q_ii+(x) >= Q_ii-(x) for every row and
Q_ii+(x) (.) Q_jj+(x) >= Q_ij(x)^2 for every pair of rows, where
Q_ij(X) = Q^(0)_ij (+) Q^(1)_ij (.) X_1 (+) ... (+) Q^(n)_ij (.) X_n.

Membership is decided in exact integer arithmetic. The first
`pencil_member` call on a pencil builds its plan and keeps it on the
pencil: the lcm L of every modulus denominator, every coefficient as an
integer over L, the rows with minus terms and one minor per off-diagonal
term: the 2x2 minor rule holds for a tropical sum exactly when it holds for
each term (Allamigeon, Gaubert and Skomra 2018), so with each row's plus
part a slot of the lifted point, each minor is one integer comparison. A
query point is read by the rule of `tropcone.scalars` and scaled to
integers over D = lcm(L, its denominators); max-plus comparisons do not
change when every value is multiplied by D.

The module provides membership, synthesis of a cone pencil from a compliant
game graph, and tropical convex hulls of finitely many points, built by one
constructor, `pencil_from_generators`: tconv(G) is the projection of one
flat pencil over (x, lambda), one hidden weight per generator, with
diagonal rows only (Develin and Sturmfels 2004). A singleton, a union or a
stratum is the hull of its one point, of its sets' concatenated generators
or of its generators placed on their supports with -inf elsewhere. The
generators are a `TropPointSet`, points of T^n held as `Trop`s. A
projected pencil reads a point as `pencil_member` does, over G, the lcm of
the generators' denominators, appends one integer residuation weight per
generator, and `member` passes that lift to `pencil_member_integers`.
Entries are stored sparsely as {variable index: signed coefficient} with
index 0 reserved for the constant matrix Q^(0). The module holds no
operator kernel: the operator of a compliant graph on T^n, whose subfixed
set a cone pencil realizes, is evaluated by the one operator plan of
`tropcone.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import PreconditionViolated
from .graph import GameGraph, _top, eval_operator, require_compliant, subfixed
from .scalars import NEG_INF, SignedTrop, Trop, int_from_json, integers_over, sized, times

Entry = dict  # variable index (0 = constant) -> SignedTrop
Point = tuple


def _scaled_terms(entry: Entry, sign: int, scale: int) -> tuple:
    """(variable, modulus * scale) for each coefficient of the given sign,
    in variable order; scale is a multiple of every modulus denominator."""
    return tuple(sorted(
        (k, times(c.modulus.finite, scale))
        for k, c in entry.items()
        if c.sign == sign
    ))


class MetzlerPencil:
    """Immutable sparse tropical Metzler pencil with m rows and n variables.
    The constructor checks every stored key, index and coefficient, for
    `from_json` and the builders alike."""

    def __init__(self, m: int, n: int, entries):
        self.m, self.n = int_from_json(m), int_from_json(n)
        if m < 0 or n < 0:
            raise ValueError(f"negative pencil size m = {m}, n = {n}")
        cleaned = {}
        # One pass per entry: a key that is a tuple of two ints is kept as
        # it is, and whether it is off the diagonal is decided once for all
        # its coefficients.
        for key, entry in entries.items():
            i, j = key
            if not (type(key) is tuple and type(i) is type(j) is int):
                key = (int_from_json(i), int_from_json(j))
            if not (0 <= i <= j < m):
                raise ValueError(f"entry ({i},{j}) outside upper triangle of size {m}")
            if not entry:
                # A file holds no cell for it, so it would not round-trip.
                raise ValueError(f"entry ({i},{j}) has no coefficient: leave it out")
            off = i != j
            for k, c in entry.items():
                if type(k) is not int:
                    int_from_json(k)
                if not 0 <= k <= n:
                    raise ValueError(f"coefficient index {k} outside 0..{n}")
                if not isinstance(c, SignedTrop):
                    raise ValueError(f"coefficient ({i},{j},{k}) is {c!r}, not a SignedTrop")
                if off and c.sign != -1:
                    raise ValueError(
                        f"off-diagonal entry ({i},{j}) has a nonnegative coefficient"
                    )
            cleaned[key] = entry.copy()
        self.entries = cleaned

    @cached_property
    def _plan(self) -> tuple:
        """The integer form `pencil_member` evaluates, built on its first
        call: (L, extra, checks, minors) over the slots of the point, slot 0
        the constant. L is the lcm of every modulus denominator, and terms
        are (variable, modulus * L). A row whose plus part is one term
        (k, c) is slot k with constant c; any other row that an off-diagonal
        reads, a row with no diagonal entry among them, gets one appended
        slot per distinct plus part, in `extra`, with constant 0. `checks`
        holds (plus, minus) per distinct row with minus terms. Each term
        (k, c) of an off-diagonal entry between rows at (a, c_a) and
        (b, c_b) is one minor (a, b, k, 2c - c_a - c_b)."""
        scale = lcm(
            *(c.modulus.finite.denominator for entry in self.entries.values() for c in entry.values())
        )
        rows, checks, extra, minors = {}, {}, {}, []
        for (i, j), entry in self.entries.items():
            if i == j:
                plus, minus = _scaled_terms(entry, 1, scale), _scaled_terms(entry, -1, scale)
                rows[i] = plus
                if minus:
                    checks[plus, minus] = None

        def slot(i):
            plus = rows.get(i, ())
            return plus[0] if len(plus) == 1 else (self.n + 1 + extra.setdefault(plus, len(extra)), 0)

        for (i, j), entry in self.entries.items():
            if i != j:
                (a, ca), (b, cb) = slot(i), slot(j)
                minors += [(a, b, k, 2 * c - ca - cb) for k, c in _scaled_terms(entry, -1, scale)]
        return scale, tuple(extra), tuple(checks), tuple(minors)

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
        return cls(obj["m"], obj["n"], entries)


def pencil_member(pencil: MetzlerPencil, x) -> bool:
    """Decide membership of x in the tropical Metzler spectrahedron."""
    return pencil_member_integers(pencil, *integers_over(sized(x, pencil.n), pencil._plan[0]))


def pencil_member_integers(pencil: MetzlerPencil, d: int, y: list) -> bool:
    """Decide membership of the point y / d, y integers with None for -inf,
    over D = lcm(L, d) with the constant slot 0 pinned to 0; the caller has
    checked that y has length n. The extra slots of the plan are appended
    and the rows with minus terms checked; then each minor (a, b, k, K) is
    one test: skipped when y[k] is -inf, else y[a] + y[b] >= 2 y[k] + K r,
    with -inf at a or b a rejection."""
    scale, extra, checks, minors = pencil._plan
    f = scale // gcd(d, scale)
    y = [0, *y] if f == 1 else [0, *(None if v is None else v * f for v in y)]
    r = d * f // scale
    y += [_top(terms, y, r) for terms in extra]
    for plus, minus in checks:
        p, m_ = _top(plus, y, r), _top(minus, y, r)
        if m_ is not None and (p is None or p < m_):
            return False
    for a, b, k, c in minors:
        v = y[k]
        if v is not None:
            u, w = y[a], y[b]
            if u is None or w is None or u + w < 2 * v + c * r:
                return False
    return True


@dataclass(frozen=True)
class TropPointSet:
    """Hull generators: points of T^n, each held as `Trop`s. The
    dimension is read by `int_from_json`, so a float or a bool raises
    ValueError, and so does a negative one."""

    dimension: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if int_from_json(self.dimension) < 0:
            raise ValueError(f"negative dimension {self.dimension}")
        points = tuple(sized(tuple(map(Trop, p)), self.dimension) for p in self.points)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class ProjectedPencil:
    """A pencil whose first n = gens.dimension variables project onto
    tconv(gens), with one hidden variable lambda_j per generator after them;
    `pencil_from_generators` is its one constructor. A pencil over other
    than n + k variables raises DimensionMismatch (`sized`)."""

    pencil: MetzlerPencil
    gens: TropPointSet

    def __post_init__(self):
        sized(range(self.pencil.n), self.gens.dimension + len(self.gens.points))

    @cached_property
    def _plan(self) -> tuple:
        """The lift's integer form, built on its first call: G and, per
        generator g_j, its finite coordinates as (i, g_ji * G)."""
        finite = [[(i, c.finite) for i, c in enumerate(g) if not c.is_neg_inf] for g in self.gens.points]
        scale = lcm(*(c.denominator for g in finite for _, c in g))
        return scale, tuple(tuple((i, times(c, scale)) for i, c in g) for g in finite)

    def _lift_integers(self, x) -> tuple:
        """(D, y): `lift` in integers over D = lcm(G, x's denominators), None
        for -inf: lambda_j = min(0, min_i (x_i - g_ji)) over finite g_ji."""
        scale, gens = self._plan
        d, y = integers_over(sized(x, self.gens.dimension), scale)
        r = d // scale
        return d, y + [
            None if None in [y[i] for i, _ in g] else min([0, *[y[i] - c * r for i, c in g]])
            for g in gens
        ]

    def member(self, x) -> bool:
        return pencil_member_integers(self.pencil, *self._lift_integers(x))

    def lift(self, x) -> Point:
        """x followed by lambda*_j per generator g_j: the residuation weight
        of (0, x) over (0, g_j), the largest lambda_j with lambda_j + g_j <= x
        and lambda_j <= 0. The other rows, max_j (lambda_j + g_ji) >= x_i and
        max_j lambda_j >= 0, only get easier as lambda grows, so x is in
        tconv(gens) iff this lift is a member."""
        d, y = self._lift_integers(x)
        return tuple(NEG_INF if v is None else Trop(Fraction(v, d)) for v in y)


def synthesize_cone(g: GameGraph) -> MetzlerPencil:
    """Cone pencil over the Min coordinates of a compliant graph whose
    members are exactly the subfixed points, over all of T^n.

    Each Min out-edge e contributes a fresh 2x2 block: the two diagonal
    entries carry the positive polynomials of the Max pair reachable from
    the head of e, and the off-diagonal carries the single negative monomial
    (-)(-r_e) (.) X_v.
    """
    require_compliant(g)
    kind, out, idx = g.kind, g.out_edges, g.min_index
    entries: dict = {}
    polynomials: dict = {}  # Max vertex -> diagonal entry; MetzlerPencil copies it per block
    row = 0
    for v in g.min_vertices:
        for e in out[v]:
            # The Max pair absorbing the head of e: a Max head twice, else the
            # heads of the coin's two out-edges, in id order.
            if kind[e.head] == "max":
                pair = (e.head, e.head)
            else:
                f1, f2 = out[e.head]
                pair = (f1.head, f2.head) if f1.id < f2.id else (f2.head, f1.head)
            i, j = row, row + 1
            row += 2
            for target, max_vertex in zip((i, j), pair):
                if max_vertex not in polynomials:
                    # The largest payoff per Min coordinate, in out-edge order.
                    best = {}
                    for f in out[max_vertex]:
                        k = idx[f.head] + 1
                        if k not in best or f.payoff > best[k]:
                            best[k] = f.payoff
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
    pos0, neg0 = SignedTrop.pos(0), SignedTrop.neg(0)
    for k in range(1, n + 1):
        i, j = row, row + 1
        row += 2
        entries[(i, i)] = {k: pos0}
        entries[(j, j)] = {n + k: pos0}
        entries[(i, j)] = {0: neg0}
    return MetzlerPencil(row, 2 * n, entries)


def pencil_from_generators(gens: TropPointSet) -> ProjectedPencil:
    """tconv(gens) for k points g_j of T^n: the projection onto x of
    {(x, lambda) : x = max_j (lambda_j + g_j), max_j lambda_j = 0} (Develin
    and Sturmfels 2004), over the variables x_1..x_n, lambda_1..lambda_k and
    with diagonal rows only: x_i >= lambda_j + g_ji per finite g_ji and
    0 >= lambda_j per generator, then max_j (lambda_j + g_ji) >= x_i per
    coordinate (the bare row -inf >= x_i where every g_ji is -inf) and
    max_j lambda_j >= 0. That is k + (finite coordinates) + n + 1 rows.
    """
    n, pos0, neg0 = gens.dimension, SignedTrop.pos(0), SignedTrop.neg(0)
    rows, cover, top = [], [{} for _ in range(n)], {}
    for j, g in enumerate(gens.points, start=n + 1):
        rows.append({0: pos0, j: neg0})
        top[j] = pos0
        for i, c in enumerate(g):
            if not c.is_neg_inf:
                rows.append({i + 1: pos0, j: SignedTrop(-1, c)})
                cover[i][j] = SignedTrop(1, c)
    rows += [{**covering, i: neg0} for i, covering in enumerate(cover, start=1)]
    rows.append({**top, 0: neg0})
    entries = {(r, r): row for r, row in enumerate(rows)}
    return ProjectedPencil(MetzlerPencil(len(rows), n + len(gens.points), entries), gens)
