"""Tropical Metzler pencils and their combinators.

A pencil is a sequence of symmetric signed tropical matrices Q^(0),...,Q^(n)
whose off-diagonal entries are tropically negative or -inf. It describes the
set of points x satisfying Q_ii+(x) >= Q_ii-(x) for every row and
Q_ii+(x) (.) Q_jj+(x) >= Q_ij(x)^2 for every pair of rows, where
Q_ij(X) = Q^(0)_ij (+) Q^(1)_ij (.) X_1 (+) ... (+) Q^(n)_ij (.) X_n.

The module provides membership, synthesis of a cone pencil from a compliant
game graph, homogenization and dehomogenization, a union combinator for
tropical convex hulls, and stratum assembly. Entries are stored sparsely as
{variable index: signed coefficient} with index 0 reserved for the constant
matrix Q^(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .convex import TropPointSet, residual_combination
from .errors import (
    DimensionMismatch,
    NotCompliant,
    PreconditionViolated,
    SupportMismatch,
)
from .graph import GameGraph
from .scalars import NEG_INF, SignedTrop, Trop, int_from_json, tadd, tmul
from .transforms import is_compliant

Entry = dict  # variable index (0 = constant) -> SignedTrop
Point = tuple


def _merge_coeff(entry: Entry, k: int, coeff: SignedTrop) -> None:
    if coeff.is_zero:
        return
    old = entry.get(k)
    if old is None:
        entry[k] = coeff
    else:
        if old.sign != coeff.sign:
            raise ValueError(f"conflicting signs for variable {k} in one entry")
        entry[k] = SignedTrop(old.sign, tadd(old.modulus, coeff.modulus))


class MetzlerPencil:
    """Immutable sparse tropical Metzler pencil with m rows and n variables."""

    __slots__ = ("m", "n", "entries")

    def __init__(self, m: int, n: int, entries):
        self.m = m
        self.n = n
        cleaned = {}
        for (i, j), entry in entries.items():
            if not (0 <= i <= j < m):
                raise ValueError(f"entry ({i},{j}) outside upper triangle of size {m}")
            entry = {k: c for k, c in entry.items() if not c.is_zero}
            if not entry:
                continue
            for k, c in entry.items():
                if not 0 <= k <= n:
                    raise ValueError(f"coefficient index {k} outside 0..{n}")
                if i != j and c.sign != -1:
                    raise ValueError(
                        f"off-diagonal entry ({i},{j}) has a nonnegative coefficient"
                    )
            cleaned[(i, j)] = entry
        self.entries = cleaned

    def _value_at(self, x, k: int) -> Trop:
        return Trop(0) if k == 0 else x[k - 1]

    def diag_pm(self, i: int, x) -> tuple[Trop, Trop]:
        plus, minus = NEG_INF, NEG_INF
        for k, c in self.entries.get((i, i), {}).items():
            term = tmul(c.modulus, self._value_at(x, k))
            if c.sign > 0:
                plus = tadd(plus, term)
            else:
                minus = tadd(minus, term)
        return plus, minus

    def offdiag_modulus(self, i: int, j: int, x) -> Trop:
        acc = NEG_INF
        for k, c in self.entries.get((min(i, j), max(i, j)), {}).items():
            acc = tadd(acc, tmul(c.modulus, self._value_at(x, k)))
        return acc

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
        """Read the sparse "entries" form, or the dense "matrices" form of
        earlier versions. The file is outside input: a bad size, index, sign
        or modulus, or a repeated coefficient, raises ValueError."""
        m, n = int_from_json(obj["m"]), int_from_json(obj["n"])
        if m < 0 or n < 0:
            raise ValueError(f"negative pencil size m = {m}, n = {n}")
        if ("entries" in obj) == ("matrices" in obj):
            raise ValueError('a pencil needs exactly one of "entries" and "matrices"')
        if "entries" in obj:
            cells = _sparse_cells(obj["entries"])
        else:
            cells = _dense_cells(obj["matrices"], m, n)
        entries: dict = {}
        for i, j, k, c in cells:
            entry = entries.setdefault((i, j), {})
            if k in entry:
                raise ValueError(f"coefficient ({i},{j},{k}) given twice")
            entry[k] = c
        return cls(m, n, entries)


def _sparse_cells(items):
    """(i, j, k, coefficient) per sparse entry; the pencil checks ranges."""
    for item in items:
        if not isinstance(item, list) or len(item) != 5:
            raise ValueError(f"pencil entry {item!r} is not [i, j, k, sign, abs]")
        i, j, k, sign, modulus = item
        if int_from_json(sign) not in (-1, 1):
            raise ValueError(f"pencil entry sign {sign!r} is not -1 or 1")
        if not isinstance(modulus, str):
            raise ValueError(f"pencil entry modulus {modulus!r} is not a rational string")
        c = SignedTrop(sign, Trop.from_str(modulus))
        yield int_from_json(i), int_from_json(j), int_from_json(k), c


def _dense_cells(matrices, m: int, n: int):
    """(i, j, k, coefficient) per nonzero upper-triangle cell of n + 1
    symmetric m x m matrices."""
    if len(matrices) != n + 1:
        raise ValueError(f"{len(matrices)} matrices, expected n + 1 = {n + 1}")
    if any(len(mat) != m or any(len(row) != m for row in mat) for mat in matrices):
        raise ValueError(f"every matrix must be {m}x{m}")
    for k, mat in enumerate(matrices):
        for i in range(m):
            for j in range(i, m):
                c = SignedTrop.from_json(mat[i][j])
                if j > i and SignedTrop.from_json(mat[j][i]) != c:
                    raise ValueError(f"matrix {k} is not symmetric at ({i},{j})")
                if not c.is_zero:
                    yield i, j, k, c


def to_trop_vector(x) -> Point:
    out = []
    for v in x:
        out.append(v if isinstance(v, Trop) else Trop(v))
    return tuple(out)


def pencil_member(pencil: MetzlerPencil, x) -> bool:
    """Decide membership of x in the tropical Metzler spectrahedron."""
    x = to_trop_vector(x)
    if len(x) != pencil.n:
        raise DimensionMismatch(f"point of length {len(x)}, pencil has {pencil.n} variables")
    plus_cache = {}

    def plus(i):
        if i not in plus_cache:
            plus_cache[i] = pencil.diag_pm(i, x)
        return plus_cache[i]

    for i in range(pencil.m):
        p, m_ = plus(i)
        if not p >= m_:
            return False
    for (i, j) in pencil.entries:
        if i == j:
            continue
        v = pencil.offdiag_modulus(i, j, x)
        if v.is_neg_inf:
            continue
        if not tmul(plus(i)[0], plus(j)[0]) >= tmul(v, v):
            return False
    return True


@dataclass(frozen=True)
class ProjectedPencil:
    """A pencil together with a visible-coordinate count, an optional lift
    from visible points to full members, and optional hull generators of the
    projected set (used to decide membership of unions)."""

    pencil: MetzlerPencil
    visible: int
    witness: Optional[Callable] = None
    gens: Optional[TropPointSet] = None

    def member(self, x) -> bool:
        x = to_trop_vector(x)
        if len(x) != self.visible:
            raise DimensionMismatch(
                f"point of length {len(x)}, {self.visible} visible coordinates"
            )
        if self.witness is None:
            if self.pencil.n != self.visible:
                raise PreconditionViolated("no witness for a strict projection")
            return pencil_member(self.pencil, x)
        lifted = self.witness(x)
        return lifted is not None and pencil_member(self.pencil, lifted)


def _compliant_pairs(g: GameGraph):
    """For each Min out-edge e, the absorbing Max pair (w_e, w'_e)."""
    pairs = []
    for v in g.min_vertices:
        for e in g.out_edges[v]:
            h = e.head
            if g.kind[h] == "max":
                pairs.append((v, e, h, h))
            else:
                left, right = sorted(g.out_edges[h], key=lambda f: f.id)
                pairs.append((v, e, left.head, right.head))
    return pairs


def synthesize_cone(g: GameGraph) -> MetzlerPencil:
    """Cone pencil over the Min coordinates of a compliant graph whose
    members are exactly the subfixed points, over all of T^n.

    Each Min out-edge e contributes a fresh 2x2 block: the two diagonal
    entries carry the positive polynomials of the Max pair reachable from
    the head of e, and the off-diagonal carries the single negative monomial
    (-)(-r_e) (.) X_v.
    """
    if not is_compliant(g):
        raise NotCompliant("graph is not in Min-Random-Max coin-flip form")
    idx = g.min_index
    entries: dict = {}
    row = 0
    for v, e, w, w2 in _compliant_pairs(g):
        i, j = row, row + 1
        row += 2
        for target, max_vertex in ((i, w), (j, w2)):
            entry = entries.setdefault((target, target), {})
            for f in g.out_edges[max_vertex]:
                _merge_coeff(entry, idx[f.head] + 1, SignedTrop.pos(f.payoff))
        entries[(i, j)] = {idx[v] + 1: SignedTrop.neg(-e.payoff)}
    return MetzlerPencil(row, g.n, entries)


def eval_compliant_operator(g: GameGraph, x) -> Point:
    """The encoded operator of a compliant graph, extended to T^n by the
    min / half-sum / max formula with -inf absorbing."""
    x = to_trop_vector(x)
    if len(x) != g.n:
        raise DimensionMismatch(f"point of length {len(x)}, graph has {g.n} Min vertices")
    idx = g.min_index
    max_val = {}
    for w in g.max_vertices:
        acc = NEG_INF
        for f in g.out_edges[w]:
            acc = tadd(acc, tmul(Trop(f.payoff), x[idx[f.head]]))
        max_val[w] = acc
    by_min = {v: [] for v in g.min_vertices}
    for v, e, w, w2 in _compliant_pairs(g):
        by_min[v].append((e, w, w2))
    result = []
    for v in g.min_vertices:
        best = None
        for e, w, w2 in by_min[v]:
            a, b = max_val[w], max_val[w2]
            if a.is_neg_inf or b.is_neg_inf:
                val = NEG_INF
            else:
                val = Trop(e.payoff + (a.finite + b.finite) / 2)
            best = val if best is None else (val if val < best else best)
        result.append(best)
    return tuple(result)


def subfixed_extended(g: GameGraph, x) -> bool:
    x = to_trop_vector(x)
    fx = eval_compliant_operator(g, x)
    return all(a <= b for a, b in zip(x, fx))


def affine_envelope(pencil: MetzlerPencil) -> MetzlerPencil:
    """Intersect a cone pencil over variables x with the constraints
    x_k + y_k >= 0 over doubled variables (x, y); members have no -inf
    coordinate, so the spectrahedron is real."""
    if not pencil.is_cone:
        raise PreconditionViolated("affine envelope expects a cone pencil")
    n = pencil.n
    entries = {key: dict(entry) for key, entry in pencil.entries.items()}
    row = pencil.m
    zero = SignedTrop.pos(0)
    for k in range(1, n + 1):
        i, j = row, row + 1
        row += 2
        entries[(i, i)] = {k: zero}
        entries[(j, j)] = {n + k: zero}
        entries[(i, j)] = {0: SignedTrop.neg(0)}
    return MetzlerPencil(row, 2 * n, entries)


def formal_homogenize(pencil: MetzlerPencil) -> MetzlerPencil:
    """Move the constant matrix into a fresh first variable slot X_0."""
    entries = {
        key: {k + 1: c for k, c in entry.items()} for key, entry in pencil.entries.items()
    }
    return MetzlerPencil(pencil.m, pencil.n + 1, entries)


def dehomogenize(pencil: MetzlerPencil) -> MetzlerPencil:
    """Pin the first variable to 0 by two extra diagonal rows."""
    entries = {key: dict(entry) for key, entry in pencil.entries.items()}
    i, j = pencil.m, pencil.m + 1
    entries[(i, i)] = {1: SignedTrop.pos(0), 0: SignedTrop.neg(0)}
    entries[(j, j)] = {0: SignedTrop.pos(0), 1: SignedTrop.neg(0)}
    return MetzlerPencil(pencil.m + 2, pencil.n, entries)


def _neg_shift(p: Point, x0: Trop) -> Point:
    return tuple(
        NEG_INF if c.is_neg_inf else Trop(c.finite - x0.finite) for c in p
    )


def homogenize_projected(pp: ProjectedPencil) -> ProjectedPencil:
    """Projected pencil for the homogenization S^h = {(x0, x0 + x)}.

    Formally homogenizes the pencil and adds, for each visible k, a block
    encoding x0 + z_k >= 2 x_k with a fresh variable z_k. Visible
    coordinates of the result are (x0, x).
    """
    base = formal_homogenize(pp.pencil)
    n_vis = pp.visible
    total_inner = base.n  # 1 + visible + hidden
    entries = {key: dict(entry) for key, entry in base.entries.items()}
    row = base.m
    for k in range(1, n_vis + 1):
        z_var = total_inner + k
        i, j = row, row + 1
        row += 2
        entries[(i, i)] = {1: SignedTrop.pos(0)}
        entries[(j, j)] = {z_var: SignedTrop.pos(0)}
        entries[(i, j)] = {1 + k: SignedTrop.neg(0)}
    pencil = MetzlerPencil(row, total_inner + n_vis, entries)

    inner_witness = pp.witness
    total = pencil.n

    def witness(p):
        p = to_trop_vector(p)
        x0, x = p[0], p[1:]
        if x0.is_neg_inf:
            return tuple(NEG_INF for _ in range(total))
        dehom = _neg_shift(x, x0)
        if inner_witness is None:
            inner = dehom
        else:
            inner = inner_witness(dehom)
            if inner is None:
                return None
        hidden = tuple(tmul(c, x0) for c in inner[n_vis:])
        zs = tuple(
            NEG_INF if xk.is_neg_inf else Trop(2 * xk.finite - x0.finite) for xk in x
        )
        return (x0,) + tuple(x) + hidden + zs

    gens = None
    if pp.gens is not None:
        zero = Trop(0)
        gens = TropPointSet(n_vis + 1, tuple((zero,) + tuple(g) for g in pp.gens.points))
    return ProjectedPencil(pencil, n_vis + 1, witness, gens=gens)


def union_pencil(pp1: ProjectedPencil, pp2: ProjectedPencil) -> ProjectedPencil:
    """Projected pencil for tconv(S1 u S2).

    Realizes S^h = S1^h (+) S2^h with hidden copies u, w of the homogenized
    coordinates, coupled by z_i >= u_i, z_i >= w_i, and u_i (+) w_i >= z_i,
    then pins the homogenizing coordinate z_0 to 0. Membership of a visible
    point is decided by residuation over the stored hull generators.
    """
    if pp1.visible != pp2.visible:
        raise DimensionMismatch("union of pencils with different visible dimensions")
    n = pp1.visible
    h1 = homogenize_projected(pp1)
    h2 = homogenize_projected(pp2)
    v1, v2 = h1.pencil.n, h2.pencil.n
    # Variable layout: z_1..z_n | z0 | u-copy (v1 vars) | w-copy (v2 vars).
    z0 = n + 1
    off1 = n + 1
    off2 = n + 1 + v1

    entries: dict = {}
    row = 0
    for h, off in ((h1, off1), (h2, off2)):
        for (i, j), entry in h.pencil.entries.items():
            entries[(row + i, row + j)] = {k + off: c for k, c in entry.items()}
        row += h.pencil.m

    pos0, neg0 = SignedTrop.pos(0), SignedTrop.neg(0)
    for i in range(n + 1):
        z_var = z0 if i == 0 else i
        u_var = off1 + 1 + i
        w_var = off2 + 1 + i
        entries[(row, row)] = {z_var: pos0, u_var: neg0}
        entries[(row + 1, row + 1)] = {z_var: pos0, w_var: neg0}
        entries[(row + 2, row + 2)] = {u_var: pos0, w_var: pos0, z_var: neg0}
        row += 3
    entries[(row, row)] = {z0: pos0, 0: neg0}
    entries[(row + 1, row + 1)] = {0: pos0, z0: neg0}
    row += 2

    pencil = MetzlerPencil(row, n + 1 + v1 + v2, entries)

    gens1 = pp1.gens.points if pp1.gens is not None else None
    gens2 = pp2.gens.points if pp2.gens is not None else None

    def witness(z):
        if gens1 is None or gens2 is None:
            return None
        z = to_trop_vector(z)
        p = (Trop(0),) + z
        hgens1 = tuple((Trop(0),) + tuple(g) for g in gens1)
        hgens2 = tuple((Trop(0),) + tuple(g) for g in gens2)
        _, u_star = residual_combination(p, hgens1)
        _, w_star = residual_combination(p, hgens2)
        if tuple(tadd(a, b) for a, b in zip(u_star, w_star)) != p:
            return None
        f1 = h1.witness(u_star)
        f2 = h2.witness(w_star)
        if f1 is None or f2 is None:
            return None
        return z + (Trop(0),) + f1 + f2

    gens = None
    if gens1 is not None and gens2 is not None:
        gens = TropPointSet(n, tuple(gens1) + tuple(gens2))
    return ProjectedPencil(pencil, n, witness, gens=gens)


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
    pencil = MetzlerPencil(row, n, entries)
    return ProjectedPencil(
        pencil, n, witness=lambda x: to_trop_vector(x), gens=TropPointSet(n, (g,))
    )


def empty_pencil(n: int) -> ProjectedPencil:
    """The empty subset of T^n, via the single condition -inf >= 0."""
    pencil = MetzlerPencil(1, n, {(0, 0): {0: SignedTrop.neg(0)}})
    return ProjectedPencil(pencil, n, witness=lambda x: None, gens=TropPointSet(n, ()))


def pencil_from_generators(gens: TropPointSet) -> ProjectedPencil:
    """tconv of finitely many points, folded out of singletons and unions."""
    if not gens.points:
        return empty_pencil(gens.dimension)
    acc = pencil_from_point(gens.points[0])
    for g in gens.points[1:]:
        acc = union_pencil(acc, pencil_from_point(g))
    return acc


def assemble_strata(
    n: int,
    pieces: Sequence[tuple[tuple[int, ...], ProjectedPencil]],
    include_bottom: bool = False,
) -> ProjectedPencil:
    """Combine per-support projected pencils into one over T^n.

    Each piece (K, pp) realizes a subset of R^K; it is extended to T^n by
    rows forcing -inf >= x_k for k outside K, and the extended pieces are
    folded with union_pencil in lexicographic support order.
    """
    seen = set()
    extended = []
    for support, pp in pieces:
        support = tuple(support)
        if support in seen:
            raise SupportMismatch(f"duplicate support {support}")
        seen.add(support)
        if len(support) != pp.visible:
            raise SupportMismatch(
                f"support {support} does not match {pp.visible} visible coordinates"
            )
        if any(not 0 <= k < n for k in support) or sorted(support) != list(support):
            raise SupportMismatch(f"support {support} is not a sorted subset of 0..{n - 1}")
        extended.append((support, _extend_to_support(n, support, pp)))
    extended.sort(key=lambda item: item[0])

    parts = [pp for _, pp in extended]
    if include_bottom:
        parts.append(pencil_from_point(tuple(NEG_INF for _ in range(n))))
    if not parts:
        return empty_pencil(n)
    acc = parts[0]
    for pp in parts[1:]:
        acc = union_pencil(acc, pp)
    return acc


def _extend_to_support(n: int, support, pp: ProjectedPencil) -> ProjectedPencil:
    k_count = len(support)
    hidden = pp.pencil.n - pp.visible
    var_map = {i + 1: support[i] + 1 for i in range(k_count)}
    for t in range(hidden):
        var_map[k_count + 1 + t] = n + 1 + t
    var_map[0] = 0
    entries = {
        key: {var_map[k]: c for k, c in entry.items()}
        for key, entry in pp.pencil.entries.items()
    }
    row = pp.pencil.m
    for k in range(n):
        if k not in support:
            entries[(row, row)] = {k + 1: SignedTrop.neg(0)}
            row += 1
    pencil = MetzlerPencil(row, n + hidden, entries)

    support_set = frozenset(support)
    inner = pp.witness

    def witness(x):
        x = to_trop_vector(x)
        if any(not x[k].is_neg_inf for k in range(n) if k not in support_set):
            return None
        sub = tuple(x[k] for k in support)
        if inner is None:
            lifted = sub
        else:
            lifted = inner(sub)
            if lifted is None:
                return None
        return tuple(x) + tuple(lifted[k_count:])

    gens = None
    if pp.gens is not None:
        embedded = []
        for g in pp.gens.points:
            point = [NEG_INF] * n
            for i, k in enumerate(support):
                point[k] = g[i]
            embedded.append(tuple(point))
        gens = TropPointSet(n, tuple(embedded))
    return ProjectedPencil(pencil, n, witness, gens=gens)
