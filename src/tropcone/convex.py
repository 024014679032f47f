"""Membership in finitely generated tropical cones and convex hulls.

Membership is decided by residuation: for each generator, the largest
admissible scaling is computed coordinatewise, and the point belongs to the
cone iff the resulting combination reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalars import NEG_INF, Trop, sized, tadd, tmul

Point = tuple[Trop, ...]


def to_trop_vector(x) -> Point:
    """x as `Trop`s; a coordinate that `Trop` does not read, such as a
    float, raises ValueError."""
    return tuple(v if isinstance(v, Trop) else Trop(v) for v in x)


@dataclass(frozen=True)
class TropPointSet:
    """Hull/cone generators: points of T^n, each held as `Trop`s (`to_trop_vector`)."""

    dimension: int
    points: tuple[Point, ...]

    def __post_init__(self):
        points = tuple(sized(to_trop_vector(p), self.dimension) for p in self.points)
        object.__setattr__(self, "points", points)


def residual_coefficient(y: Point, g: Point) -> Trop:
    """Largest lam with lam + g <= y coordinatewise; -inf-only generators
    are inert and get coefficient -inf."""
    lam = None
    for yi, gi in zip(y, g):
        if gi.is_neg_inf:
            continue
        if yi.is_neg_inf:
            return NEG_INF
        cand = Trop(yi.finite - gi.finite)
        if lam is None or cand < lam:
            lam = cand
    return NEG_INF if lam is None else lam


def residual_combination(y: Point, gens: Sequence[Point]) -> Point:
    """max_k(lam_k + g_k) over the residuation coefficients lam_k of y."""
    combo = tuple(NEG_INF for _ in y)
    for g in gens:
        lam = residual_coefficient(y, g)
        combo = tuple(tadd(c, tmul(lam, gi)) for c, gi in zip(combo, g))
    return combo


def cone_member(y: Point, generators: TropPointSet) -> bool:
    """Is y a tropical combination of the generators?"""
    y = sized(to_trop_vector(y), generators.dimension)
    return residual_combination(y, generators.points) == y


def _homogenize(points) -> tuple[Point, ...]:
    zero = Trop(0)
    return tuple((zero,) + tuple(p) for p in points)


def hull_member(y: Point, generators: TropPointSet) -> bool:
    """Is y in the tropical convex hull of the generators?

    Reduces to cone membership of (0, y) over the homogenized generators.
    """
    y = sized(to_trop_vector(y), generators.dimension)
    cone = TropPointSet(generators.dimension + 1, _homogenize(generators.points))
    return cone_member((Trop(0),) + y, cone)

