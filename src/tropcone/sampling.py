"""Deterministic rational sampling for verification harnesses.

Every sample index owns its own RNG derived from (seed, index), so sampling
is reproducible and order-independent.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import NEG_INF, Trop, int_from_json


def check_sampling(caller: str, count_name: str, count, seed, box, denom) -> None:
    """Read a sampler's count, seed, box and denom by `int_from_json`
    (ValueError for a bool, a float or a string) and refuse a negative
    count or box and a denom below 1 with a ValueError naming the argument."""
    int_from_json(seed)
    for name, value, least in ((count_name, count, 0), ("box", box, 0), ("denom", denom, 1)):
        if int_from_json(value) < least:
            raise ValueError(f"{caller} needs {name} >= {least}, not {value}")


def rng_for(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def sample_rational(rng: random.Random, box: int = 10, denom: int = 64) -> Fraction:
    """A rational in [-box, box] with denominator at most `denom`."""
    q = rng.randint(1, denom)
    p = rng.randint(-box * q, box * q)
    return Fraction(p, q)


def sample_vector(rng: random.Random, n: int, box: int = 10, denom: int = 64):
    return tuple(sample_rational(rng, box, denom) for _ in range(n))


def sample_trop_vector(
    rng: random.Random, n: int, box: int = 10, denom: int = 64, neg_inf_prob: float = 0.3
):
    """A point of T^n; each coordinate is -inf with the given probability."""
    return tuple(
        NEG_INF if rng.random() < neg_inf_prob else Trop(sample_rational(rng, box, denom))
        for _ in range(n)
    )
