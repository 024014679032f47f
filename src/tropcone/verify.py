"""End-to-end verification: pipeline, synthesis, envelope, and sampled
equivalence between the subfixed set and the lifted pencil membership."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .graph import GameGraph, subfixed
from .pencil import MetzlerPencil, affine_envelope, pencil_member_integers, synthesize_cone
from .sampling import check_sampling, rng_for, sample_vector
from .scalars import sized
from .transforms import pipeline


@dataclass(frozen=True)
class VerificationReport:
    instance: str
    samples: int
    subfixed_count: int
    forward_agreements: int
    complement_count: int
    backward_agreements: int
    counterexample: Optional[tuple]
    wall_time: float

    @property
    def ok(self) -> bool:
        return (
            self.forward_agreements == self.subfixed_count
            and self.backward_agreements == self.complement_count
        )

    def to_json(self) -> dict:
        # Wall time is intentionally left out so that identical inputs give
        # byte-identical serialized reports.
        return {
            "instance": self.instance,
            "samples": self.samples,
            "subfixed": self.subfixed_count,
            "forward_agreements": self.forward_agreements,
            "complement": self.complement_count,
            "backward_agreements": self.backward_agreements,
            "ok": self.ok,
            "counterexample": None
            if self.counterexample is None
            else [str(v) for v in self.counterexample],
        }


def verify_graph(
    g: GameGraph,
    samples: int = 200,
    seed: int = 0,
    box: int = 10,
    denom: int = 64,
    instance: str = "graph",
    pencil_override: Optional[MetzlerPencil] = None,
) -> VerificationReport:
    """Check subfixed(g, x) <=> membership of the envelope-lifted point, kept
    in integers, at `samples` deterministic rational points.

    `pencil_override` substitutes the envelope pencil (used to confirm that
    corrupted pencils are caught); DimensionMismatch before any sample
    unless its n is 2 * target.n. A `samples`, `seed`, `box` or `denom`
    that is not an int (a bool or a float), a negative `samples` or `box`,
    or a `denom` below 1 raises ValueError before the pipeline runs."""
    check_sampling("verify_graph", "samples", samples, seed, box, denom)
    start = time.monotonic()
    target, witness = pipeline(g)
    if pencil_override is None:
        envelope = affine_envelope(synthesize_cone(target))
    else:
        envelope = pencil_override
        sized(range(envelope.n), 2 * target.n)

    n = g.n
    sub_count = fwd = comp_count = bwd = 0
    counterexample = None
    for i in range(samples):
        x = sample_vector(rng_for(seed, i), n, box, denom)
        left = subfixed(g, x)
        d, y = witness.lift_integers(x)
        right = pencil_member_integers(envelope, d, y + [-v for v in y])
        if left:
            sub_count += 1
            if right:
                fwd += 1
        else:
            comp_count += 1
            if not right:
                bwd += 1
        if left != right and counterexample is None:
            counterexample = x
    return VerificationReport(
        instance=instance,
        samples=samples,
        subfixed_count=sub_count,
        forward_agreements=fwd,
        complement_count=comp_count,
        backward_agreements=bwd,
        counterexample=counterexample,
        wall_time=time.monotonic() - start,
    )
