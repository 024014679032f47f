"""Seeded instances: min-max game graphs of a fixed shape and polyhedral
unions.

Every instance is a pure function of (seed, shape, index), so the same seed
gives the same inputs in every process. Graph shapes are bands on the sizes
that set the pipeline's cost (Random vertices after Zwick-Paterson and
Random-to-Random edges after the first transformation). Candidates outside
the band are redrawn, so that two seeds give instances of comparable cost
and the run-to-run spread measures the code, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from tropcone.graph import GameGraph, MinMaxOperator, graph_from_minmax, validate_graph
from tropcone.lp import PolyhedralUnion
from tropcone.transforms import first_transformation, zwick_paterson_with_gadgets

MAX_DRAWS = 2000


@dataclass(frozen=True)
class GraphShape:
    """Min-max graphs built from stochastic rows with exactly `n`
    coordinates, row denominators drawn from `denominators`, offsets in
    quarter steps over `offsets`, and sizes inside the bands (the last on
    the rows of the pencil the graph will give)."""

    name: str
    n: int
    denominators: tuple[int, ...]
    offsets: tuple[int, int]
    k_band: tuple[int, int]
    split_band: tuple[int, int]
    m_band: tuple[int, int] = (0, 10**6)


# Deep Zwick-Paterson gadgets: two coordinates, probabilities over 64.
LADDER_N2 = GraphShape("ladder-n2-d64", 2, (64,), (0, 6), (24, 24), (36, 36))
# Many Random-to-Random edges: three coordinates, probabilities over 5.
LADDER_N3 = GraphShape("ladder-n3-d5", 3, (5,), (0, 6), (18, 20), (28, 30))
# Query graphs, one shape per denominator from 4 to 6, all near the
# example's size. Offsets are nonnegative so that a fair share of sampled
# points lies inside the subfixed set. The first is also the graph of
# cli-files, whose cost follows the size of the pencil file, so its pencil
# rows are banded as well.
QUERY_N3 = (
    GraphShape("query-n3-d4", 3, (4,), (0, 6), (12, 16), (18, 24), (56, 58)),
    GraphShape("query-n3-d5", 3, (5,), (0, 6), (12, 16), (18, 24)),
    GraphShape("query-n3-d6", 3, (6,), (0, 6), (12, 16), (18, 24)),
)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def stochastic_row(rng: random.Random, n: int, denom: int) -> tuple[Fraction, ...]:
    """A nonnegative row of n rationals over `denom` summing to one."""
    cuts = sorted(rng.randint(0, denom) for _ in range(n - 1))
    parts, prev = [], 0
    for c in cuts + [denom]:
        parts.append(Fraction(c - prev, denom))
        prev = c
    rng.shuffle(parts)
    return tuple(parts)


def random_minmax(rng: random.Random, shape: GraphShape) -> MinMaxOperator:
    n, lo, hi = shape.n, shape.offsets[0], shape.offsets[1]
    denom = rng.choice(shape.denominators)
    matrices = tuple(tuple(stochastic_row(rng, n, denom) for _ in range(n)) for _ in range(2))
    offsets = tuple(
        tuple(Fraction(rng.randint(4 * lo, 4 * hi), 4) for _ in range(n)) for _ in range(2)
    )
    subsets = tuple(rng.choice([((0,),), ((1,),), ((0, 1),), ((0,), (1,))]) for _ in range(n))
    return MinMaxOperator(n=n, matrices=matrices, offsets=offsets, subsets=subsets)


def _zp_sizes(g: GameGraph) -> tuple[GameGraph, dict]:
    zp, gadgets = zwick_paterson_with_gadgets(GameGraph.from_json(g.to_json()))
    sizes = {
        "vertices": len(g.kind),
        "edges": len(g.edges),
        "gadgets": len(gadgets),
        "absorption_k": len(zp.random_vertices),
    }
    return zp, sizes


def _t1_sizes(zp: GameGraph) -> dict:
    t1, _ = first_transformation(GameGraph.from_json(zp.to_json()))
    splits = sum(
        1 for e in t1.edges if t1.kind[e.tail] == "random" and t1.kind[e.head] == "random"
    )
    min_out = sum(len(t1.out_edges[v]) for v in t1.min_vertices)
    return {
        "rr_edges": splits,
        "pencil_n": t1.n + splits,
        "pencil_m": 2 * (min_out + splits),
    }


def graph_sizes(g: GameGraph) -> dict:
    """Sizes of a graph and of the pencil its pipeline will give, from the
    Zwick-Paterson output and one first transformation (the split loop,
    which is the expensive stage, is not run)."""
    zp, sizes = _zp_sizes(g)
    return {**sizes, **_t1_sizes(zp)}


@dataclass(frozen=True)
class GraphInstance:
    name: str
    graph_json: dict
    sizes: dict
    n: int

    def fresh(self) -> GameGraph:
        """A new graph object, so no per-object cache carries over."""
        return GameGraph.from_json(self.graph_json)


def graph_instance(seed: int, shape: GraphShape, index: int) -> GraphInstance:
    """The index-th graph of `shape` for `seed`."""
    lo_k, hi_k = shape.k_band
    lo_s, hi_s = shape.split_band
    for draw in range(MAX_DRAWS):
        g = graph_from_minmax(random_minmax(_rng(seed, shape.name, index, draw), shape))
        zp, sizes = _zp_sizes(g)
        if not lo_k <= sizes["absorption_k"] <= hi_k:
            continue
        sizes.update(_t1_sizes(zp))
        lo_m, hi_m = shape.m_band
        if lo_s <= sizes["rr_edges"] <= hi_s and lo_m <= sizes["pencil_m"] <= hi_m:
            return GraphInstance(f"{shape.name}#{index}", g.to_json(), sizes, g.n)
    raise RuntimeError(f"no {shape.name} graph in its size band after {MAX_DRAWS} draws")


def named_instance(name: str, g: GameGraph) -> GraphInstance:
    return GraphInstance(name, g.to_json(), graph_sizes(g), g.n)


def check_valid(instances, tracer) -> None:
    for inst in instances:
        report = tracer.call("graph.validate", validate_graph, inst.fresh())
        if not report.ok:
            raise RuntimeError(f"generated graph {inst.name} is invalid: {report}")


def random_union(
    seed: int, index: int, n: int = 4, pieces: int = 6, rows: int = 8, box: int = 5
) -> tuple[PolyhedralUnion, tuple]:
    """A union of `pieces` polytopes in R^n with `rows` random integer
    facets each, and a known interior point (center) of every piece."""
    rng = _rng(seed, "union", index)
    out, centers = [], []
    for _ in range(pieces):
        c = tuple(Fraction(rng.randint(-2 * box, 2 * box), 2) for _ in range(n))
        a_rows, b = [], []
        for _ in range(rows):
            a = (0,) * n
            while not any(a):
                a = tuple(rng.randint(-3, 3) for _ in range(n))
            a_rows.append(tuple(Fraction(v) for v in a))
            b.append(sum(ai * ci for ai, ci in zip(a, c)) + Fraction(rng.randint(1, 8), 2))
        out.append((tuple(a_rows), tuple(b)))
        centers.append(c)
    return PolyhedralUnion(n, tuple(out)), tuple(centers)


def points_above(rng: random.Random, centers, count: int, spread: int = 3):
    """Points x >= c for a random center c; the piece of c has a point below
    x, so the canonical operator is defined at x."""
    pts = []
    for _ in range(count):
        c = rng.choice(centers)
        pts.append(tuple(v + Fraction(rng.randint(0, 4 * spread), 4) for v in c))
    return pts
