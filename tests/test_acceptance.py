"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact; the sampled point counts and instance counts follow
the acceptance targets of the project.
"""

import json
import time
from fractions import Fraction

from support import (
    gadget_exit_probability,
    hull_member,
    hull_member_bruteforce,
    lp_max_oracle,
    random_compliant_graph,
    random_valid_graph,
)
from tropcone.cli import main
from tropcone.fixtures import example_graph, example_union
from tropcone.graph import eval_operator, subfixed
from tropcone.lp import (
    PolyhedralUnion,
    eval_F_from_polyhedra,
    lp_max,
    tropical_convexity_falsifier,
    union_member,
)
from tropcone.pencil import (
    TropPointSet,
    pencil_from_generators,
    pencil_member,
    subfixed_extended,
    synthesize_cone,
)
from tropcone.sampling import rng_for, sample_rational, sample_trop_vector, sample_vector
from tropcone.transforms import zwick_paterson_with_gadgets
from tropcone.verify import verify_graph

F = Fraction


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def corpus_graphs():
    graphs = [example_graph()]
    for trial in range(20):
        graphs.append(random_valid_graph(rng_for(1009, trial)))
    return graphs


def test_criterion_1_operator_preservation():
    start = time.monotonic()
    disagreements = 0
    for idx, g in enumerate(corpus_graphs()):
        out, _ = zwick_paterson_with_gadgets(g)
        for i in range(200):
            x = sample_vector(rng_for(2003 + idx, i), g.n, 8, 12)
            if eval_operator(out, x) != eval_operator(g, x):
                disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 10
    assert report(1, "operator preservation", ok), (disagreements, elapsed)


def test_criterion_2_gadget_absorption():
    bad = 0
    gadgets = 0
    for g in corpus_graphs():
        out, records = zwick_paterson_with_gadgets(g)
        for rec in records:
            gadgets += 1
            if gadget_exit_probability(out, rec) != rec.q:
                bad += 1
    ok = bad == 0 and gadgets > 0
    assert report(2, "gadget absorption", ok), (bad, gadgets)


def test_criterion_3_synthesis_equivalence():
    disagreements = 0
    for trial in range(20):
        g = random_compliant_graph(rng_for(3001, trial))
        pencil = synthesize_cone(g)
        for i in range(200):
            x = sample_vector(rng_for(3100 + trial, i), g.n, 8, 12)
            if pencil_member(pencil, x) != subfixed(g, x):
                disagreements += 1
        for i in range(50):
            y = sample_trop_vector(rng_for(3200 + trial, i), g.n, 8, 12, 0.5)
            if pencil_member(pencil, y) != subfixed_extended(g, y):
                disagreements += 1
    assert report(3, "synthesis equivalence", disagreements == 0), disagreements


def test_criterion_4_end_to_end_example():
    result = verify_graph(example_graph(), samples=500, seed=0, instance="example")
    ok = result.ok and result.wall_time < 30
    assert report(4, "end-to-end example", ok), result.to_json()


def test_criterion_5_homogenization_and_union():
    disagreements = 0
    for pair in range(10):
        rng = rng_for(5003, pair)
        n = rng.randint(2, 3)
        pts1 = tuple(
            sample_trop_vector(rng, n, 5, 6, 0.25) for _ in range(rng.randint(1, 3))
        )
        pts2 = tuple(
            sample_trop_vector(rng, n, 5, 6, 0.25) for _ in range(rng.randint(1, 3))
        )
        combined = TropPointSet(n, pts1 + pts2)
        union = pencil_from_generators(combined)
        for i in range(200):
            y = sample_trop_vector(rng_for(5100 + pair, i), n, 5, 6, 0.3)
            if union.member(y) != hull_member(y, combined):
                disagreements += 1
    assert report(5, "homogenization and union", disagreements == 0), disagreements


def test_criterion_6_caratheodory_oracle():
    disagreements = 0
    for count in range(1, 6):
        for variant in range(2):
            rng = rng_for(6007 + variant, count)
            n = rng.randint(2, 3)
            gens = TropPointSet(
                n, tuple(sample_trop_vector(rng, n, 5, 6, 0.25) for _ in range(count))
            )
            for i in range(200):
                y = sample_trop_vector(rng_for(6100 + 10 * variant + count, i), n, 5, 6, 0.3)
                if hull_member(y, gens) != hull_member_bruteforce(y, gens):
                    disagreements += 1
    assert report(6, "Caratheodory oracle", disagreements == 0), disagreements


def hand_built_cones():
    return [
        # {x1 <= x2} in the plane.
        PolyhedralUnion(2, ((((F(1), F(-1)),), (F(0),)),)),
        # {x1 - x3 <= 1, x2 - x3 <= 0}.
        PolyhedralUnion(
            3,
            (
                (
                    ((F(1), F(0), F(-1)), (F(0), F(1), F(-1))),
                    (F(1), F(0)),
                ),
            ),
        ),
        # The chain {x1 <= x2 <= x3}.
        PolyhedralUnion(
            3,
            (
                (
                    ((F(1), F(-1), F(0)), (F(0), F(1), F(-1))),
                    (F(0), F(0)),
                ),
            ),
        ),
        # The tropical span of (0,0,0) and (2,1,0), as two pieces.
        PolyhedralUnion(
            3,
            (
                (
                    (
                        (F(1), F(-1), F(0)),
                        (F(-1), F(1), F(0)),
                        (F(0), F(1), F(-1)),
                        (F(0), F(-1), F(1)),
                    ),
                    (F(1), F(-1), F(1), F(0)),
                ),
                (
                    (
                        (F(0), F(1), F(-1)),
                        (F(0), F(-1), F(1)),
                        (F(1), F(-1), F(0)),
                        (F(-1), F(1), F(0)),
                    ),
                    (F(0), F(0), F(1), F(0)),
                ),
            ),
        ),
        # The subfixed set of the Example operator.
        example_union(),
    ]


def test_criterion_7_lp_frontend():
    failures = 0
    for idx, u in enumerate(hand_built_cones()):
        if tropical_convexity_falsifier(u, trials=50, seed=idx) is not None:
            failures += 1
        for i in range(200):
            rng = rng_for(7001 + idx, i)
            x = sample_vector(rng, u.n, 5, 6)
            fx = eval_F_from_polyhedra(u, x)
            lam = sample_rational(rng, 5, 6)
            shifted = eval_F_from_polyhedra(u, tuple(v + lam for v in x))
            if shifted != tuple(v + lam for v in fx):
                failures += 1
            y = tuple(v + abs(sample_rational(rng, 3, 6)) for v in x)
            fy = eval_F_from_polyhedra(u, y)
            if not all(a <= b for a, b in zip(fx, fy)):
                failures += 1
            if union_member(u, x) != all(a <= b for a, b in zip(x, fx)):
                failures += 1
    for trial in range(20):
        rng = rng_for(7777, trial)
        n = rng.randint(2, 4)
        m = rng.randint(1, 6)
        a = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m))
        b = tuple(sample_rational(rng, 5, 4) for _ in range(m))
        x = sample_vector(rng, n, 5, 4)
        k = rng.randrange(n)
        if lp_max(a, b, x, k) != lp_max_oracle(a, b, x, k):
            failures += 1
    assert report(7, "LP frontend", failures == 0), failures


def test_criterion_8_section(tmp_path, capsys):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(example_graph().to_json()))
    args = [
        "section", str(path),
        "--fix", "3=0", "--lo=-9/2", "--hi", "5/2", "--step", "1/4",
    ]
    assert main(list(args)) == 0
    first = capsys.readouterr().out
    assert main(list(args)) == 0
    second = capsys.readouterr().out

    rows = [line.split(",") for line in first.strip().split("\n")]
    ticks = [F(-9, 2) + F(1, 4) * i for i in range(29)]
    col = {t: i for i, t in enumerate(ticks)}
    row = {t: i for i, t in enumerate(reversed(ticks))}
    ok = (
        first == second
        and rows[row[F(0)]][col[F(0)]] == "1"
        and rows[row[F(0)]][col[F(-3)]] == "1"
        and rows[row[F(0)]][col[F(2)]] == "0"
    )
    assert report(8, "section grid", ok)
