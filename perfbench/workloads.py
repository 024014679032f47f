"""The four workloads and the loop that measures them.

Each workload builds its inputs from the seed in `setup`, runs every input
once in `warmup` and checks every output there, and is then timed for the
window in whole passes: passes over a pool of unit operations (`op_pass`),
repeated batches (`batch`), or both. Every timed operation is checked again, against invariants that hold
on any seed and against its own warm-up result. Graph objects are rebuilt
from JSON for every synthesis, so the library's per-object absorption cache
never serves one pass from an earlier one.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from tropcone import (
    GameGraph,
    MetzlerPencil,
    absorption,
    affine_envelope,
    eval_F_from_polyhedra,
    first_transformation,
    is_compliant,
    lp_max,
    pencil_member,
    pipeline,
    subfixed,
    synthesize_cone,
    tropical_convexity_falsifier,
    union_member,
    verify_graph,
)
from tropcone import cli
from tropcone.fixtures import example_graph, example_union
from tropcone.pencil import eval_compliant_operator, subfixed_extended
from tropcone.sampling import sample_vector
from tropcone.scalars import NEG_INF, Trop
from tropcone.transforms import zwick_paterson_with_gadgets

from .harness import digest, pencil_key
from .tracing import END, START
from .instances import (
    MAX_DRAWS,
    LADDER_N2,
    LADDER_N3,
    QUERY_N3,
    check_valid,
    graph_instance,
    named_instance,
    points_above,
    random_union,
)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _envelope_point(y):
    return tuple(y) + tuple(-v for v in y)


def _inside_closure(target: GameGraph, p):
    """Lower to -inf every coordinate that exceeds its operator value until
    none does; the result lies in the extended subfixed set."""
    p = list(p)
    while True:
        fx = eval_compliant_operator(target, p)
        bad = [k for k, (a, b) in enumerate(zip(p, fx)) if not a <= b]
        if not bad:
            return tuple(p)
        for k in bad:
            p[k] = NEG_INF


def _with_neg_inf(rng: random.Random, y, share: float):
    return tuple(NEG_INF if rng.random() < share else Trop(v) for v in y)


def _trop_arg(p) -> str:
    return ",".join(c.to_str() if isinstance(c, Trop) else f"{c.numerator}/{c.denominator}" for c in p)


class Workload:
    """Common state. A workload with `op_share` > 0 spends that share of the
    window on passes of `op_pass` and the rest on batches; with 0, its
    operations are the parts of each batch."""

    name = ""
    op_share = 0.0

    def __init__(self, seed: int, tiny: bool, tracer, tally, gauge, tmp_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.tr = tracer
        self.tally = tally
        self.gauge = gauge
        self.tmp_dir = tmp_dir
        self.decompose = False
        self.instances = []

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> dict:
        raise NotImplementedError

    def op_pass(self) -> list[float]:
        """One pass over the operation pool; returns each operation's time."""
        raise NotImplementedError

    def batch(self) -> list[float]:
        """One batch; returns the times of its parts (its operations)."""
        raise NotImplementedError

    def final_digests(self) -> dict:
        """Digests of outputs that only the timed batches produce."""
        return {}

    def sizes(self) -> list[tuple[str, dict]]:
        """Name and sizes of every instance."""
        return [(inst.name, inst.sizes) for inst in self.instances]


class SynthLadder(Workload):
    """Pipeline, cone synthesis and affine envelope over a ladder of graphs."""

    name = "synth-ladder"

    def setup(self):
        tr = self.tr
        insts = [named_instance("example", example_graph())]
        if not self.tiny:
            insts += [graph_instance(self.seed, LADDER_N2, i) for i in range(2)]
            insts += [graph_instance(self.seed, LADDER_N3, i) for i in range(6)]
        check_valid(insts, tr)
        self.instances = insts
        self.points = {
            inst.name: [
                sample_vector(_rng(self.seed, "ladder-point", inst.name, j), inst.n, 6, 8)
                for j in range(2 if self.tiny else 6)
            ]
            for inst in insts
        }

    def _synth(self, g):
        tr = self.tr
        target, witness = tr.call("transforms.pipeline", pipeline, g)
        cone = tr.call("pencil.synth", synthesize_cone, target)
        env = tr.call("pencil.envelope", affine_envelope, cone)
        return target, witness, cone, env

    def warmup(self):
        tally = self.tally
        self.ref = {}
        targets, lifts, bits = [], [], []
        for inst in self.instances:
            with tally.attempt(f"synthesize {inst.name}"):
                g = inst.fresh()
                target, witness, cone, env = self._synth(g)
                tally.expect(is_compliant(target), inst.name, "target graph is not compliant")
                tally.expect(
                    (cone.n, cone.m) == (inst.sizes["pencil_n"], inst.sizes["pencil_m"]),
                    inst.name,
                    f"pencil is {cone.m}x{cone.n}, sizes predict "
                    f"{inst.sizes['pencil_m']}x{inst.sizes['pencil_n']}",
                )
                tally.expect(env.n == 2 * cone.n, inst.name, "envelope has the wrong dimension")
                for x in self.points[inst.name]:
                    y = witness.lift(x)
                    tally.expect(witness.project(y) == x, inst.name, f"project(lift({x})) != x")
                    inside = subfixed(g, x)
                    tally.expect(
                        inside == pencil_member(env, _envelope_point(y)),
                        inst.name,
                        f"subfixed and envelope membership disagree at {x}",
                    )
                    lifts.append([str(v) for v in y])
                    bits.append(inside)
                target_json = target.to_json()
                targets.append(target_json)
                self.ref[inst.name] = (digest(target_json), digest(pencil_key(env)))
        return {"target_graphs": digest(targets), "lifts": digest(lifts), "member_bits": digest(bits)}

    def _stages(self, inst):
        """Zwick-Paterson, one absorption solve and the first transformation
        on fresh copies, timed one by one (traced runs only)."""
        tr = self.tr
        zp, gadgets = tr.call("transforms.zp", zwick_paterson_with_gadgets, inst.fresh())
        zp_span = tr.spans[-1]
        tr.count("transforms.gadgets", len(gadgets))
        zp_copy = GameGraph.from_json(zp.to_json())
        tr.call("graph.absorption", absorption, zp_copy)
        tr.count("graph.absorption_k", len(zp_copy.random_vertices))
        t1, _ = tr.call("transforms.t1", first_transformation, GameGraph.from_json(zp.to_json()))
        t1_span = tr.spans[-1]
        tr.count(
            "transforms.splits",
            sum(1 for e in t1.edges if t1.kind[e.tail] == "random" and t1.kind[e.head] == "random"),
        )
        return sum(span[END] - span[START] for span in (zp_span, t1_span))

    def batch(self):
        tr, tally = self.tr, self.tally
        times = []
        for inst in self.instances:
            staged = 0.0
            if self.decompose:
                tr.phase = "decompose"
                tr.next_op()
                staged = self._stages(inst)
                tr.phase = "work"
            g = inst.fresh()
            with tally.attempt(f"synthesize {inst.name}"):
                tr.next_op()
                with self.gauge.measure() as took, tr.span("op.synth"):
                    target, _, cone, env = self._synth(g)
                elapsed = took.seconds
                if self.decompose:
                    stages = [span[END] - span[START] for span in tr.spans[-3:]]
                    tr.count("transforms.split_s", stages[0] - staged)
                    tr.count("transforms.synth_op_s", sum(stages))
                    tr.count("transforms.target_edges", len(target.edges))
                    tr.count("transforms.lift_dim", target.n)
                    tr.count("pencil.m", cone.m)
                    tr.count("pencil.entries", len(cone.entries))
                want_target, want_env = self.ref[inst.name]
                tally.expect(digest(target.to_json()) == want_target, inst.name, "target graph changed")
                tally.expect(digest(pencil_key(env)) == want_env, inst.name, "envelope changed")
                times.append(elapsed)
        return times


class QueryStream(Workload):
    """Membership queries against pencils synthesized once in set-up, and
    verify_graph sweeps over the same graphs."""

    name = "query-stream"
    op_share = 0.55

    def setup(self):
        tr = self.tr
        insts = [named_instance("example", example_graph())]
        if not self.tiny:
            insts += [graph_instance(self.seed, QUERY_N3[i % 3], i) for i in range(6)]
        check_valid(insts, tr)
        self.instances = insts
        self.graphs = []
        for inst in insts:
            g = inst.fresh()
            target, witness = tr.call("transforms.pipeline", pipeline, g)
            cone = tr.call("pencil.synth", synthesize_cone, target)
            env = tr.call("pencil.envelope", affine_envelope, cone)
            self.graphs.append((inst, g, target, witness, cone, env))
        # Per graph, three of four queries are source points, half of them
        # inside the set; one in four is a target point with -inf
        # coordinates, half of those pulled into the set. pencil_member
        # stops at the first violated row, so the inside share sets the
        # cost of a query and is fixed here rather than left to the draw.
        count = 8 if self.tiny else 48
        pools = []
        for gi, (inst, g, target, witness, cone, env) in enumerate(self.graphs):
            rng = _rng(self.seed, "queries", inst.name)
            pool = []
            for j in range(count):
                x = sample_vector(rng, inst.n, 6, 8)
                if j % 4 != 3:
                    want = j % 2 == 0
                    for _ in range(MAX_DRAWS):
                        if subfixed(g, x) == want:
                            break
                        x = sample_vector(rng, inst.n, 6, 8)
                    pool.append(("source", gi, x))
                    continue
                p = _with_neg_inf(rng, witness.lift(x), 0.25)
                if j % 8 == 7:
                    p = _inside_closure(target, p)
                pool.append(("target", gi, p))
            pools.append(pool)
        self.pool = [q for group in zip(*pools) for q in group]
        self.verify_samples = 8 if self.tiny else 96
        self.verify_override = None
        self.reports = None

    def _query(self, q):
        tr = self.tr
        kind, gi, p = q
        _, g, target, witness, cone, env = self.graphs[gi]
        if kind == "source":
            a = tr.call("graph.subfixed", subfixed, g, p)
            y = tr.call("transforms.lift", witness.lift, p)
            b = tr.call("pencil.member", pencil_member, env, _envelope_point(y))
            tr.rename_last("pencil.member_in" if b else "pencil.member_out")
            return a, b, y
        c = tr.call("pencil.cone_member", pencil_member, cone, p)
        d = tr.call("pencil.subfixed_ext", subfixed_extended, target, p)
        return c, d, None

    def _check(self, q, a, b, y):
        tally = self.tally
        kind, gi, p = q
        tally.expect(a == b, f"{kind} query", f"the two answers differ at {p}")
        if y is not None:
            witness = self.graphs[gi][3]
            tally.expect(witness.project(y) == tuple(p), "lift", f"project(lift(x)) != x at {p}")

    def warmup(self):
        self.expected = []
        lifts, bits = [], []
        for q in self.pool:
            with self.tally.attempt("query"):
                a, b, y = self._query(q)
                self._check(q, a, b, y)
                self.expected.append(a)
                bits.append(a)
                if y is not None:
                    lifts.append([str(v) for v in y])
        targets = [target.to_json() for _, _, target, _, _, _ in self.graphs]
        return {"target_graphs": digest(targets), "lifts": digest(lifts), "member_bits": digest(bits)}

    def op_pass(self):
        tr, tally = self.tr, self.tally
        times = []
        for q, want in zip(self.pool, self.expected):
            with tally.attempt("query"):
                tr.next_op()
                with self.gauge.measure() as took, tr.span("op.query"):
                    a, b, y = self._query(q)
                self._check(q, a, b, y)
                tally.expect(a == want, "query", f"answer changed at {q[2]}")
                times.append(took.seconds)
        return times

    def batch(self):
        tr, tally = self.tr, self.tally
        reports, times = [], []
        for inst in self.instances:
            g = inst.fresh()
            with tally.attempt(f"verify {inst.name}"):
                tr.next_op()
                with self.gauge.measure() as took:
                    rep = tr.call(
                        "verify.run", verify_graph, g, samples=self.verify_samples,
                        seed=self.seed, box=6, denom=8, instance=inst.name,
                        pencil_override=self.verify_override,
                    )
                times.append(took.seconds)
                tally.expect(rep.ok, f"verify {inst.name}", f"report not ok: {rep.to_json()}")
                tally.expect(rep.samples == self.verify_samples, f"verify {inst.name}", "sample count")
                tr.count("verify.inside", rep.subfixed_count)
                tr.count("verify.agree", rep.forward_agreements + rep.backward_agreements)
                tr.count("verify.samples", rep.samples)
                reports.append(rep.to_json())
        if self.reports is None:
            self.reports = reports
        else:
            tally.expect(reports == self.reports, "verify", "reports differ between passes")
        return [sum(times)]

    def final_digests(self) -> dict:
        return {"verify_reports": digest(self.reports)}


class LpFrontend(Workload):
    """The canonical operator of polyhedral unions, by exact LPs."""

    name = "lp-frontend"

    def setup(self):
        self.example = example_union()
        unions = [] if self.tiny else [random_union(self.seed, i) for i in range(24)]
        ex_rng = _rng(self.seed, "lp-points", "example")
        rand_points = []
        for i, (u, centers) in enumerate(unions):
            rng = _rng(self.seed, "lp-points", i)
            rand_points += [(u, x) for x in points_above(rng, centers, 1)]
        # Three example points to one random-union point: the example's
        # evaluations set the median and the random unions' the tail.
        pool = []
        for item in rand_points:
            pool += [(self.example, sample_vector(ex_rng, 3, 6, 8)) for _ in range(3)] + [item]
        if self.tiny:
            pool = [(self.example, sample_vector(ex_rng, 3, 6, 8)) for _ in range(4)]
        self.pool = pool
        self.unions = unions
        self.trials = 1 if self.tiny else 10

    def sizes(self):
        unions = [("example-union", self.example)] + [
            (f"union#{i}", u) for i, (u, _) in enumerate(self.unions)
        ]
        return [
            (name, {"n": u.n, "pieces": len(u.pieces), "rows": sum(len(b) for _, b in u.pieces)})
            for name, u in unions
        ]

    def _check(self, u, x, fx, member):
        tally = self.tally
        tally.expect(all(a <= b for a, b in zip(fx, x)), "eval_F", f"F(x) > x at {x}")
        if member:
            tally.expect(tuple(fx) == tuple(x), "eval_F", f"F(x) != x at member {x}")

    def _lps(self, u, x, fx):
        """Every (piece, coordinate) LP of one evaluation, timed one by one
        (traced runs only); their maxima must equal F(x)."""
        tr = self.tr
        best = [None] * u.n
        for a, b in u.pieces:
            for k in range(u.n):
                v = tr.call("lp.lp_max", lp_max, a, b, x, k)
                tr.count("lp.feasible", int(v is not None))
                if v is not None and (best[k] is None or v > best[k]):
                    best[k] = v
        tr.count("lp.lp_calls", u.n * len(u.pieces))
        self.tally.expect(tuple(best) == tuple(fx), "lp_max", f"LP maxima differ from F(x) at {x}")

    def warmup(self):
        tr, tally = self.tr, self.tally
        self.expected = []
        values, bits = [], []
        for u, x in self.pool:
            with tally.attempt("eval_F"):
                fx = tr.call("lp.eval_F", eval_F_from_polyhedra, u, x)
                member = tr.call("lp.union_member", union_member, u, x)
                self._check(u, x, fx, member)
                self.expected.append((fx, member))
                values.append([str(v) for v in fx])
                bits.append(member)
        with tally.attempt("falsifier"):
            self._falsify_example(self.trials)
        found = []
        for u, _ in self.unions[:1]:
            with tally.attempt("falsifier"):
                hit = tropical_convexity_falsifier(u, 2, seed=self.seed)
                if hit is not None:
                    y1, y2, lam, mu, z = hit
                    tally.expect(
                        z == tuple(max(lam + a, mu + b) for a, b in zip(y1, y2)),
                        "falsifier", "z is not the tropical combination",
                    )
                    tally.expect(not _in_union(u, z), "falsifier", f"{z} lies in the union")
                found.append(None if hit is None else [str(v) for v in hit[4]])
        return {"eval_values": digest(values), "member_bits": digest(bits), "falsifier": digest(found)}

    def _falsify_example(self, trials: int) -> None:
        # The example union is the subfixed set of a min-max operator, hence
        # a tropical cone: no trial may falsify its convexity.
        hit = self.tr.call(
            "lp.falsifier", tropical_convexity_falsifier, self.example, trials, seed=self.seed
        )
        self.tally.expect(hit is None, "falsifier", f"example union reported non-convex: {hit}")

    def batch(self):
        """One pass over the evaluation pool. Traced, it also times every LP
        of each evaluation and one falsifier sweep of the example union."""
        tr, tally = self.tr, self.tally
        times = []
        for (u, x), want in zip(self.pool, self.expected):
            with tally.attempt("eval_F"):
                tr.next_op()
                with self.gauge.measure() as took, tr.span("op.eval"):
                    fx = tr.call("lp.eval_F", eval_F_from_polyhedra, u, x)
                member = tr.call("lp.union_member", union_member, u, x)
                self._check(u, x, fx, member)
                tally.expect((fx, member) == want, "eval_F", f"result changed at {x}")
                if self.decompose:
                    tr.phase = "decompose"
                    self._lps(u, x, fx)
                    tr.phase = "work"
                times.append(took.seconds)
        if self.decompose:
            tr.phase = "decompose"
            with tally.attempt("falsifier"):
                self._falsify_example(self.trials)
            tr.phase = "work"
        return times


def _in_union(u, z) -> bool:
    """Union membership by direct substitution, independent of lp."""
    return any(
        all(sum(av * zv for av, zv in zip(row, z)) <= bi for row, bi in zip(a, b))
        for a, b in u.pieces
    )


class CliFiles(Workload):
    """The tropcone command, called in-process on files."""

    name = "cli-files"

    def setup(self):
        insts = [named_instance("example", example_graph())]
        if not self.tiny:
            insts.append(graph_instance(self.seed, QUERY_N3[0], 0))
        check_valid(insts, self.tr)
        self.instances = insts
        self.files = {}
        for inst in insts:
            path = os.path.join(self.tmp_dir, f"{inst.name}.json")
            with open(path, "w") as handle:
                json.dump(inst.graph_json, handle)
            self.files[inst.name] = path

    def _out(self, name):
        return os.path.join(self.tmp_dir, name)

    def warmup(self):
        """Compute every expected output in-process, build the command
        script, run it once and check each output against expectation."""
        tally = self.tally
        self.script = []
        expect = {}
        self.pencils = {}
        samples = 4 if self.tiny else 8
        for inst in self.instances:
            g = inst.fresh()
            target, witness = pipeline(g)
            cone = synthesize_cone(target)
            self.pencils[inst.name] = cone
            rng = _rng(self.seed, "cli-points", inst.name)
            xs = [sample_vector(rng, inst.n, 6, 8) for _ in range(2)]
            ps = [witness.lift(xs[0]), _with_neg_inf(rng, witness.lift(xs[1]), 0.25)]
            gfile, pfile = self.files[inst.name], self._out(f"{inst.name}.pencil.json")
            base = inst.name
            steps = [
                ("validate", ["validate", gfile], f"{base}.validate.json",
                 {"ok": True, "failures": []}),
                ("transform", ["transform", "pipeline", gfile], f"{base}.pipeline.json", None),
                ("synthesize", ["synthesize", gfile], f"{base}.pencil.json", None),
            ]
            for j, p in enumerate(ps):
                steps.append(("member", ["member", pfile, f"--point={_trop_arg(p)}"],
                              f"{base}.member{j}.json", {"member": subfixed_extended(target, p)}))
            for j, x in enumerate(xs):
                steps.append(("lift", ["lift", gfile, f"--point={_trop_arg(x)}"], f"{base}.lift{j}.json",
                              [f"{v.numerator}/{v.denominator}" for v in witness.lift(x)]))
            steps.append(("verify", ["verify", gfile, "--samples", str(samples), "--seed",
                                     str(self.seed), "--box", "6", "--denom", "8"],
                          f"{base}.verify.json", None))
            steps.append(("section", ["section", gfile, "--fix", f"{inst.n}=0", "--lo=-3",
                                      "--hi", "3", "--step", "1/2"], f"{base}.section.csv", None))
            for kind, argv, out, want in steps:
                self.script.append((kind, argv + ["--out", self._out(out)], self._out(out)))
                expect[out] = want
            expect[f"{base}.pipeline.json"] = target.to_json()
            expect[f"{base}.section.csv"] = self._section(g, inst.n)

        self.sha = {}
        digests = {}
        for kind, argv, out in self.script:
            name = os.path.basename(out)
            with tally.attempt(f"tropcone {kind}"):
                code = cli.main(argv)
                tally.expect(code == 0, f"tropcone {kind}", f"exit code {code}")
                with open(out, "rb") as handle:
                    data = handle.read()
                self.sha[out] = hashlib.sha256(data).hexdigest()
                if kind == "synthesize":
                    inst_name = name[: -len(".pencil.json")]
                    loaded = MetzlerPencil.from_json(json.loads(data))
                    tally.expect(
                        pencil_key(loaded) == pencil_key(self.pencils[inst_name]),
                        "tropcone synthesize", "pencil file differs from synthesize_cone",
                    )
                    continue
                if kind == "section":
                    got = data.decode()
                elif kind == "transform":
                    got = json.loads(data)["graph"]
                else:
                    got = json.loads(data)
                if kind == "verify":
                    tally.expect(got["ok"] is True, "tropcone verify", f"report {got}")
                    # The report names its input by path, which holds the pid.
                    got["instance"] = os.path.basename(got["instance"])
                else:
                    tally.expect(got == expect[name], f"tropcone {kind}", f"{name}: {got!r}")
                digests.setdefault(kind, []).append(got)
        return {f"{kind}_outputs": digest(v) for kind, v in sorted(digests.items())}

    def _section(self, g, n) -> str:
        ticks = [Fraction(-3) + Fraction(k, 2) for k in range(13)]
        rows = []
        for y in reversed(ticks):
            cells = []
            for x in ticks:
                point = [Fraction(0)] * n
                point[0], point[1] = x, y
                cells.append("1" if subfixed(g, point) else "0")
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"

    def _pencil_io(self):
        """The pencil file's write and read paths without the command
        (traced runs only)."""
        tr = self.tr
        for name, cone in self.pencils.items():
            text = tr.call("pencil.to_json", lambda: json.dumps(cone.to_json(), indent=2, sort_keys=True))
            tr.count("pencil.json_bytes", len(text.encode()))
            loaded = tr.call("pencil.from_json", lambda: MetzlerPencil.from_json(json.loads(text)))
            self.tally.expect(pencil_key(loaded) == pencil_key(cone), "pencil json", name)

    def batch(self):
        tr, tally = self.tr, self.tally
        times = []
        written = 0
        for kind, argv, out in self.script:
            with tally.attempt(f"tropcone {kind}"):
                tr.next_op()
                with self.gauge.measure() as took:
                    code = tr.call(f"cli.{kind}", cli.main, argv)
                times.append(took.seconds)
                tally.expect(code == 0, f"tropcone {kind}", f"exit code {code}")
                with open(out, "rb") as handle:
                    data = handle.read()
                tally.expect(hashlib.sha256(data).hexdigest() == self.sha[out],
                             f"tropcone {kind}", f"{os.path.basename(out)} changed")
                if kind == "synthesize":
                    written += len(data)
        tr.count("cli.pencil_file_bytes", written)
        if self.decompose:
            tr.phase = "decompose"
            with tally.attempt("pencil json"):
                self._pencil_io()
            tr.phase = "work"
        return times


WORKLOADS = {cls.name: cls for cls in (SynthLadder, QueryStream, LpFrontend, CliFiles)}
