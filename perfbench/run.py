"""tropcone benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the library is imported from the
checkout's src/ directory, and the run fails without it. Workloads are
synth-ladder, query-stream, lp-frontend and cli-files (see BENCHMARK.json
and perfbench/METRICS.md). The run sets up its inputs three times and keeps
the median set-up time, warms up over every input, then measures for S
seconds. It prints instance sizes, output digests and the failure count,
and as its last line one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. End-to-end times are scaled to a reference machine
speed measured between operations (see harness.Gauge); the run prints the
machine's speed. A traced run measures the first half of its window
untraced and the second half traced; the difference is the tracing
overhead. Spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3

E2E = {
    "setup_s": "s",
    "batch_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def import_library() -> float:
    """Import tropcone from the checkout's src/ and return the time taken."""
    src = ROOT / "src"
    if not (src / "tropcone" / "__init__.py").is_file():
        raise SystemExit(f"error: no tropcone sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    start = perf_counter()
    import tropcone

    elapsed = perf_counter() - start
    if Path(tropcone.__file__).resolve().parent != (src / "tropcone").resolve():
        raise SystemExit(f"error: tropcone was imported from {tropcone.__file__}, not {src}")
    return elapsed


def timed_window(wl, seconds: float, trace: bool):
    """Whole passes for `seconds`: operation passes and batches interleaved
    so that each part gets its share of the window and both sample the whole
    of it. A pass that would probably end past the window is not started.
    With `trace`, the first half runs untraced and the second traced; each
    half has at least one pass of each part. Returns the passes of each
    part, keyed by whether traced."""
    parts = [wl.op_pass, wl.batch] if wl.op_share else [wl.batch]
    shares = [wl.op_share, 1 - wl.op_share] if wl.op_share else [1.0]
    passes = [{False: [], True: []} for _ in parts]
    used = [0.0] * len(parts)
    last = [0.0] * len(parts)
    halves = (False, True) if trace else (False,)
    start = perf_counter()
    for h, traced in enumerate(halves):
        deadline = start + seconds * (h + 1) / len(halves)
        wl.tr.enabled = wl.decompose = traced
        wl.tr.phase = "work"
        while True:
            missing = [k for k in range(len(parts)) if not passes[k][traced]]
            if missing:
                k = missing[0]
            else:
                k = min(range(len(parts)), key=lambda j: used[j] / shares[j])
                if perf_counter() + last[k] > deadline:
                    break
            before = perf_counter()
            passes[k][traced].append(parts[k]())
            last[k] = perf_counter() - before
            used[k] += last[k]
    return passes[0], passes[-1]


def probe(wl_name: str, seed: int, tracer, tally, gauge, tmp_dir: str) -> None:
    """One tiny traced pass of every other workload, so that each traced run
    reports every layer."""
    from perfbench.workloads import WORKLOADS

    tracer.enabled = tracer.probing = True
    for name, cls in WORKLOADS.items():
        if name == wl_name:
            continue
        sub_dir = os.path.join(tmp_dir, f"probe-{name}")
        os.makedirs(sub_dir)
        p = cls(seed, True, tracer, tally, gauge, sub_dir)
        p.setup()
        p.warmup()
        p.decompose = True
        if p.op_share:
            p.op_pass()
        p.batch()
    tracer.probing = False


def check_digests(name: str, seed: int, tiny: bool, digests: dict, tally) -> None:
    if seed != DEFAULT_SEED or tiny or not DIGESTS.is_file():
        return
    recorded = json.loads(DIGESTS.read_text()).get(name)
    if recorded is None:
        return
    with tally.attempt("recorded digests"):
        for key, value in recorded.items():
            tally.expect(digests.get(key) == value, "recorded digests", f"{key} differs")


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 tiny: bool = False, out=print) -> dict:
    from perfbench.harness import REFERENCE_S, Gauge, Tally, median, p90
    from perfbench.layers import SPEC, TRACE_SPEC, layer_metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = OUT_DIR / f"tmp-{name}-{os.getpid()}"
    tmp_dir.mkdir()
    try:
        tally = Tally()
        tracer = Tracer(trace)
        gauge = Gauge()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            tracer.phase = "setup"
            wl = WORKLOADS[name](seed, tiny, tracer, tally, gauge, str(tmp_dir))
            with gauge.measure() as took:
                wl.setup()
            setup_times.append(took.seconds)
        for inst_name, sizes in wl.sizes():
            out(f"instance {inst_name} {json.dumps(sizes, sort_keys=True)}")

        tracer.phase = "warmup"
        digests = wl.warmup()
        ops, batches = timed_window(wl, seconds, trace)
        digests.update(wl.final_digests())
        out(f"digests {json.dumps(digests, sort_keys=True)}")
        check_digests(name, seed, tiny, digests, tally)

        if trace:
            probe(name, seed, tracer, tally, gauge, str(tmp_dir))
            metrics, from_probe = layer_metrics(tracer)
            base = [t for p in ops[False] for t in p]
            traced = [t for p in ops[True] for t in p]
            metrics["trace.overhead_pct"] = (median(traced) / median(base) - 1) * 100
            metrics["trace.spans"] = len(tracer.spans)
            out(f"operations untraced={len(base)} traced={len(traced)}")
            out(f"from the probe (this workload makes no such call): {' '.join(from_probe)}")
            tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.jsonl",
                         {"workload": name, "seed": seed, "fields": "name start end parent op phase"})
            units = {row[0]: row[1] for row in SPEC + TRACE_SPEC}
        else:
            # Each operation's latency is its median over the passes; the
            # percentiles are taken across operations.
            op_times = [median(ts) for ts in zip(*ops[False])]
            metrics = {
                "setup_s": gauge.scale(import_s, gauge.samples[0], gauge.samples[0])
                + median(setup_times),
                "batch_s": median([sum(p) for p in batches[False]]),
                "ops_per_s": median([len(p) / sum(p) for p in ops[False]]),
                "op_ms_p50": median(op_times) * 1e3,
                "op_ms_p90": p90(op_times) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            out(f"samples operations={len(op_times)} passes={len(ops[False])} "
                f"batches={len(batches[False])} setups={len(setup_times)}")
            out(f"machine speed {gauge.speed():.3f} of reference over {len(gauge.samples)} probes; "
                f"times are scaled to reference speed (reference loop {REFERENCE_S * 1e3} ms)")
            units = E2E
        tally.report()
        out(f"fail_ratio {tally.failed}/{tally.attempted}")
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = import_library()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
