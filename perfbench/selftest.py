"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that every metric
declared in BENCHMARK.json prints with its unit, traced and untraced, on
every workload; that a corrupted envelope and a flipped expected answer are
counted as failures; that one seed gives the same digests twice; and that
the command refuses to run in a directory without the library's sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the entry point, imported as a module)

SEED = 3
problems: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        problems.append(what)


def tiny(name: str, trace: bool, lines=None) -> dict:
    out = lines.append if lines is not None else (lambda _line: None)
    return run.run_workload(name, SEED, 0.2, trace, 0.0, tiny=True, out=out)


def declared_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            result = tiny(w["name"], trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{w['name']} trace={int(trace)}: {key} metrics print with their units")
            check(result["failed"] == 0 and result["attempted"] > 0,
                  f"{w['name']} trace={int(trace)}: no failure in {result['attempted']} operations")


def corruption_counts() -> None:
    from perfbench.harness import Gauge, Tally
    from perfbench.tracing import Tracer
    from perfbench.workloads import QueryStream
    from tropcone import MetzlerPencil
    from tropcone.scalars import SignedTrop

    tmp = run.OUT_DIR / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)

    def fresh():
        wl = QueryStream(SEED, True, Tracer(False), Tally(), Gauge(), str(tmp))
        wl.setup()
        wl.warmup()
        return wl

    wl = fresh()
    env = wl.graphs[0][5]
    # One extra row reading -inf >= 0 empties the spectrahedron.
    entries = dict(env.entries)
    entries[(env.m, env.m)] = {0: SignedTrop.neg(0)}
    wl.verify_override = MetzlerPencil(env.m + 1, env.n, entries)
    wl.verify_samples = 32
    wl.batch()
    check(wl.tally.failed > 0, f"corrupted envelope counted: {wl.tally.failed}/{wl.tally.attempted} failed")

    wl = fresh()
    wl.expected[0] = not wl.expected[0]
    wl.op_pass()
    check(wl.tally.failed == 1, f"flipped expected bit counted: {wl.tally.failed}/{wl.tally.attempted} failed")


def same_digests() -> None:
    for name in ("synth-ladder", "query-stream", "lp-frontend", "cli-files"):
        runs = []
        for _ in range(2):
            lines = []
            tiny(name, False, lines)
            runs.append([line for line in lines if line.startswith("digests ")])
        check(runs[0] == runs[1] and len(runs[0]) == 1, f"{name}: the same seed gives the same digests")


def command_contract() -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "lp-frontend", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = {}
    check(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
          "the command prints the result object as its last line")

    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the library's sources the command fails and prints no result")


def main() -> int:
    run.import_library()
    declared_metrics()
    corruption_counts()
    same_digests()
    command_contract()
    shutil.rmtree(run.OUT_DIR / "selftest", ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
