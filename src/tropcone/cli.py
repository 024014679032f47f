"""Command-line interface.

Subcommands: validate, eval, subfixed, transform {zp|t1|t2|pipeline},
synthesize, member, lift, verify, section. Inputs and outputs are JSON
(CSV for section). Exit codes: 0 success, 1 domain error or a failed
`validate` or `verify` report, 2 malformed input or arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import DimensionMismatch, MalformedInput, TooManyDigits, TropconeError
from .graph import GameGraph, eval_operator, subfixed, subfixed_integers, validate_graph
from .pencil import MetzlerPencil, pencil_member, synthesize_cone
from .scalars import Trop, integers_over, rational_from_str, sized
from .transforms import first_transformation, pipeline, second_transformation, zwick_paterson
from .verify import verify_graph


# `section` refuses larger grids: a cell of the example takes about 4.4 us
# (Python 3.11, shared 2-core host), so a million take some 5 s, and larger
# graphs take longer per cell. The tick count is computed before any tick is
# built.
SECTION_MAX_CELLS = 1_000_000


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _load(path: str, form):
    """`form.from_json` of the file; MalformedInput if the file does not
    hold that form. A missing key reads `missing key 'tail'` and a value of
    the wrong JSON type `wrong JSON type: ...`, not Python's bare text."""

    def bad(what) -> MalformedInput:
        return MalformedInput(f"bad {form.__name__} JSON in {path}: {what}")

    try:
        return form.from_json(_load_json(path))
    except KeyError as exc:
        raise bad(f"missing key {exc}") from exc
    except TypeError as exc:
        raise bad(f"wrong JSON type: {exc}") from exc
    except ValueError as exc:
        raise bad(exc) from exc


def _parse_vector(text: str, n: int):
    try:
        return sized(tuple(Trop.from_str(part.strip()) for part in text.split(",")), n)
    except (ValueError, DimensionMismatch) as exc:
        raise MalformedInput(f"bad tropical vector {text!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True)
    except ValueError as exc:  # a fresh id past Python's int-to-string limit
        raise TooManyDigits("the result holds an integer with too many digits to print") from exc
    _emit(text + "\n", out)


def cmd_validate(args) -> int:
    report = validate_graph(_load(args.graph, GameGraph))
    _emit_json(report.to_json(), args.out)
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    g = _load(args.graph, GameGraph)
    _emit_json([Trop(v).to_str() for v in eval_operator(g, _parse_vector(args.point, g.n))], args.out)
    return 0


def cmd_subfixed(args) -> int:
    g = _load(args.graph, GameGraph)
    point = _parse_vector(args.point, g.n)
    _emit_json({"subfixed": subfixed(g, point)}, args.out)
    return 0


def cmd_transform(args) -> int:
    g = _load(args.graph, GameGraph)
    if args.which == "zp":
        out, witness = zwick_paterson(g), None
    elif args.which == "t1":
        out, witness = first_transformation(g)
    elif args.which == "t2":
        if args.edge is None:
            raise MalformedInput("transform t2 requires --edge")
        out, witness = second_transformation(g, args.edge)
    else:
        out, witness = pipeline(g)
    _emit_json(
        {
            "graph": out.to_json(),
            "witness": None if witness is None else witness.descriptor(),
        },
        args.out,
    )
    return 0


def cmd_synthesize(args) -> int:
    g = _load(args.graph, GameGraph)
    target, _ = pipeline(g)
    pencil = synthesize_cone(target)
    obj = pencil.to_json()
    obj["visible"] = g.n
    obj["witness"] = {"kind": "pipeline"}
    _emit_json(obj, args.out)
    return 0


def cmd_member(args) -> int:
    pencil = _load(args.pencil, MetzlerPencil)
    point = _parse_vector(args.point, pencil.n)
    _emit_json({"member": pencil_member(pencil, point)}, args.out)
    return 0


def cmd_lift(args) -> int:
    g = _load(args.graph, GameGraph)
    _, witness = pipeline(g)
    _emit_json([Trop(v).to_str() for v in witness.lift(_parse_vector(args.point, g.n))], args.out)
    return 0


def cmd_verify(args) -> int:
    if args.samples < 0 or args.box < 0 or args.denom < 1:
        raise MalformedInput("need --samples >= 0, --box >= 0 and --denom >= 1")
    g = _load(args.graph, GameGraph)
    report = verify_graph(
        g,
        samples=args.samples,
        seed=args.seed,
        box=args.box,
        denom=args.denom,
        instance=args.graph,
    )
    _emit_json(report.to_json(), args.out)
    if not (report.subfixed_count and report.complement_count):
        print("warning: no subfixed or no complement sample, so one direction went unchecked", file=sys.stderr)
    return 0 if report.ok else 1


def section_ticks(lo: Fraction, hi: Fraction, step: Fraction, axes: int) -> list:
    """The ticks lo, lo + step, ... up to hi of a grid with `axes` free axes,
    checked against SECTION_MAX_CELLS before any tick is built."""
    if step <= 0 or hi < lo:
        raise MalformedInput("need --step > 0 and --hi >= --lo")
    count = (hi - lo) // step + 1
    if count ** axes > SECTION_MAX_CELLS:
        raise MalformedInput(
            f"section grid of {count}^{axes} cells exceeds {SECTION_MAX_CELLS}"
        )
    return [lo + t * step for t in range(count)] if axes else []


def cmd_section(args) -> int:
    g = _load(args.graph, GameGraph)
    n = g.n
    fixed = {}
    for item in args.fix or []:
        try:
            coord, value = item.split("=", 1)
            k, value = int(coord) - 1, Trop.from_str(value.strip())
        except ValueError as exc:
            raise MalformedInput(f"bad --fix value {item!r}: {exc}") from exc
        if not 0 <= k < n or k in fixed:
            raise MalformedInput(f"--fix {item!r}: coordinate not in 1..{n} or fixed twice")
        fixed[k] = value
    free = [k for k in range(n) if k not in fixed]
    if len(free) > 2:
        raise MalformedInput("section needs all but at most two coordinates fixed")
    try:
        lo, hi, step = (rational_from_str(v) for v in (args.lo, args.hi, args.step))
    except ValueError as exc:
        raise MalformedInput(f"bad --lo/--hi/--step: {exc}") from exc
    ticks = section_ticks(lo, hi, step, len(free))

    # One scaling for the grid: the fixed values and the ticks as integers
    # over D = lcm(C, their denominators), C = g.operator_plan[0], so each
    # cell runs the integer core of `subfixed` on one point list it rewrites.
    d, scaled = integers_over([*fixed.values(), *ticks], g.operator_plan[0])
    point = [0] * n
    for k, v in zip(fixed, scaled):
        point[k] = v
    ticks = scaled[len(fixed):]
    col_axis = free[0] if free else None
    row_axis = free[1] if len(free) > 1 else None
    rows = []
    for y in reversed(ticks) if row_axis is not None else [None]:
        if row_axis is not None:
            point[row_axis] = y
        cells = []
        for x in ticks if col_axis is not None else [None]:
            if col_axis is not None:
                point[col_axis] = x
            cells.append("1" if subfixed_integers(g, d, point) else "0")
        rows.append(",".join(cells))
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tropcone")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("validate", help="validate a game graph")
    p.add_argument("graph")
    common(p)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("eval", help="evaluate the encoded operator")
    p.add_argument("graph")
    p.add_argument("--point", required=True, help="comma-separated rationals or -inf")
    common(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("subfixed", help="test x <= F(x)")
    p.add_argument("graph")
    p.add_argument("--point", required=True, help="comma-separated rationals or -inf")
    common(p)
    p.set_defaults(run=cmd_subfixed)

    p = sub.add_parser("transform", help="apply a graph transformation")
    p.add_argument("which", choices=["zp", "t1", "t2", "pipeline"])
    p.add_argument("graph")
    p.add_argument("--edge", type=int, help="edge id for t2")
    common(p)
    p.set_defaults(run=cmd_transform)

    p = sub.add_parser("synthesize", help="pipeline + cone pencil synthesis")
    p.add_argument("graph")
    common(p)
    p.set_defaults(run=cmd_synthesize)

    p = sub.add_parser("member", help="pencil membership of a tropical point")
    p.add_argument("pencil")
    p.add_argument("--point", required=True, help="comma-separated rationals or -inf")
    common(p)
    p.set_defaults(run=cmd_member)

    p = sub.add_parser("lift", help="lift a point through the pipeline witness")
    p.add_argument("graph")
    p.add_argument("--point", required=True, help="comma-separated rationals or -inf")
    common(p)
    p.set_defaults(run=cmd_lift)

    p = sub.add_parser("verify", help="sampled subfixed/pencil equivalence")
    p.add_argument("graph")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=int, default=10)
    p.add_argument("--denom", type=int, default=64)
    common(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("section", help="CSV membership grid over a 2d slice")
    p.add_argument("graph")
    p.add_argument("--fix", action="append", help="coordinate=value, 1-based, repeatable; value a rational or -inf")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--step", required=True)
    common(p)
    p.set_defaults(run=cmd_section)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call of a process and
    reused: parsing reads a parser and changes nothing in it, and it holds
    no input."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TropconeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
