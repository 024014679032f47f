"""Per-layer metrics of a traced run, computed from its spans and counts.

Span metrics are medians over calls. Count metrics are medians over the
values recorded at a boundary, shares are sums over sums, and means are
averages of 0/1 outcomes. `<layer>.self_s` and `<layer>.calls` cover the
traced half of the measured window. A metric takes the workload's own
calls when it has any, and otherwise the calls of the probe: one tiny pass
of every other workload, so that each traced run reports every layer.
"""

from __future__ import annotations

import statistics

from .tracing import NAME, PHASE, END, START, layer_of, self_times

LAYERS = ("graph", "transforms", "pencil", "verify", "lp", "cli")
US, MS, S = 1e6, 1e3, 1.0

# (name, unit, better, how, source, scale)
SPEC = (
    ("graph.validate_ms", "ms", "lower", "span", "graph.validate", MS),
    ("graph.absorption_ms", "ms", "lower", "span", "graph.absorption", MS),
    ("graph.absorption_k", "count", "lower", "count", "graph.absorption_k", 1),
    ("graph.subfixed_us", "us", "lower", "span", "graph.subfixed", US),
    ("transforms.zp_ms", "ms", "lower", "span", "transforms.zp", MS),
    ("transforms.gadgets", "count", "lower", "count", "transforms.gadgets", 1),
    ("transforms.t1_ms", "ms", "lower", "span", "transforms.t1", MS),
    ("transforms.pipeline_s", "s", "lower", "span", "transforms.pipeline", S),
    ("transforms.split_s", "s", "lower", "count", "transforms.split_s", 1),
    ("transforms.split_share", "ratio", "lower", "share",
     ("transforms.split_s", "transforms.synth_op_s"), 1),
    ("transforms.splits", "count", "lower", "count", "transforms.splits", 1),
    ("transforms.target_edges", "count", "lower", "count", "transforms.target_edges", 1),
    ("transforms.lift_dim", "count", "lower", "count", "transforms.lift_dim", 1),
    ("transforms.lift_us", "us", "lower", "span", "transforms.lift", US),
    ("pencil.synth_ms", "ms", "lower", "span", "pencil.synth", MS),
    ("pencil.envelope_ms", "ms", "lower", "span", "pencil.envelope", MS),
    ("pencil.m", "count", "lower", "count", "pencil.m", 1),
    ("pencil.entries", "count", "lower", "count", "pencil.entries", 1),
    ("pencil.member_in_us", "us", "lower", "span", "pencil.member_in", US),
    ("pencil.member_out_us", "us", "lower", "span", "pencil.member_out", US),
    ("pencil.cone_member_us", "us", "lower", "span", "pencil.cone_member", US),
    ("pencil.subfixed_ext_us", "us", "lower", "span", "pencil.subfixed_ext", US),
    ("pencil.to_json_s", "s", "lower", "span", "pencil.to_json", S),
    ("pencil.from_json_s", "s", "lower", "span", "pencil.from_json", S),
    ("pencil.json_bytes", "B", "lower", "count", "pencil.json_bytes", 1),
    ("verify.run_s", "s", "lower", "span", "verify.run", S),
    ("verify.inside_share", "ratio", "higher", "share", ("verify.inside", "verify.samples"), 1),
    ("verify.agree_ratio", "ratio", "higher", "share", ("verify.agree", "verify.samples"), 1),
    ("lp.eval_F_ms", "ms", "lower", "span", "lp.eval_F", MS),
    ("lp.lp_max_us", "us", "lower", "span", "lp.lp_max", US),
    ("lp.lp_calls", "count", "lower", "count", "lp.lp_calls", 1),
    ("lp.feasible_ratio", "ratio", "higher", "mean", "lp.feasible", 1),
    ("lp.union_member_us", "us", "lower", "span", "lp.union_member", US),
    ("lp.falsifier_s", "s", "lower", "span", "lp.falsifier", S),
    ("cli.validate_s", "s", "lower", "span", "cli.validate", S),
    ("cli.transform_s", "s", "lower", "span", "cli.transform", S),
    ("cli.synthesize_s", "s", "lower", "span", "cli.synthesize", S),
    ("cli.member_s", "s", "lower", "span", "cli.member", S),
    ("cli.lift_s", "s", "lower", "span", "cli.lift", S),
    ("cli.verify_s", "s", "lower", "span", "cli.verify", S),
    ("cli.section_s", "s", "lower", "span", "cli.section", S),
    ("cli.pencil_file_bytes", "B", "lower", "count", "cli.pencil_file_bytes", 1),
) + tuple(
    row
    for layer in LAYERS
    for row in (
        (f"{layer}.self_s", "s", "lower", "self", layer, S),
        (f"{layer}.calls", "count", "lower", "calls", layer, 1),
    )
)

WINDOW = ("work", "decompose", "probe")


def _pick(items, phase_of):
    """The workload's own items, or the probe's when it has none."""
    main = [x for x in items if phase_of(x) != "probe"]
    if main:
        return main, False
    return items, True


def layer_metrics(tracer) -> tuple[dict, list[str]]:
    """Values of every SPEC metric, and the names taken from the probe."""
    spans = tracer.spans
    by_name: dict = {}
    by_layer: dict = {}
    for rec, own in zip(spans, self_times(spans)):
        by_name.setdefault(rec[NAME], []).append((rec, own))
        if rec[PHASE] in WINDOW:
            by_layer.setdefault(layer_of(rec[NAME]), []).append((rec, own))
    counts = tracer.counts

    values, from_probe = {}, []
    for name, _unit, _better, how, source, scale in SPEC:
        if how == "share":
            num, probe = _pick(counts.get(source[0], []), lambda x: x[0])
            den, _ = _pick(counts.get(source[1], []), lambda x: x[0])
            total = sum(v for _, v in den)
            value = sum(v for _, v in num) / total if total else 0.0
        elif how in ("count", "mean"):
            items, probe = _pick(counts.get(source, []), lambda x: x[0])
            data = [v for _, v in items]
            if not data:
                value = 0.0
            elif how == "mean":
                value = sum(data) / len(data)
            else:
                value = statistics.median(data)
        else:
            table = by_name if how == "span" else by_layer
            items, probe = _pick(table.get(source, []), lambda x: x[0][PHASE])
            if how == "span":
                data = [(rec[END] - rec[START]) * scale for rec, _ in items]
                value = statistics.median(data) if data else 0.0
            elif how == "self":
                value = sum(own for _, own in items)
            else:
                value = len(items)
        if probe:
            from_probe.append(name)
        values[name] = value
    return values, from_probe

# Computed by the runner, not from spans.
TRACE_SPEC = (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)
