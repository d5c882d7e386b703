"""Per-layer metrics of the traced run.

The traced run executes the workload's own operations with spans on, then
the probe operations below: each layer's public functions called from
outside on the workload's inputs, so that every layer metric has samples
on every workload.  The metric a layer number should move, and on which
workload, is listed in ``bench/README.md``.
"""

from __future__ import annotations

import json
import statistics

from . import spans as sp

# name -> unit, in report order
METRICS = {
    "cli.self_s": "s",
    "speclang.parse_s": "s",
    "speclang.kernel_s": "s",
    "speclang.prefix_free_check_s": "s",
    "speclang.compile_s": "s",
    "speclang.kernel_states": "count",
    "speclang.detector_states": "count",
    "families.machine_to_detector_s": "s",
    "families.closure_s": "s",
    "families.universal_detector_s": "s",
    "families.enum_feed_s": "s",
    "families.unknown_ratio": "ratio",
    "detector.canonical_form_s": "s",
    "detector.explicit_set_s": "s",
    "detector.words_s": "s",
    "detector.step_tokens_per_s": "1/s",
    "monitor.feed_tokens_per_s": "1/s",
    "monitor.lasso_s": "s",
    "monitor.transfer_s": "s",
    "monitor.lasso_len": "count",
    "bisim.bisimilar_s": "s",
    "bisim.states": "count",
    "sequences.lasso_slice_s": "s",
    "sequences.derivative_s": "s",
    "sequences.prefix_free_s": "s",
    "trace.overhead_s": "s",
}

# span name behind each per-call timing metric
SPAN_TIMES = {
    "speclang.parse_s": "speclang.parse",
    "speclang.kernel_s": "speclang.prefix_free_kernel",
    "speclang.prefix_free_check_s": "speclang.pattern_is_prefix_free",
    "speclang.compile_s": "speclang.compile",
    "families.machine_to_detector_s": "families.machine_to_detector",
    "families.closure_s": "families.check_universal_family",
    "families.universal_detector_s": "families.universal_detector_for",
    "detector.canonical_form_s": "detector.canonical_form",
    "detector.explicit_set_s": "detector.detector_from_explicit_set",
    "detector.words_s": "detector.minimal_violation_words",
    "monitor.lasso_s": "monitor.monitor_lasso",
    "monitor.transfer_s": "monitor.transfer_to_universal",
    "bisim.bisimilar_s": "bisim.bisimilar",
}

SPAN_SIZES = {
    "speclang.kernel_states": "speclang.prefix_free_kernel",
    "speclang.detector_states": "speclang.compile",
    "monitor.lasso_len": "monitor.monitor_lasso",
    "bisim.states": "bisim.bisimilar",
}

# library operation whose wall time is the metric
OP_TIMES = {
    "families.enum_feed_s": "enum_feed",
    "sequences.lasso_slice_s": "slice_loop",
    "sequences.derivative_s": "derivative",
    "sequences.prefix_free_s": "prefix_free",
}

OP_RATES = {
    "detector.step_tokens_per_s": "step_loop",
    "monitor.feed_tokens_per_s": "feed_loop",
}

# loops over tokens run with the wrappers removed: a span per token would
# measure the tracer
UNTRACED_CALLS = ("step_loop", "feed_loop", "slice_loop")


def probe_ops(wl, set_symbols, start_id: int) -> list[dict]:
    """Operations that call each layer's public functions on this
    workload's inputs."""
    ops = []

    def add(op):
        op["id"] = start_id + len(ops)
        op.setdefault("expect", None)
        ops.append(op)

    for path in wl.specs[:4]:
        add({"kind": "cli", "argv": ["check", path], "stdin": None})
        add({"kind": "cli", "argv": ["words", path, "--depth", "3"], "stdin": None})
        add({"kind": "cli", "argv": ["equiv", path, path], "stdin": None})
        add({"kind": "lib", "call": "machine", "spec": path})
    for path, tokens in wl.token_files[:4]:
        add({"kind": "lib", "call": "step_loop", "spec": path, "tokens": tokens})
        add({"kind": "lib", "call": "feed_loop", "spec": path, "tokens": tokens})
        add({"kind": "cli", "argv": ["monitor", path, "--trace", tokens], "stdin": None})
    for path, literal in wl.lassos[:4]:
        add({"kind": "cli", "argv": ["monitor", path, "--lasso", literal], "stdin": None})
        add({"kind": "lib", "call": "slice_loop", "spec": path, "lasso": literal})
        add({"kind": "lib", "call": "transfer", "spec": path, "lasso": literal})
    calls = [("explicit", {}), ("canonical", {}), ("bisimilar", {"target": "s0"}),
             ("words", {"depth": 4}), ("closure", {"drop": None}), ("universal", {}),
             ("prefix_free", {})]
    calls += [("derivative", {"symbol": n}) for n in set_symbols]
    for call, args in calls:
        add({"kind": "lib", "call": call, "set": 0, **args})
    with open(wl.set_file, encoding="utf-8") as handle:
        enum = json.load(handle)["sets"][0]["enum"]
    for word in enum[:3]:
        add({"kind": "lib", "call": "enum_feed", "set": 0, "word": word, "budget": 8})
        add({"kind": "lib", "call": "set_feed", "set": 0, "word": word})
    return ops


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def compute(spans, records, ops_by_id, overhead_s) -> tuple[dict, dict]:
    """Every metric in METRICS from the spans and operation records of one
    traced run, with its sample count.  A metric without samples (its
    function is no longer called) reads 0."""
    durations, sizes = {}, {}
    for s in spans:
        durations.setdefault(s[sp.NAME], []).append(s[sp.END] - s[sp.START])
        if s[sp.SIZE] is not None:
            sizes.setdefault(s[sp.NAME], []).append(s[sp.SIZE])
    own = sp.self_times(spans)
    cli_self = [own[i] for i, s in enumerate(spans) if s[sp.NAME] == "cli.main"]
    out, counts = {"cli.self_s": _median(cli_self)}, {"cli.self_s": len(cli_self)}
    for metric, name in SPAN_TIMES.items():
        values = durations.get(name, [])
        out[metric], counts[metric] = _median(values), len(values)
    for metric, name in SPAN_SIZES.items():
        values = sizes.get(name, [])
        out[metric], counts[metric] = _median(values), len(values)
    by_call = {}
    for r in records:
        op = ops_by_id[r["id"]]
        if op["kind"] == "lib" and r["wall"] is not None:
            by_call.setdefault(op["call"], []).append(r)
    for metric, call in OP_TIMES.items():
        values = [r["wall"] for r in by_call.get(call, [])]
        out[metric], counts[metric] = _median(values), len(values)
    for metric, call in OP_RATES.items():
        runs = by_call.get(call, [])
        wall = sum(r["wall"] for r in runs)
        out[metric] = sum(r["value"] for r in runs) / wall if wall else 0.0
        counts[metric] = len(runs)
    feeds = by_call.get("enum_feed", [])
    steps = sum(r["info"]["steps"] for r in feeds)
    out["families.unknown_ratio"] = sum(r["info"]["unknown"] for r in feeds) / steps \
        if steps else 0.0
    counts["families.unknown_ratio"] = steps
    out["trace.overhead_s"] = overhead_s
    return out, counts
