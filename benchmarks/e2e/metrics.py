"""Metric definitions: names, units, directions, and how each is computed.

``END_TO_END`` and ``PER_LAYER`` are the single list of names; the smoke test
checks that ``BENCHMARK.json`` carries exactly these.
"""

from __future__ import annotations

import itertools
import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from layers import LAYERS, Fold

OpLog = List[Tuple[str, float, float, int]]  # (latency class, seconds, cpu seconds, op index)
Metric = Dict[str, Any]                 # {"value": float, "unit": str}
Row = Dict[str, Any]                    # one line of the kind / class share tables

# name, unit, better
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Timing metrics that are a per-op median of one span's self time.
_SELF_MS = (
    "data.relation_build", "data.dedup", "data.delta", "data.to_python",
    "plan.create", "core.optimizer",
    "exec.semijoin", "exec.partition", "exec.light", "exec.heavy", "exec.merge",
    "matmul.build", "matmul.multiply", "matmul.extract",
    "setops.ssj_finish",
    "shard.route", "shard.execute", "shard.apply_delta",
    "serve.register", "serve.append", "serve.delete", "serve.session_open_close",
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"{name}.ms", "ms", "lower") for name in _SELF_MS),
    ("data.dedup.rows_in", "count", "lower"),
    ("data.dedup.rows_out", "count", "lower"),
    ("data.dedup.keep_ratio", "ratio", "higher"),
    ("core.optimizer.mmjoin_share", "ratio", "higher"),
    ("core.optimizer.regret", "ratio", "lower"),
    ("plan.cost_qerror", "ratio", "lower"),
    ("plan.output_qerror", "ratio", "lower"),
    ("exec.light.pairs", "count", "lower"),
    ("exec.heavy.pairs", "count", "lower"),
    ("exec.merge.useful_ratio", "ratio", "higher"),
    ("matmul.multiply.flops", "flop", "lower"),
    ("matmul.multiply.gflops_s", "GFLOP/s", "higher"),
    ("matmul.extract.cells_per_pair", "ratio", "lower"),
    ("matmul.extract.peak_mb", "MB", "lower"),
    ("shard.subplans_run_per_read", "count", "lower"),
    ("shard.result_cache.hit_ratio", "ratio", "higher"),
    ("shard.patched_read_ratio", "ratio", "higher"),
    ("shard.skew", "ratio", "lower"),
    ("serve.memo_hit.us", "us", "lower"),
    ("serve.reexec.ms", "ms", "lower"),
    ("serve.overhead.us", "us", "lower"),
    ("serve.memo.hit_ratio", "ratio", "higher"),
    ("serve.memo.evictions", "count", "lower"),
    ("serve.artifacts.hit_ratio", "ratio", "higher"),
    ("serve.artifacts.evictions", "count", "lower"),
    ("obs.telemetry.us", "us", "lower"),
    ("obs.telemetry_overhead_pct", "%", "lower"),
    *((f"budget.{layer}.ms_per_op", "ms", "lower") for layer in LAYERS),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unresolved_targets", "count", "lower"),
    ("trace.coverage_pct", "%", "higher"),
)

GUARD_MARGIN = 3.0  # percentage points a percentile must keep from a class boundary


def _metric(value: float, unit: str) -> Metric:
    return {"value": float(value), "unit": unit}


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


# --------------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------------- #
def end_to_end(log: OpLog, setup_s: float, peak_rss_mb: float) -> Dict[str, Metric]:
    latency = np.asarray([seconds for _, seconds, _, _ in log], dtype=np.float64)
    cpu = float(sum(c for _, _, c, _ in log))
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": _ratio(latency.size, latency.sum()),
        "latency_p50_ms": float(np.percentile(latency, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(latency, 95)) * 1e3,
        "cpu_ms_per_op": _ratio(cpu, latency.size) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}


def class_shares(log: OpLog, kinds: Dict[str, str]) -> Tuple[List[Row], List[Row]]:
    """Share of ops and median latency per op kind and per latency class.

    ``kinds`` maps what the workload observed (memo, append, patched, ...)
    to its latency class; both lists come cheapest first.
    """
    def rows(label: str, group) -> List[Dict[str, Any]]:
        seconds: Dict[str, List[float]] = {}
        for kind, s, _, _ in log:
            seconds.setdefault(group(kind), []).append(s)
        out = [{label: name, "ops": len(values), "share_pct": 100.0 * len(values) / len(log),
                "median_ms": _median(values) * 1e3} for name, values in seconds.items()]
        return sorted(out, key=lambda row: row["median_ms"])

    return rows("kind", lambda kind: kind), rows("class", lambda kind: kinds[kind])


def percentile_guard(shares: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Which class p50 and p95 sit in, and whether either is near a boundary.

    Classes differ by orders of magnitude (a memo hit against a
    re-execution), so a percentile within ``GUARD_MARGIN`` points of a class
    boundary could flip class from run to run and mean nothing.
    """
    out: Dict[str, Any] = {"violations": []}
    uppers = list(itertools.accumulate(row["share_pct"] for row in shares))
    for label, rank in (("p50", 50.0), ("p95", 95.0)):
        inside = next((i for i, upper in enumerate(uppers) if rank < upper), len(shares) - 1)
        out[label] = shares[inside]["class"]
        for boundary in uppers[:-1]:
            if abs(rank - boundary) < GUARD_MARGIN:
                out["violations"].append(
                    f"{label} rank {rank:g} is {abs(rank - boundary):.1f} points from the "
                    f"class boundary at {boundary:.1f}%")
    return out


# --------------------------------------------------------------------------- #
# Per layer
# --------------------------------------------------------------------------- #
def per_layer(
    fold: Fold,
    traced: OpLog,
    untraced: OpLog,
    stats: Dict[str, float],
    unresolved: int,
    extras: Dict[str, float],
) -> Tuple[Dict[str, Metric], Dict[str, Dict[str, float]]]:
    """Every per-layer metric plus the layer budget of the traced phase.

    Times are medians of a span's summed *self* time per op, over the ops in
    which the span ran; counts are means over the same ops.  A layer that
    never ran reports 0.
    """
    v: Dict[str, float] = {}
    for name in _SELF_MS:
        v[f"{name}.ms"] = _median(fold.self_s[name].values()) * 1e3

    def per_op(name: str, key: str) -> float:
        return _ratio(fold.total(name, key), len(fold.self_s[name]))

    v["data.dedup.rows_in"] = per_op("data.dedup", "rows_in")
    v["data.dedup.rows_out"] = per_op("data.dedup", "rows_out")
    v["data.dedup.keep_ratio"] = _ratio(fold.total("data.dedup", "rows_out"),
                                        fold.total("data.dedup", "rows_in"))
    explains = fold.counts["plan.explain"]
    v["core.optimizer.mmjoin_share"] = _ratio(fold.total("plan.explain", "mmjoin"), len(explains))
    v["core.optimizer.regret"] = extras.get("regret", 0.0)
    v["plan.cost_qerror"] = _median(_qerror(c["cost_est"], c["cost_act"]) for c in explains
                                    if c["cost_est"] > 0 and c["cost_act"] > 0)
    v["plan.output_qerror"] = _median(_qerror(c["out_est"], c["out_act"]) for c in explains
                                      if c["out_est"] > 0 and c["out_act"] > 0)
    v["exec.light.pairs"] = per_op("exec.light", "pairs")
    v["exec.heavy.pairs"] = per_op("exec.heavy", "pairs")
    v["exec.merge.useful_ratio"] = _ratio(fold.total("exec.merge", "out"),
                                          fold.total("exec.merge", "in"))
    multiply_s = sum(fold.self_s["matmul.multiply"].values())
    v["matmul.multiply.flops"] = per_op("matmul.multiply", "flops")
    v["matmul.multiply.gflops_s"] = _ratio(fold.total("matmul.multiply", "flops"), multiply_s) / 1e9
    v["matmul.extract.cells_per_pair"] = _ratio(fold.total("matmul.extract", "cells"),
                                                fold.total("matmul.extract", "pairs"))
    v["matmul.extract.peak_mb"] = max(
        (c["peak_bytes"] for c in fold.counts["matmul.extract"]), default=0.0) / 1e6

    sharded_reads = fold.calls["shard.execute"]
    v["shard.subplans_run_per_read"] = _ratio(fold.total("plan.create", "sharded"), sharded_reads)
    v["shard.result_cache.hit_ratio"] = _ratio(fold.total("shard.execute", "results_cached"),
                                               fold.total("shard.execute", "shards_executed"))
    v["shard.patched_read_ratio"] = _ratio(stats.get("post_append_patched", 0.0),
                                           stats.get("post_append_reads", 0.0))
    v["shard.skew"] = stats.get("shard.skew", 0.0)

    # Latency by class comes from the untraced phase of the same run.
    v["serve.memo_hit.us"] = _median(s for cls, s, _, _ in untraced if cls == "memo") * 1e6
    v["serve.reexec.ms"] = _median(s for cls, s, _, _ in untraced
                                   if cls in ("reexec", "patched")) * 1e3
    overhead = []
    for cls, _, _, op in traced:
        if cls in ("reexec", "patched"):
            inside = (fold.incl_s["plan.execute"].get(op, 0.0)
                      + fold.incl_s["shard.execute"].get(op, 0.0))
            overhead.append(fold.op_s[op] - inside)
    v["serve.overhead.us"] = _median(overhead) * 1e6
    for cache in ("memo", "artifacts"):
        hits, misses = stats.get(f"{cache}.hits", 0.0), stats.get(f"{cache}.misses", 0.0)
        v[f"serve.{cache}.hit_ratio"] = _ratio(hits, hits + misses)
        v[f"serve.{cache}.evictions"] = stats.get(f"{cache}.evictions", 0.0)
    v["obs.telemetry.us"] = _median(fold.self_s["obs.telemetry"].values()) * 1e6
    v["obs.telemetry_overhead_pct"] = extras.get("telemetry_overhead_pct", 0.0)

    ops = len(fold.op_s)
    layer_s = fold.layer_self_s()
    for layer in LAYERS:
        v[f"budget.{layer}.ms_per_op"] = _ratio(layer_s[layer], ops) * 1e3
    op_total = sum(fold.op_s.values())
    v["trace.overhead_pct"] = _trace_overhead_pct(traced, untraced)
    v["trace.unresolved_targets"] = float(unresolved)
    v["trace.coverage_pct"] = 100.0 * _ratio(sum(layer_s.values()), op_total)

    budget = {
        layer: {"ms_per_op": v[f"budget.{layer}.ms_per_op"],
                "share_pct": 100.0 * _ratio(layer_s[layer], op_total)}
        for layer in LAYERS
    }
    return {name: _metric(v[name], unit) for name, unit, _ in PER_LAYER}, budget


def _qerror(estimate: float, actual: float) -> float:
    return max(estimate / actual, actual / estimate)


def _trace_overhead_pct(traced: OpLog, untraced: OpLog) -> float:
    """Traced against untraced latency, class by class, weighted by traced shares.

    Comparing whole-phase means would mix in a different class mix; medians
    per class weighted by one set of shares compare like with like.
    """
    plain: Dict[str, List[float]] = {}
    for cls, seconds, _, _ in untraced:
        plain.setdefault(cls, []).append(seconds)
    with_trace: Dict[str, List[float]] = {}
    for cls, seconds, _, _ in traced:
        with_trace.setdefault(cls, []).append(seconds)
    base = extra = 0.0
    for cls, seconds in with_trace.items():
        if cls in plain:
            weight = len(seconds)
            base += weight * _median(plain[cls])
            extra += weight * (_median(seconds) - _median(plain[cls]))
    return 100.0 * _ratio(extra, base)


def memo_class_budget(fold: Fold, traced: OpLog) -> Optional[Dict[str, float]]:
    """Layer shares of the memo-class ops alone (who owns a memo hit?)."""
    ops = [op for cls, _, _, op in traced if cls == "memo"]
    if not ops:
        return None
    layer_s = fold.layer_self_s(ops)
    total = sum(fold.op_s[op] for op in ops)
    return {layer: 100.0 * _ratio(seconds, total) for layer, seconds in layer_s.items()}
