"""Outside-in tracing: timing wrappers around the program's public callables.

The program's source is not touched.  :data:`TARGETS` names, per span, the
``module:qualname`` callables to wrap; :class:`Tracer` installs the wrappers
at run time and removes them again.  Each span records name, start, end,
parent (a thread-local stack) and the op index as trace id, and stays in
memory until the run ends.  A layer's *self* time is its span's duration
minus its child spans' durations, so the layers of one op add up to the op.

A target that no longer resolves (a later refactor renamed it) is skipped
and counted in ``trace.unresolved_targets``; the run stays green, so a change
that may not edit this directory is never blocked by it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Counts = Optional[Dict[str, float]]
Probe = Callable[[tuple, dict, Any], Counts]
Target = Tuple[Tuple[str, ...], Optional[Probe]]  # (module:qualname paths, probe)


# --------------------------------------------------------------------------- #
# Probes: counts read at the same boundary the time is taken
# --------------------------------------------------------------------------- #
def _probe_dedup(args, kwargs, result) -> Counts:
    return {"rows_in": len(args[0]), "rows_out": len(result)}


def _probe_create_plan(args, kwargs, result) -> Counts:
    shard = kwargs.get("shard", args[2] if len(args) > 2 else None)
    return {"sharded": 0 if shard is None else 1}


def _probe_explain(args, kwargs, result) -> Counts:
    return {
        "mmjoin": 1 if result.strategy == "mmjoin" else 0,
        "cost_est": float(result.estimated_total_cost),
        "cost_act": float(result.total_seconds),
        "out_est": float(result.estimated_output),
        "out_act": float(result.output_size),
    }


def _state_pairs(state, attr_block: str, attr_counted: str) -> int:
    counted = getattr(state, attr_counted, None)
    if counted is not None and len(counted):
        return len(counted)
    block = getattr(state, attr_block, None)
    return len(block) if block is not None else 0


def _probe_light(args, kwargs, result) -> Counts:
    return {"pairs": _state_pairs(args[1], "light_block", "light_counted")}


def _probe_heavy(args, kwargs, result) -> Counts:
    return {"pairs": _state_pairs(args[1], "heavy_block", "heavy_counted")}


def _probe_merge(args, kwargs, result) -> Counts:
    state = args[1]
    return {
        "out": int(state.output_size),
        "in": _state_pairs(state, "light_block", "light_counted")
        + _state_pairs(state, "heavy_block", "heavy_counted"),
    }


def _probe_multiply(args, kwargs, result) -> Counts:
    m1, m2 = args[1], args[2]
    u, v = m1.shape
    return {"flops": 2.0 * u * v * m2.shape[1]}


def _probe_extract(args, kwargs, result) -> Counts:
    product = args[1]
    stats = kwargs.get("stats") or {}
    return {
        "cells": float(product.shape[0]) * float(product.shape[1]),
        "pairs": len(result),
        "peak_bytes": float(stats.get("memory_extract_peak_bytes", 0)),
    }


def _probe_sharded(args, kwargs, result) -> Counts:
    stats = result.explanation.session_stats
    return {
        "shards_executed": float(stats.get("shards_executed", 0)),
        "results_cached": float(stats.get("shard_results_cached", 0)),
        "patched": 1 if stats.get("merged_result_patched") else 0,
    }


# --------------------------------------------------------------------------- #
# span name -> (targets, probe).  The layer is the name's first component.
# --------------------------------------------------------------------------- #
TARGETS: Dict[str, Target] = {
    "data.relation_build": (("repro.data.relation:Relation.__init__",), None),
    "data.dedup": (("repro.data.pairblock:PairBlock.dedup",
                    "repro.data.pairblock:CountedPairBlock.dedup"), _probe_dedup),
    "data.delta": (("repro.data.pairblock:PairBlock.union",
                    "repro.data.pairblock:PairBlock.difference"), None),
    "data.to_python": (("repro.data.pairblock:PairBlock.to_set",
                        "repro.data.pairblock:CountedPairBlock.to_dict",
                        "repro.data.pairblock:CountedPairBlock.to_set"), None),
    "plan.create": (("repro.plan.planner:Planner.create_plan",), _probe_create_plan),
    "plan.execute": (("repro.plan.planner:Planner.execute",), None),
    "plan.pipeline": (("repro.plan.planner:PhysicalPlan.execute",), None),
    "plan.explain": (("repro.plan.planner:PhysicalPlan.explain",), _probe_explain),
    "core.optimizer": (("repro.core.optimizer:CostBasedOptimizer.choose_two_path",), None),
    "exec.semijoin": (("repro.exec.operators:SemijoinReduce.__call__",), None),
    "exec.partition": (("repro.exec.operators:LightHeavyPartition.__call__",), None),
    "exec.light": (("repro.exec.operators:CombinatorialLight.__call__",), _probe_light),
    "exec.heavy": (("repro.exec.operators:MatMulHeavy.__call__",), _probe_heavy),
    "exec.merge": (("repro.exec.operators:DedupMerge.__call__",), _probe_merge),
    "matmul.build": (("repro.matmul.registry:MatMulBackend.build_operands",
                      "repro.matmul.registry:SparseBackend.build_operands"), None),
    "matmul.multiply": (("repro.matmul.registry:MatMulBackend.multiply",
                         "repro.matmul.registry:SparseBackend.multiply"), _probe_multiply),
    "matmul.extract": (("repro.matmul.registry:MatMulBackend.extract_pairs",
                        "repro.matmul.registry:MatMulBackend.extract_counts",
                        "repro.matmul.registry:SparseBackend.extract_pairs",
                        "repro.matmul.registry:SparseBackend.extract_counts"), _probe_extract),
    "setops.ssj_finish": (("repro.setops.ssj:ssj_from_counted",), None),
    "shard.route": (("repro.shard.router:ShardRouter.route",), None),
    # Patched where it is defined and where the session imported it by name.
    "shard.execute": (("repro.shard.executor:execute_sharded",
                       "repro.serve.session:execute_sharded"), _probe_sharded),
    "shard.apply_delta": (("repro.shard.sharded:ShardedRelation.apply_delta",), None),
    "serve.two_path": (("repro.serve.session:QuerySession.two_path",), None),
    "serve.similarity": (("repro.serve.session:QuerySession.similarity",), None),
    "serve.register": (("repro.serve.session:QuerySession.register",
                        "repro.serve.session:QuerySession.register_family"), None),
    "serve.append": (("repro.serve.session:QuerySession.append",), None),
    "serve.delete": (("repro.serve.session:QuerySession.delete",), None),
    "serve.session_open_close": (("repro.serve.session:QuerySession.__init__",
                                  "repro.serve.session:QuerySession.close"), None),
    "obs.telemetry": (("repro.obs.telemetry:Telemetry.start",
                       "repro.obs.telemetry:Telemetry.observe_query",
                       "repro.obs.telemetry:Telemetry.observe_write"), None),
}

LAYERS = ("data", "matmul", "plan", "core", "exec", "setops", "shard", "serve", "obs")

# Span tuple layout.
SID, PARENT, TRACE, NAME, START, END, COUNTS = range(7)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` of a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    function = getattr(owner, parts[-1])
    if not inspect.isfunction(function):
        raise TypeError(f"{target} is not a plain function")
    return owner, parts[-1], function


class Tracer:
    """Installs the wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.unresolved: List[str] = []
        self.active = False
        self.trace_id = -1
        self._local = threading.local()
        self._ids = itertools.count()  # next() is atomic, spans may come from threads
        self._installed: List[Tuple[Any, str, bool, Any]] = []

    # -- installation ----------------------------------------------------
    def install(self, targets: Optional[Dict[str, Target]] = None) -> None:
        for name, (paths, probe) in (targets or TARGETS).items():
            for path in paths:
                try:
                    owner, attr, function = _resolve(path)
                except (ImportError, AttributeError, TypeError):
                    self.unresolved.append(path)
                    continue
                own = attr in vars(owner)
                self._installed.append((owner, attr, own, vars(owner).get(attr)))
                setattr(owner, attr, self._wrap(name, function, probe))

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, function: Callable, probe: Optional[Probe]) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append((sid, parent, tracer.trace_id, name, start, clock(), None))
                raise
            end = clock()
            stack.pop()
            counts = None
            if probe is not None:
                try:
                    counts = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # an internal moved: drop the count, keep the time
            tracer.spans.append((sid, parent, tracer.trace_id, name, start, end, counts))
            return result

        return traced

    # -- op boundaries -----------------------------------------------------
    def begin_op(self, index: int) -> None:
        """Open the root span of op ``index`` (its trace id)."""
        self.trace_id = index
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self._local.root = (sid, time.perf_counter())
        self.active = True

    def end_op(self) -> None:
        end = time.perf_counter()
        self.active = False
        sid, start = self._local.root
        self._stack().pop()
        self.spans.append((sid, -1, self.trace_id, "op", start, end, None))


# --------------------------------------------------------------------------- #
# Folding spans into per-op layer numbers
# --------------------------------------------------------------------------- #
def self_times(spans: Iterable[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    own = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class Fold:
    """Per-op aggregates of one traced phase.

    ``op_s`` maps op index to the latency the loop measured around the
    public call; the root span of an op also covers the loop's own clock
    reads, so it only anchors the tree and is not a denominator.
    """

    def __init__(self, spans: List[tuple], op_s: Dict[int, float]) -> None:
        own = self_times(spans)
        # name -> trace id -> summed self seconds / inclusive seconds of top-most spans
        self.self_s: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.incl_s: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: Dict[str, List[Dict[str, float]]] = defaultdict(list)
        self.calls: Dict[str, int] = defaultdict(int)
        self.op_s = op_s
        names = {s[SID]: s[NAME] for s in spans}
        for s in spans:
            name, trace = s[NAME], s[TRACE]
            if name == "op":
                continue
            self.self_s[name][trace] += own[s[SID]]
            if names.get(s[PARENT]) != name:  # do not double count nesting in itself
                self.incl_s[name][trace] += s[END] - s[START]
            self.calls[name] += 1
            if s[COUNTS]:
                self.counts[name].append(s[COUNTS])

    def total(self, name: str, key: str) -> float:
        return float(sum(c.get(key, 0.0) for c in self.counts.get(name, ())))

    def layer_self_s(self, ops: Optional[Iterable[int]] = None) -> Dict[str, float]:
        """Summed self seconds per layer, over ``ops`` (default: all)."""
        wanted = None if ops is None else set(ops)
        out = {layer: 0.0 for layer in LAYERS}
        for name, per_op in self.self_s.items():
            layer = name.split(".", 1)[0]
            for trace, seconds in per_op.items():
                if wanted is None or trace in wanted:
                    out[layer] += seconds
        return out
