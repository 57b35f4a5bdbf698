"""Microbenchmark: fault-free warm-serving overhead of fault tolerance.

The fault-tolerance layer promises to be invisible when nothing fails:
deadline checkpoints (one thread-local read + ``None`` check per expansion
chunk / extraction band / plan operator), fault-site hooks (one module
global read), the per-shard retry wrapper and the admission check must not
tax the latency-critical warm-serving path.  Unlike telemetry (a
session-constructor flag), the fault controls are armed *per call*, so
this benchmark serves the same Zipf warm workload through **one** session
down two call paths:

* ``bare`` — :meth:`~repro.serve.QuerySession.evaluate` with the budget
  cleared (the uncontrolled entry point): checkpoints and fault sites
  still execute but resolve to ``None`` immediately;
* ``armed`` — :meth:`~repro.serve.QuerySession.submit` with a generous
  ``timeout_ms`` and the memory budget set: a live deadline is installed
  and propagated, every checkpoint takes the full comparison path and
  admission control evaluates the query — but no fault ever fires, no
  deadline ever expires and every query admits outright.

The single-session design matters: a two-session contrast (the telemetry
benchmark's shape) superimposes per-session systematics — allocator
state, cache layout — that dwarf the few-µs per-call machinery and that
pairing cannot cancel.  Here both modes hit identical caches, so the
paired difference isolates exactly the armed-path cost.  Warm serving
bypasses the plan memo (``use_memo=False``) so every query walks the full
instrumented pipeline against hot artifact caches — the worst case for
relative overhead.

**Estimator.**  The armed-path cost (a few µs) is far below this-box
timing drift at any window scale (machine speed swings several percent
over seconds), so window contrasts — including best-of-N — are dominated
by which drift regime each mode's windows landed in.  The robust design
pairs at the finest grain instead: queries alternate bare/armed one at a
time (order swapping every pair, so linear drift cancels within the pair)
and the headline is the **median of paired differences** — outlier pairs
(GC, a metrics flush, scheduler preemption) fall out of the median.

    ``fault_free_overhead_pct = 100 * median(armed_i - bare_i) / median(bare_i)``
    ``fault_free_warm_speedup = bare_median / (bare_median + median_diff)``

recorded into ``BENCH_micro.json`` with the acceptance bar **<= 5 %**
overhead asserted by ``test_micro_fault_overhead.py``.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke mode (smaller workload,
``quick_mode: true``).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # script usage: python benchmarks/micro_fault_overhead.py
    sys.path.insert(0, str(_SRC))

from repro.core.config import MMJoinConfig
from repro.data import generators
from repro.faults import DEFAULT_RETRY_POLICY
from repro.plan.query import TwoPathQuery
from repro.serve import QuerySession

RESULTS_PATH = Path(__file__).parent / "results" / "micro_fault_overhead.txt"

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

N_TUPLES = 10_000 if QUICK else 100_000
X_DOMAIN = 100
Y_DOMAIN = 300
SKEW = 1.1

# Fixed thresholds + dense backend: the warm loop runs the full pipeline
# (semijoin, partition, heavy matmul with extraction) from hot caches.
CONFIG = MMJoinConfig(delta1=8, delta2=8, matrix_backend="dense")

PAIRS = 100 if QUICK else 600        # alternating bare/armed query pairs
WARMUPS = 3                          # unmeasured queries after the cold run

# Armed-mode controls: generous enough that no deadline expires and every
# query admits outright — only the machinery's fixed cost is measured.
TIMEOUT_MS = 60_000.0
BUDGET_BYTES = 1 << 30


def _session() -> QuerySession:
    relation = generators.zipf_bipartite(N_TUPLES, X_DOMAIN, Y_DOMAIN,
                                         skew=SKEW, seed=11, name="R")
    session = QuerySession(config=CONFIG,
                           retry_policy=DEFAULT_RETRY_POLICY)
    session.register(relation, name="R")
    for _ in range(1 + WARMUPS):     # cold run + warmups: caches go hot
        session.two_path("R", "R", use_memo=False)
    return session


def run_rows() -> List[Dict[str, object]]:
    """Paired alternating warm queries; per-mode times plus paired diffs."""
    session = _session()
    query = TwoPathQuery(left=session.catalog.get("R"),
                         right=session.catalog.get("R"))
    clock = time.perf_counter
    times: Dict[str, List[float]] = {"bare": [], "armed": []}
    diffs: List[float] = []
    outputs = {}
    try:
        def one(mode: str) -> float:
            if mode == "armed":
                session.memory_budget_bytes = BUDGET_BYTES
                start = clock()
                session.submit(query, timeout_ms=TIMEOUT_MS, use_memo=False)
            else:
                session.memory_budget_bytes = None
                start = clock()
                session.evaluate(query, use_memo=False)
            elapsed = clock() - start
            times[mode].append(elapsed)
            return elapsed

        for pair in range(PAIRS):
            if pair % 2 == 0:        # swap order every pair: drift cancels
                one("bare")
                one("armed")
            else:
                one("armed")
                one("bare")
            diffs.append(times["armed"][-1] - times["bare"][-1])
        session.memory_budget_bytes = None
        outputs["bare"] = session.evaluate(query, use_memo=False).output_size
        session.memory_budget_bytes = BUDGET_BYTES
        outputs["armed"] = session.submit(
            query, timeout_ms=TIMEOUT_MS, use_memo=False).output_size
    finally:
        session.close()
    assert outputs["bare"] == outputs["armed"], \
        "fault-tolerance controls changed the served result"
    rows = []
    for mode in ("bare", "armed"):
        per_query = times[mode]
        rows.append({
            "controls": mode,
            "tuples": N_TUPLES,
            "paired_queries": PAIRS,
            "seconds": round(sum(per_query), 6),
            "ms_per_query": round(1_000.0 * statistics.median(per_query), 4),
            "output_pairs": outputs[mode],
        })
    # Thread the paired differences through to headline_metrics via the rows
    # (the pairing is the estimator; per-mode medians alone would reintroduce
    # the drift sensitivity this design exists to kill).
    rows[0]["_paired_diff_median"] = statistics.median(diffs)
    return rows


def headline_metrics(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """The BENCH_micro.json entry: warm cost of armed fault tolerance."""
    by_mode = {row["controls"]: row for row in rows}
    base = float(by_mode["bare"]["ms_per_query"]) / 1_000.0
    diff = float(by_mode["bare"].get("_paired_diff_median", 0.0))
    armed = base + diff
    return {
        "fault_free_warm_speedup": round(base / armed, 4) if armed > 0 else 1.0,
        "fault_free_overhead_pct": round(100.0 * diff / base, 2),
        "bare_ms_per_query": round(1_000.0 * base, 4),
        "armed_ms_per_query": round(1_000.0 * armed, 4),
        "paired_queries": PAIRS,
        "quick_mode": QUICK,
    }


def main() -> None:
    from repro.bench.report import format_table, record_bench_json

    rows = run_rows()
    metrics = headline_metrics(rows)
    table_rows = [
        {k: v for k, v in row.items() if not k.startswith("_")} for row in rows
    ]
    text = format_table(
        table_rows,
        title="Microbenchmark: warm serving bare vs armed fault tolerance",
    )
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(text + "\n", encoding="utf-8")
    print(text)
    print(f"fault_free_overhead_pct: {metrics['fault_free_overhead_pct']}%")
    record_bench_json("micro_fault_overhead", metrics, RESULTS_PATH.parent)


if __name__ == "__main__":
    main()
