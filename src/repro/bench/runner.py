"""Timing utilities for the benchmark harness.

The paper reports, for every experiment, the running time averaged over five
runs after discarding the fastest and slowest.  :func:`time_call` reproduces
that protocol (with a configurable repeat count so the pytest benchmarks stay
fast), and :func:`run_series` applies it over a parameter sweep.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple


@dataclass
class Measurement:
    """One timed call: trimmed-mean seconds plus the callable's return value.

    ``details`` carries the plan explanation when the measured callable
    returns a planner-backed result (an object exposing ``explanation``):
    strategy, backend, thresholds and per-operator estimated vs. actual cost.
    """

    seconds: float
    runs: List[float]
    value: Any = None
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def best(self) -> float:
        """Fastest observed run."""
        return min(self.runs) if self.runs else 0.0

    @property
    def worst(self) -> float:
        """Slowest observed run."""
        return max(self.runs) if self.runs else 0.0


def extract_details(value: Any) -> Dict[str, Any]:
    """Pull plan-explanation details out of a result object, if it has any."""
    explanation = getattr(value, "explanation", None)
    if explanation is not None and hasattr(explanation, "as_details"):
        return explanation.as_details()
    return {}


def time_call(
    func: Callable[..., Any],
    *args: Any,
    repeats: int = 3,
    trim: bool = True,
    **kwargs: Any,
) -> Measurement:
    """Time ``func(*args, **kwargs)`` following the paper's protocol.

    Runs the callable ``repeats`` times; when ``trim`` is on and at least
    three runs were taken, the fastest and slowest are discarded before
    averaging (the paper's "average three values after excluding the slowest
    and the fastest").
    """
    runs: List[float] = []
    value: Any = None
    for _ in range(max(int(repeats), 1)):
        start = time.perf_counter()
        value = func(*args, **kwargs)
        runs.append(time.perf_counter() - start)
    if trim and len(runs) >= 3:
        kept = sorted(runs)[1:-1]
    else:
        kept = runs
    return Measurement(
        seconds=float(statistics.mean(kept)),
        runs=runs,
        value=value,
        details=extract_details(value),
    )


def run_series(
    func: Callable[[Any], Any],
    parameters: Sequence[Any],
    repeats: int = 3,
) -> List[Tuple[Any, Measurement]]:
    """Time ``func(p)`` for every parameter ``p`` in the sweep."""
    return [(p, time_call(func, p, repeats=repeats)) for p in parameters]


def speedup(baseline_seconds: float, candidate_seconds: float) -> float:
    """How many times faster the candidate is than the baseline."""
    if candidate_seconds <= 0:
        return float("inf")
    return baseline_seconds / candidate_seconds
