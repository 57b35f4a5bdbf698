"""Shared fixtures and result recording for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper.  Besides
the pytest-benchmark timings, each module can write the paper-style rows it
produced to ``benchmarks/results/<experiment>.txt`` so the numbers quoted in
EXPERIMENTS.md can be traced back to a concrete run.

Recording is **opt-in**: pass ``--record-results`` (or set
``REPRO_BENCH_RECORD=1``).  A plain ``pytest`` run — the tier-1 command
collects this directory too — formats and asserts exactly the same rows but
writes nothing, so it leaves ``benchmarks/results/`` (tracked files)
untouched.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Mapping, Sequence

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def recording(request) -> bool:
    """Whether this run may write under ``benchmarks/results/``."""
    return bool(
        request.config.getoption("--record-results", default=False)
        or os.environ.get("REPRO_BENCH_RECORD") == "1"
    )


@pytest.fixture(scope="session")
def record_json(recording):
    """Merge one micro-benchmark's headline metrics into BENCH_micro.json."""

    def _record(experiment: str, metrics: Mapping[str, object]):
        if not recording:
            return None
        from repro.bench.report import record_bench_json

        return record_bench_json(experiment, metrics, RESULTS_DIR)

    return _record


@pytest.fixture(scope="session")
def record_rows(recording):
    """Format a list of dict rows (one experiment's output); write it when recording."""

    def _record(experiment: str, rows: Sequence[Mapping[str, object]], title: str = "") -> str:
        from repro.bench.report import format_table

        text = format_table(list(rows), title=title or experiment)
        if recording:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n", encoding="utf-8")
        return text

    return _record
