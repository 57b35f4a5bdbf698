"""Result recording is opt-in: a plain run leaves ``benchmarks/results/`` alone.

The tier-1 command collects this directory, so a recording fixture that
wrote unconditionally would rewrite tracked files on every ``pytest``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent
RESULTS = BENCHMARKS / "results"


def _snapshot() -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(RESULTS.iterdir()) if path.is_file()
    }


def _run_recording_test(*flags: str, record_env: bool = False) -> None:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BENCH_RECORD"}
    if record_env:
        env["REPRO_BENCH_RECORD"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags,
         "benchmarks/test_table2_datasets.py::test_table2_dataset_characteristics"],
        cwd=BENCHMARKS.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_plain_run_leaves_results_byte_identical():
    before = _snapshot()
    assert "table2_datasets.txt" in before
    _run_recording_test()
    assert _snapshot() == before


def test_record_flag_and_env_write_the_table():
    """Both switches reach the fixture (the table itself is deterministic)."""
    target = RESULTS / "table2_datasets.txt"
    original = target.read_bytes()
    try:
        for flags, record_env in ((("--record-results",), False), ((), True)):
            target.write_bytes(b"stale\n")
            _run_recording_test(*flags, record_env=record_env)
            assert target.read_bytes() != b"stale\n"
    finally:
        target.write_bytes(original)
