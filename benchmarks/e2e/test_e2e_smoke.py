"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Runs all five workloads at ``--scale smoke`` through the real entry point —
fresh subprocess, oracle check, traced phase — and asserts that every named
metric comes back with its unit, that nothing is wrong, and that the only
files written are the ones ``--out`` asked for.  The benchmark is driven as a
program, never imported, so its module names cannot clash with the suite's.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = str(HERE / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=False)


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def tree_state(directory: Path) -> dict:
    """Every file under ``directory`` (bytecode caches aside) with size and mtime."""
    return {
        str(path.relative_to(directory)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in directory.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and ".pytest_cache" not in path.parts
    }


def test_benchmark_json_names_what_the_benchmark_reports():
    described = json.loads(run_benchmark("--describe").stdout)
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == described["workloads"]
    for group in ("end_to_end", "per_layer"):
        declared = [[m["name"], m["unit"], m["better"]] for m in SPEC[group]]
        assert declared == described[group]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_all_workloads_at_smoke_scale(tmp_path):
    before = tree_state(HERE)
    started = time.perf_counter()
    for workload in WORKLOADS:
        out = tmp_path / workload
        done = run_benchmark("--workload", workload, "--scale", "smoke", "--seed", "7",
                             "--trace", "1", "--out", str(out))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        line = result_line(done)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert line["metrics"]["trace.unresolved_targets"]["value"] == 0
        assert line["metrics"]["trace.coverage_pct"]["value"] >= 90

        record = json.loads((out / "results.json").read_text(encoding="utf-8"))["runs"][0]
        assert record["error_rate"] == 0
        assert {n: m["unit"] for n, m in record["e2e"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in record["e2e"].values())
        assert (out / f"spans-{workload}.jsonl").stat().st_size > 0
        # shard.* is present on the sharded workload and nowhere else.
        sharded = line["metrics"]["shard.execute.ms"]["value"] > 0
        assert sharded == (workload == "serve_write_mix")
    elapsed = time.perf_counter() - started
    # Designed for <= 15 s in total; the assertion leaves room for a loaded box.
    assert elapsed < 90, f"smoke scale took {elapsed:.1f} s"
    assert tree_state(HERE) == before, "the benchmark wrote outside --out"


def test_corrupted_result_is_caught():
    done = run_benchmark("--workload", "cold_dense", "--scale", "smoke", "--corrupt-op", "3")
    assert done.returncode != 0
    line = result_line(done)
    assert line["correct"] is False
    assert line["failed"] >= 1 and line["failed"] / line["attempted"] > 0


def test_unresolved_trace_target_is_counted_not_fatal():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from layers import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install({'data.gone': (('repro.data.relation:Relation.no_such_method',"
        " 'repro.no_such_module:f'), None)})\n"
        "tracer.uninstall()\n"
        "print(len(tracer.unresolved))\n" % (str(HERE), str(ROOT / "src"))
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "2"


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode != 0
    assert "{" not in done.stdout
