#!/usr/bin/env python3
"""End-to-end benchmark of the join-project engine: one command, every metric.

Two ways to run it:

* one run of one workload, the form ``BENCHMARK.json`` names::

      python3 benchmarks/e2e/run.py --workload cold_dense --seed 7 --seconds 15 --trace 0

  prints the run's header, op-class shares and metrics, and ends with one
  JSON line ``{"correct", "attempted", "failed", "metrics"}``;

* a set — every workload (or ``--workload W``) ``--runs N`` times, medians with
  min/max, ``--trace`` adding one traced run each, ``--aa`` running two sets
  back to back and comparing them against the bounds in ``BENCHMARK.json``::

      python3 benchmarks/e2e/run.py --runs 3 --trace
      python3 benchmarks/e2e/run.py --aa --runs 3

Every run happens in a fresh subprocess with one BLAS thread; this process
only makes the reference answers (``oracle.py``, no ``repro`` import) and
checks the subprocess's result digests against them, outside any timing.
Nothing is written unless ``--out DIR`` is given.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNTRACED_SHARE = 0.3      # of a traced run's seconds, measured before wrappers go in
REGRET_REPEATS = 5
REGRET_ALTERNATIVES = {
    "combinatorial": {"use_optimizer": False},
    "delta8": {"delta1": 8, "delta2": 8},
    "delta32": {"delta1": 32, "delta2": 32},
}


# --------------------------------------------------------------------------- #
# Child: one workload, one process
# --------------------------------------------------------------------------- #
def run_phase(workload, first_op: int, seconds: float, max_ops: Optional[int],
              tracer=None) -> Tuple[list, int, Optional[str]]:
    """Closed loop: issue op, wait, classify and digest (untimed), repeat."""
    log = []
    raised = 0
    first_error = None
    clock, cpu_clock = time.perf_counter, time.process_time
    measured = 0.0  # seconds inside ops; verification and bookkeeping do not count
    index = first_op
    while True:
        call = workload.call(index)
        if tracer is not None:
            tracer.begin_op(index)
        cpu0 = cpu_clock()
        start = clock()
        try:
            out = call()
            failure = None
        except Exception:  # the loop must survive a failing op and count it
            failure = traceback.format_exc()
        end = clock()
        cpu1 = cpu_clock()
        if tracer is not None:
            tracer.end_op()
        measured += end - start
        if failure is None:
            log.append((workload.observe(index, out), end - start, cpu1 - cpu0, index))
        else:
            raised += 1
            first_error = first_error or failure
        index += 1
        finished = index - first_op >= max_ops if max_ops else measured >= seconds
        if finished:
            return log, raised, first_error


def measure_regret(workload) -> float:
    """t(default) / min t(fixed alternatives), median over the pool inputs."""
    ratios = []
    for item in workload.pool:
        configs = {"default": {}, **REGRET_ALTERNATIVES}
        times: Dict[str, List[float]] = {name: [] for name in configs}
        for _ in range(REGRET_REPEATS):
            for name, overrides in configs.items():
                start = time.perf_counter()
                workload.run_op(item, **overrides)
                times[name].append(time.perf_counter() - start)
            gc.collect()  # closed sessions are cyclic garbage; see workloads.COLLECT_EVERY
        median = {name: statistics.median(ts) for name, ts in times.items()}
        ratios.append(median["default"] / min(median[name] for name in REGRET_ALTERNATIVES))
    return statistics.median(ratios)


def measure_telemetry_overhead(workload) -> float:
    """Memo-hit median with telemetry on against off, interleaved blocks."""
    from repro import Relation
    from repro.serve import QuerySession

    sessions = {flag: QuerySession(telemetry=flag) for flag in (True, False)}
    samples: Dict[bool, List[float]] = {True: [], False: []}
    try:
        for session in sessions.values():
            session.register(Relation(workload.relations[0], name="A"))
            session.register(Relation(workload.relations[1], name="B"))
            session.two_path("A", "B")
        for _ in range(20):
            for flag, session in sessions.items():
                for _ in range(100):
                    start = time.perf_counter()
                    session.two_path("A", "B")
                    samples[flag].append(time.perf_counter() - start)
    finally:
        for session in sessions.values():
            session.close()
    return 100.0 * (statistics.median(samples[True]) / statistics.median(samples[False]) - 1.0)


def peak_rss_bytes() -> int:
    """Peak resident set of this process image.

    ``VmHWM`` and not ``ru_maxrss``: Linux folds the forking parent's resident
    size into the child's ``ru_maxrss`` across ``execve``, so a workload
    smaller than the ``run.py`` that spawned it would report its parent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def child_main(args: argparse.Namespace) -> int:
    import_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (timed: part of what a user pays before the first op)
    import repro.serve  # noqa: F401
    import_s = time.perf_counter() - import_start

    import metrics
    from layers import Fold, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workload.corrupt_op = args.corrupt_op
    workload.prepare()
    passes = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        passes.append(time.perf_counter() - start)
        gc.collect()  # what a repeated set-up dropped must not count as resident memory
    setup_s = import_s + statistics.median(passes)

    share = UNTRACED_SHARE if args.trace else 1.0
    untraced, raised, first_error = run_phase(workload, 0, args.seconds * share, args.ops)
    consumed = len(untraced) + raised
    out: Dict[str, Any] = {"per_layer": None}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, raised_t, error_t = run_phase(
                workload, consumed, args.seconds * (1.0 - share), args.ops, tracer)
        finally:
            tracer.uninstall()
        raised += raised_t
        first_error = first_error or error_t
        stats = workload.layer_stats()
        extras = {}
        if workload.regret:
            extras["regret"] = measure_regret(workload)
        if workload.telemetry_probe:
            extras["telemetry_overhead_pct"] = measure_telemetry_overhead(workload)
        fold = Fold(tracer.spans, {op: seconds for _, seconds, _, op in traced})
        per_layer, budget = metrics.per_layer(
            fold, traced, untraced, stats, len(tracer.unresolved), extras)
        out.update(per_layer=per_layer, budget=budget, unresolved=tracer.unresolved,
                   memo_budget=metrics.memo_class_budget(fold, traced),
                   traced_ops=len(traced))
        consumed += len(traced) + raised_t
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for sid, parent, trace, name, start, end, counts in tracer.spans:
                    handle.write(json.dumps({
                        "id": sid, "parent": parent, "trace": trace, "name": name,
                        "start": start, "end": end, "counts": counts}) + "\n")
    workload.finish()

    peak_rss_mb = peak_rss_bytes() / 2.0 ** 20
    kinds, shares = metrics.class_shares(untraced, workload.kinds)
    out.update(
        workload=args.workload, seed=args.seed, scale=args.scale,
        ops=consumed, attempted=consumed, raised=raised,
        first_error=first_error, samples=len(untraced),
        e2e=metrics.end_to_end(untraced, setup_s, peak_rss_mb) if untraced else None,
        kinds=kinds, classes=shares, guard=metrics.percentile_guard(shares),
        observed=[[key, list(digest), count]
                  for (key, digest), count in workload.observed.items()],
    )
    print(json.dumps(out))
    return 0


# --------------------------------------------------------------------------- #
# Parent: spawn, verify, report
# --------------------------------------------------------------------------- #
def run_once(args: argparse.Namespace, workload: str, trace: bool,
             label: str = "") -> Dict[str, Any]:
    """One fresh-process run, verified against the oracle."""
    import oracle
    from workloads import WORKLOADS

    command = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", args.scale, "--trace", "1" if trace else "0"]
    ops = args.ops or (WORKLOADS[workload].smoke_ops if args.scale == "smoke" else None)
    if ops:
        command += ["--ops", str(ops)]
    if args.corrupt_op is not None:
        command += ["--corrupt-op", str(args.corrupt_op)]
    if trace and args.out:
        command += ["--spans", str(Path(args.out) / f"spans-{workload}{label}.jsonl")]
    done = subprocess.run(command, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE,
                          text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(
            f"workload {workload}: subprocess exited {done.returncode} without a result")
    record = json.loads(done.stdout.strip().splitlines()[-1])

    expected = WORKLOADS[workload](args.seed, args.scale).expected(record["ops"])
    observed = [(key, tuple(digest), count) for key, digest, count in record.pop("observed")]
    wrong, examples = oracle.check(observed, expected)
    record["checked"] = sum(count for _, _, count in observed)
    record["failed"] = record["raised"] + wrong
    record["error_rate"] = record["failed"] / max(record["attempted"], 1)
    record["examples"] = examples
    return record


def header(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        commit = ""
    import numpy

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "commit": commit or "unknown", "nproc": nproc, "load1": round(load1, 2),
        "noisy": load1 > nproc, "blas_threads": BLAS_ENV,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
    }


def print_header(info: Dict[str, Any]) -> None:
    print("# commit {commit}  nproc {nproc}  load1 {load1}{flag}  python {python}  numpy {numpy}  "
          "seed {seed}  seconds {seconds:g}  scale {scale}  BLAS threads 1".format(
              flag="  NOISY" if info["noisy"] else "", **info))


def print_run(record: Dict[str, Any]) -> None:
    name = record["workload"]
    print(f"## {name}: {record['samples']} ops measured, {record['checked']} results checked, "
          f"error_rate {record['error_rate']:.4g}")
    for label, rows in (("kind", record["kinds"]), ("class", record["classes"])):
        for row in rows:
            print(f"   {label} {row[label]:<10} {row['share_pct']:6.2f} %  {row['ops']:6d} ops  "
                  f"median {row['median_ms']:.4g} ms")
    guard = record["guard"]
    print(f"   p50 sits in class {guard.get('p50')}, p95 in class {guard.get('p95')}")
    for line in guard["violations"]:
        print(f"   GUARD: {line}")
    for line in record["examples"]:
        print(f"   WRONG: {line}")
    if record["first_error"]:
        print("   RAISED: " + record["first_error"].strip().splitlines()[-1])
    for group in ("e2e", "per_layer"):
        for metric, entry in (record.get(group) or {}).items():
            print(f"   {name}.{metric} = {entry['value']:.6g} {entry['unit']}")
    if record.get("budget"):
        print("   layer budget of the traced ops (self time):")
        for layer, row in record["budget"].items():
            print(f"     {layer:<7} {row['ms_per_op']:10.4f} ms/op  {row['share_pct']:6.2f} %")
    if record.get("memo_budget"):
        shares = ", ".join(f"{layer} {pct:.1f}%"
                           for layer, pct in record["memo_budget"].items() if pct >= 0.05)
        print(f"   memo-class ops alone: {shares}")
    for target in record.get("unresolved") or ():
        print(f"   UNRESOLVED: {target}")


def run_ok(record: Dict[str, Any]) -> bool:
    return record["failed"] == 0 and not record["guard"]["violations"]


def single(args: argparse.Namespace) -> int:
    """The form the driver runs: one workload, one run, one JSON line."""
    info = header(args)
    print_header(info)
    record = run_once(args, args.workload, bool(args.trace))
    print_run(record)
    write_out(args, {"header": info, "runs": [record]})
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if args.trace else record["e2e"],
    }))
    return 0 if run_ok(record) else 1


def spread(values: List[float], unit: str) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "unit": unit}


def run_set(args: argparse.Namespace, label: str = "") -> Tuple[Dict[str, Any], bool]:
    """``--runs`` untraced runs per workload (plus one traced); medians by metric."""
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    summary: Dict[str, Any] = {}
    ok = True
    for name in names:
        runs = [run_once(args, name, False, label) for _ in range(args.runs)]
        for record in runs:
            print_run(record)
            ok = ok and run_ok(record)
        table = {metric: spread([r["e2e"][metric]["value"] for r in runs], entry["unit"])
                 for metric, entry in runs[0]["e2e"].items()}
        table["error_rate"] = spread([r["error_rate"] for r in runs], "fraction")
        summary[name] = {"e2e": table, "runs": runs}
        if args.trace:
            traced = run_once(args, name, True, label)
            print_run(traced)
            ok = ok and run_ok(traced)
            summary[name]["traced"] = traced
        print(f"== {name}: median of {args.runs} run(s) [min .. max]")
        for metric, row in table.items():
            print(f"   {name}.{metric} = {row['median']:.6g} {row['unit']}  "
                  f"[{row['min']:.6g} .. {row['max']:.6g}]")
    return summary, ok


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def compare_sets(first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """A/A table: both medians, relative difference in the bad direction, bound."""
    bounds = {m["name"]: (float(m["bound"]), m["better"]) for m in load_spec()["end_to_end"]}
    agree = True
    print("== A/A: metric, first median, second median, worse by, bound")
    for name in first:
        for metric, (bound, better) in bounds.items():
            a = first[name]["e2e"][metric]["median"]
            b = second[name]["e2e"][metric]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "OUTSIDE"
            agree = agree and worse <= bound
            print(f"   {name}.{metric}: {a:.6g}  {b:.6g}  {100 * worse:+.2f} %  "
                  f"bound {100 * bound:.0f} %  {verdict}")
    return agree


def write_out(args: argparse.Namespace, payload: Dict[str, Any]) -> None:
    if args.out:
        path = Path(args.out) / "results.json"
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        print(f"# wrote {path}")


def describe() -> int:
    import metrics
    from workloads import WORKLOADS

    print(json.dumps({
        "workloads": list(WORKLOADS),
        "end_to_end": [list(row) for row in metrics.END_TO_END],
        "per_layer": [list(row) for row in metrics.PER_LAYER],
    }))
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--runs", type=int, default=None, help="runs per workload (set mode)")
    parser.add_argument("--aa", action="store_true", help="two sets back to back, compared")
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument("--ops", type=int, default=None,
                        help="measure exactly this many ops per phase instead of --seconds "
                             "(the default at --scale smoke)")
    parser.add_argument("--out", default=None, help="directory for results.json and span files")
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="self-test: damage this op's result; the run must fail")
    parser.add_argument("--describe", action="store_true",
                        help="print workload and metric names as JSON and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.describe:
        return describe()
    if args.child:
        return child_main(args)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.workload and args.runs is None and not args.aa:
        return single(args)
    args.runs = args.runs or 3
    info = header(args)
    print_header(info)
    first, ok = run_set(args, label="-a" if args.aa else "")
    payload = {"header": info, "sets": [first]}
    if args.aa:
        print_header(header(args))
        second, ok_second = run_set(args, label="-b")
        payload["sets"].append(second)
        ok = compare_sets(first, second) and ok and ok_second
    write_out(args, payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
