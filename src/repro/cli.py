"""Command-line interface for the reproduction.

Ten subcommands cover the common workflows without writing any Python:

* ``repro-cli join <edge-list>`` — evaluate the 2-path join-project over an
  edge-list file (with ``--engine`` choosing MMJoin or the combinatorial
  Non-MMJoin baseline, and ``--shards K`` serving through a sharded session)
  and report the output size, strategy and timings;
* ``repro-cli shard <edge-list> --shards K`` — inspect the skew-aware
  sharding: shard sizes, heavy-key shards, the per-shard plan breakdown and
  per-shard cache hit rates over repeated serving;
* ``repro-cli explain <edge-list>`` — run the planner pipeline and print the
  chosen plan: strategy, thresholds, matmul backend and per-operator
  estimated vs. actual cost;
* ``repro-cli session <edge-list>`` — serve the same query repeatedly from a
  :class:`~repro.serve.session.QuerySession` and report the cold-vs-warm
  timings, cache-hit counters and the estimated-vs-actual cost feedback;
* ``repro-cli serve <edge-list>`` — a long-lived serving loop reading query
  and write commands (``append`` / ``delete`` route as shard deltas under
  ``--shards K``) from stdin (or ``--script``) against one session; the loop
  also answers ``metrics`` / ``trace <id>`` and prints a one-line metrics
  summary on exit;
* ``repro-cli metrics <edge-list>`` — run a small cold/warm/memo workload and
  export the session's metrics registry (Prometheus text or JSON);
* ``repro-cli trace <edge-list>`` — run the same workload with every query
  recorded and print one query's span tree (slow-query forensics);
* ``repro-cli ssj <edge-list> --overlap C`` — run the set similarity join
  with a chosen method;
* ``repro-cli scj <edge-list>`` — run the set containment join;
* ``repro-cli datasets`` — regenerate the Table 2 dataset-statistics rows.

The CLI is intentionally thin: it parses arguments, calls the same public API
the examples use, and prints paper-style tables via :mod:`repro.bench.report`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.bench.report import format_table
from repro.core.config import EXTRACT_MODES, MATRIX_BACKENDS, MMJoinConfig
from repro.core.star import star_join
from repro.core.two_path import two_path_join
from repro.data.loaders import load_edge_list
from repro.data.setfamily import SetFamily
from repro.joins.baseline import combinatorial_two_path_block
from repro.setops.scj import SCJ_METHODS, set_containment_join
from repro.setops.ssj import SSJ_METHODS, set_similarity_join

BACKEND_CHOICES = list(MATRIX_BACKENDS)
ENGINE_CHOICES = ["mmjoin", "non-mmjoin"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Fast join-project query evaluation using matrix multiplication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    join = sub.add_parser("join", help="evaluate the 2-path join-project over an edge list")
    _add_join_options(join)
    join.add_argument("--engine", choices=ENGINE_CHOICES, default="mmjoin",
                      help="mmjoin, or the combinatorial non-mmjoin baseline "
                           "(default: mmjoin)")
    join.add_argument("--shards", type=int, default=1,
                      help="serve through a sharded session with this many hash "
                           "shards (mmjoin engine only; default: unsharded)")

    shard = sub.add_parser(
        "shard",
        help="inspect skew-aware sharding: shard sizes, heavy keys, cache hit rates",
    )
    _add_join_options(shard)
    shard.add_argument("--shards", type=int, default=4,
                       help="number of hash shards (heavy-key shards come on top)")
    shard.add_argument("--repeat", type=int, default=2,
                       help="number of warm re-evaluations after the cold run")

    explain = sub.add_parser(
        "explain",
        help="print the physical plan (operators, thresholds, backend, costs)",
    )
    _add_join_options(explain)
    explain.add_argument("--query", choices=["two-path", "star"], default="two-path",
                         help="logical query shape to plan")
    explain.add_argument("--k", type=int, default=3,
                         help="number of relations for --query star (self-join copies)")

    session = sub.add_parser(
        "session",
        help="serve a repeated query from a QuerySession (cold vs warm report)",
    )
    _add_join_options(session)
    session.add_argument("--repeat", type=int, default=3,
                         help="number of warm re-evaluations after the cold run")
    session.add_argument("--no-memo", action="store_true",
                         help="bypass the plan/result memo (exercise artifact caches only)")

    serve = sub.add_parser(
        "serve",
        help="serve query commands against one long-lived session",
    )
    _add_join_options(serve)
    serve.add_argument("--script", default=None,
                       help="file of serve commands (default: read stdin)")
    serve.add_argument("--shards", type=int, default=1,
                       help="serve from a sharded session with this many hash "
                            "shards; append/delete then route as shard deltas "
                            "(default: unsharded)")
    serve.add_argument("--lazy-merge", type=int, default=4096,
                       help="write-absorption threshold: appends/deletes below "
                            "this many pending rows per shard buffer until the "
                            "next read (default: 4096; 0 folds eagerly)")
    serve.add_argument("--slow-ms", type=float, default=0.0,
                       help="slow-query-log threshold in milliseconds "
                            "(default: 0 — record every query, so `trace <id>` "
                            "can replay any of them)")
    serve.add_argument("--timeout-ms", type=float, default=0.0,
                       help="per-command query deadline in milliseconds; an "
                            "overrunning query is cancelled cooperatively and "
                            "reported as a timeout (default: 0 — unbounded)")
    serve.add_argument("--memory-budget-mb", type=float, default=0.0,
                       help="admission-control budget for one query's "
                            "extraction transient, in MiB; over-budget queries "
                            "are forced onto tiled extraction or rejected "
                            "(default: 0 — admit everything)")

    metrics = sub.add_parser(
        "metrics",
        help="run a cold/warm/memo workload and export session metrics",
    )
    _add_join_options(metrics)
    metrics.add_argument("--shards", type=int, default=1,
                         help="serve from a sharded session with this many "
                              "hash shards (default: unsharded)")
    metrics.add_argument("--repeat", type=int, default=2,
                         help="number of warm re-evaluations after the cold run")
    metrics.add_argument("--format", choices=["prometheus", "json"],
                         default="prometheus",
                         help="exposition format (default: prometheus)")

    trace = sub.add_parser(
        "trace",
        help="run a traced workload and print one query's span tree",
    )
    _add_join_options(trace)
    trace.add_argument("--shards", type=int, default=1,
                       help="serve from a sharded session with this many "
                            "hash shards (default: unsharded)")
    trace.add_argument("--repeat", type=int, default=1,
                       help="number of warm re-evaluations after the cold run")
    trace.add_argument("--id", default=None,
                       help="trace id to print (default: the slowest recorded "
                            "query)")

    ssj = sub.add_parser("ssj", help="set similarity join over an edge list (set_id element)")
    ssj.add_argument("path")
    ssj.add_argument("--overlap", "-c", type=int, default=1)
    ssj.add_argument("--method", choices=list(SSJ_METHODS), default="mmjoin")

    scj = sub.add_parser("scj", help="set containment join over an edge list (set_id element)")
    scj.add_argument("path")
    scj.add_argument("--method", choices=list(SCJ_METHODS), default="mmjoin")

    datasets = sub.add_parser("datasets", help="print the Table 2 dataset statistics")
    datasets.add_argument("--scale", type=float, default=0.12)

    return parser


def _add_join_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="edge-list file (x y per line)")
    parser.add_argument("--delta1", type=int, default=None, help="degree threshold for y")
    parser.add_argument("--delta2", type=int, default=None, help="degree threshold for x/z")
    parser.add_argument("--backend", choices=BACKEND_CHOICES, default="auto")
    parser.add_argument("--no-optimizer", action="store_true",
                        help="force the plain worst-case optimal join")
    parser.add_argument("--tile-rows", type=int, default=None,
                        help="row-band height of the tiled non-zero extraction "
                             "(default: density-aware auto; 0 = one-shot full scan)")
    parser.add_argument("--extract-mode", choices=EXTRACT_MODES, default="auto",
                        help="non-zero extraction strategy: auto (adaptive "
                             "bail-out), full, tiled, adaptive, or core "
                             "(DIM3 dense-core mapping)")


def _config_from_args(args: argparse.Namespace) -> MMJoinConfig:
    config = MMJoinConfig(matrix_backend=args.backend,
                          extract_tile_rows=getattr(args, "tile_rows", None),
                          extract_mode=getattr(args, "extract_mode", "auto"))
    if args.delta1 is not None and args.delta2 is not None:
        config = config.with_thresholds(args.delta1, args.delta2)
    if args.no_optimizer:
        config = config.without_optimizer()
    return config


def _run_join(args: argparse.Namespace) -> int:
    relation = load_edge_list(args.path)
    config = _config_from_args(args)
    if args.engine == "non-mmjoin":
        start = time.perf_counter()
        block = combinatorial_two_path_block(relation, relation)
        rows = [{
            "tuples": len(relation),
            "output_pairs": len(block),
            "engine": args.engine,
            "seconds": time.perf_counter() - start,
        }]
        print(format_table(rows, title=f"2-path join-project over {args.path}"))
        return 0
    from repro.serve import QuerySession

    # One session path; shards=1 is the unsharded case.
    sharded = args.shards > 1
    with QuerySession(config=config, shards=args.shards) as session:
        session.register(relation, name="R", sharded=sharded)
        served = session.two_path("R", "R", use_memo=False)
        explanation = served.explanation
        row = {
            "tuples": len(relation),
            "output_pairs": served.output_size,
            "strategy": served.strategy,
        }
        if sharded:
            stats = explanation.session_stats
            row.update({
                "backend": served.backend,
                "shards": session.sharding_spec.num_shards,
                "shards_executed": stats.get("shards_executed", 0),
                "shards_skipped": stats.get("shards_skipped_empty", 0),
            })
        else:
            heavy = next(op for op in explanation.operators if op.operator == "matmul_heavy")
            row.update({
                "delta1": explanation.delta1,
                "delta2": explanation.delta2,
                "matrix_dims": str(heavy.detail.get("matrix_dims", (0, 0, 0))),
            })
        row["seconds"] = round(served.seconds, 6)
    title = f"{'sharded ' if sharded else ''}2-path join-project over {args.path}"
    print(format_table([row], title=title))
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    relation = load_edge_list(args.path)
    config = _config_from_args(args)
    if args.query == "star":
        result = star_join([relation] * max(int(args.k), 1), config=config)
    else:
        result = two_path_join(relation, relation, config=config)
    print(f"plan for {args.query} join-project over {args.path}")
    print(result.explain())
    return 0


def _run_session(args: argparse.Namespace) -> int:
    from repro.serve import QuerySession

    relation = load_edge_list(args.path)
    config = _config_from_args(args)
    rows = []
    with QuerySession(config=config) as session:
        session.register(relation, name="R")
        for run in range(max(int(args.repeat), 1) + 1):
            result = session.two_path("R", "R", use_memo=not args.no_memo)
            explanation = result.explanation
            hits = 0
            if explanation is not None:
                hits = explanation.session_stats.get("operator_cache_hits", 0)
            rows.append({
                "run": "cold" if run == 0 else f"warm{run}",
                "memo": "hit" if result.from_memo else "miss",
                "operator_cache_hits": hits,
                "output_pairs": result.output_size,
                "seconds": round(result.seconds, 6),
            })
        print(format_table(rows, title=f"session serving over {args.path}"))
        stats = session.cache_stats()
        artifacts, memo = stats["artifacts"], stats["memo"]
        print(f"artifact cache: {artifacts['hits']} hits / {artifacts['misses']} misses"
              f" / {artifacts['bytes']} bytes")
        print(f"memo cache:     {memo['hits']} hits / {memo['misses']} misses"
              f" / {memo['bytes']} bytes")
        print(f"feedback: {stats['feedback_observations']} matmul observations,"
              f" {stats['cost_model_points']} cost-model calibration points")
        feedback_rows = session.feedback.summary()
        if feedback_rows:
            print(format_table(feedback_rows, title="estimated vs actual operator cost"))
    return 0


def _run_shard(args: argparse.Namespace) -> int:
    from repro.serve import QuerySession

    relation = load_edge_list(args.path)
    config = _config_from_args(args)
    with QuerySession(config=config, shards=max(int(args.shards), 1)) as session:
        session.register(relation, name="R", sharded=True)
        spec = session.sharding_spec
        container = session.sharded("R")
        sizes = container.sizes()
        layout_rows = []
        for row in spec.describe():
            layout_rows.append({**row, "tuples": sizes[row["shard"]]})
        print(format_table(
            layout_rows,
            title=f"shard layout for {args.path} "
                  f"({spec.hash_shards} hash + {spec.num_heavy} heavy shards)",
        ))
        result = session.two_path("R", "R", use_memo=False)
        for _ in range(max(int(args.repeat), 1)):
            result = session.two_path("R", "R", use_memo=False)
        if result.explanation is not None:
            print()
            print(result.explain())
        stats = session.shard_stats()
        rate_rows = [
            {"shard": shard, **counters}
            for shard, counters in stats["per_shard"].items()
        ]
        if rate_rows:
            print()
            print(format_table(rate_rows, title="per-shard operator cache hit rates"))
        print(f"router: {stats['router']['routed']} routed / "
              f"{stats['router']['fallbacks']} fallbacks")
    return 0


SERVE_COMMANDS = ("two-path [counts] | star K | ssj C | scj | "
                  "append x y [x y ...] | delete x y [x y ...] | "
                  "explain | stats | metrics [prom|json] | trace [id] | quit")


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import QuerySession, TelemetryConfig

    relation = load_edge_list(args.path)
    config = _config_from_args(args)
    if args.script is not None:
        with open(args.script, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = sys.stdin
    shards = max(int(getattr(args, "shards", 1)), 1)
    telemetry = TelemetryConfig(
        slow_query_seconds=max(float(getattr(args, "slow_ms", 0.0)), 0.0) / 1000.0
    )
    budget_mb = max(float(getattr(args, "memory_budget_mb", 0.0)), 0.0)
    timeout_ms = max(float(getattr(args, "timeout_ms", 0.0)), 0.0)
    with QuerySession(config=config, shards=shards,
                      lazy_merge_rows=max(int(getattr(args, "lazy_merge", 4096)), 0),
                      telemetry=telemetry,
                      memory_budget_bytes=(
                          int(budget_mb * (1 << 20)) if budget_mb else None
                      ),
                      ) as session:
        session.register(relation, name="R", sharded=shards > 1)
        print(f"serving R ({len(relation)} tuples) from {args.path}"
              + (f" across {session.sharding_spec.num_shards} shards"
                 if shards > 1 else ""))
        print(f"commands: {SERVE_COMMANDS}")
        try:
            for raw in lines:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if _serve_command(session, line,
                                  timeout_ms=timeout_ms or None) is False:
                    break
        except KeyboardInterrupt:
            # Clean break: the `with` still tears down the persistent
            # pools, and the metrics digest below still prints.
            print("\ninterrupted")
        print(_metrics_summary(session))
    return 0


def _metrics_summary(session) -> str:
    """One-line session metrics digest (printed when the serve loop exits)."""
    snapshot = session.metrics()
    queries = snapshot.families.get("repro_queries_total")
    total = 0
    by_path: dict = {}
    if queries is not None:
        for labels, value in queries["series"].items():
            total += int(value)
            path = dict(labels).get("path", "?")
            by_path[path] = by_path.get(path, 0) + int(value)
    latency = snapshot.families.get("repro_query_seconds")
    seconds = count = 0
    if latency is not None:
        for series in latency["series"].values():
            seconds += series["sum"]
            count += series["count"]
    writes = snapshot.families.get("repro_writes_total")
    n_writes = 0
    if writes is not None:
        n_writes = int(sum(writes["series"].values()))
    hit_ratio = snapshot.value("repro_cache_hit_ratio", cache="artifacts", kind="all")
    paths = "/".join(f"{path}:{by_path[path]}" for path in sorted(by_path)) or "none"
    mean_ms = (seconds / count * 1e3) if count else 0.0
    return (f"metrics: {total} queries ({paths}), mean {mean_ms:.3f} ms, "
            f"artifact hit ratio {hit_ratio:.2f}, {n_writes} writes, "
            f"{len(session.telemetry.slow_log)} slow-log entries")


def _serve_command(session, line: str,
                   timeout_ms: "float | None" = None) -> bool:
    """Execute one serve-loop command; returns False on quit.

    ``timeout_ms`` installs a cooperative deadline around the command, so
    any query it triggers (including through the convenience methods) is
    cancelled and reported instead of hanging the loop.
    """
    from repro.errors import (
        Deadline,
        QueryTimeoutError,
        ReproError,
        install_deadline,
        restore_deadline,
    )

    parts = line.split()
    command = parts[0].lower()
    deadline = Deadline(timeout_ms) if timeout_ms else None
    token = install_deadline(deadline) if deadline is not None else None
    try:
        if command in ("quit", "exit"):
            return False
        if command == "two-path":
            counting = len(parts) > 1 and parts[1] == "counts"
            result = session.two_path("R", "R", counting=counting)
            memo = "hit" if result.from_memo else "miss"
            print(f"two-path: {result.output_size} pairs in {result.seconds:.6f}s "
                  f"(memo {memo}, strategy {result.strategy}, backend {result.backend})")
        elif command == "star":
            k = int(parts[1]) if len(parts) > 1 else 3
            result = session.star(["R"] * max(k, 1))
            memo = "hit" if result.from_memo else "miss"
            print(f"star({k}): {result.output_size} tuples in {result.seconds:.6f}s "
                  f"(memo {memo})")
        elif command == "ssj":
            c = int(parts[1]) if len(parts) > 1 else 1
            result = session.similarity("R", c=c)
            print(f"ssj(c={c}): {len(result)} similar pairs in "
                  f"{result.timings.get('total', 0.0):.6f}s")
        elif command == "scj":
            result = session.containment("R")
            print(f"scj: {len(result)} containment pairs in "
                  f"{result.timings.get('total', 0.0):.6f}s")
        elif command in ("append", "delete"):
            values = [int(part) for part in parts[1:]]
            if not values or len(values) % 2:
                print(f"usage: {command} x y [x y ...]")
            else:
                pairs = list(zip(values[0::2], values[1::2]))
                getattr(session, command)("R", pairs)
                print(f"{command}: {len(pairs)} rows -> R "
                      f"(version {session.version('R')})")
        elif command == "explain":
            print(session.two_path("R", "R").explain())
        elif command == "stats":
            for key, value in session.cache_stats().items():
                print(f"{key}: {value}")
        elif command == "metrics":
            mode = parts[1].lower() if len(parts) > 1 else "summary"
            if mode in ("prom", "prometheus"):
                print(session.metrics().to_prometheus(), end="")
            elif mode == "json":
                print(session.metrics().to_json())
            else:
                print(_metrics_summary(session))
        elif command == "trace":
            log = session.telemetry.slow_log
            if len(parts) > 1:
                entry = log.get(parts[1])
            else:
                entries = log.entries()
                entry = entries[-1] if entries else None
            if entry is None:
                recorded = ", ".join(e.trace_id for e in log.entries()) or "none"
                print(f"no such trace (recorded: {recorded})")
            else:
                print(entry.format())
        else:
            print(f"unknown command: {line} (expected {SERVE_COMMANDS})")
    except QueryTimeoutError as exc:
        session.telemetry.metrics.inc("repro_deadline_exceeded_total",
                                      kind="cli")
        print(f"error[timeout]: {exc}")
    except ReproError as exc:  # typed serving-path errors keep their name
        print(f"error[{type(exc).__name__}]: {exc}")
    except Exception as exc:  # serving loop must survive bad commands
        print(f"error: {exc}")
    finally:
        if deadline is not None:
            restore_deadline(token)
    return True


def _serve_sample_workload(session, repeat: int) -> None:
    """Cold, warm and memo-served runs — populates every serving-path label."""
    session.two_path("R", "R", use_memo=False)           # cold
    for _ in range(max(int(repeat), 1)):
        session.two_path("R", "R", use_memo=False)       # warm (artifact hits)
    session.two_path("R", "R", use_memo=True)            # memo miss -> stored
    session.two_path("R", "R", use_memo=True)            # memo hit


def _run_metrics(args: argparse.Namespace) -> int:
    from repro.serve import QuerySession

    relation = load_edge_list(args.path)
    config = _config_from_args(args)
    shards = max(int(args.shards), 1)
    with QuerySession(config=config, shards=shards) as session:
        session.register(relation, name="R", sharded=shards > 1)
        _serve_sample_workload(session, args.repeat)
        snapshot = session.metrics()
        if args.format == "json":
            print(snapshot.to_json())
        else:
            print(snapshot.to_prometheus(), end="")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.serve import QuerySession, TelemetryConfig

    relation = load_edge_list(args.path)
    config = _config_from_args(args)
    shards = max(int(args.shards), 1)
    # Threshold 0: every query lands in the slow log, so any trace id from
    # the workload can be replayed.
    telemetry = TelemetryConfig(slow_query_seconds=0.0)
    with QuerySession(config=config, shards=shards, telemetry=telemetry) as session:
        session.register(relation, name="R", sharded=shards > 1)
        _serve_sample_workload(session, args.repeat)
        log = session.telemetry.slow_log
        entries = log.entries()
        if args.id is not None:
            entry = log.get(args.id)
            if entry is None:
                recorded = ", ".join(e.trace_id for e in entries) or "none"
                print(f"no such trace: {args.id} (recorded: {recorded})")
                return 1
        else:
            entry = max(entries, key=lambda e: e.seconds)
        others = ", ".join(e.trace_id for e in entries if e is not entry)
        print(entry.format())
        if others:
            print(f"(other recorded traces: {others})")
    return 0


def _run_ssj(args: argparse.Namespace) -> int:
    family = SetFamily.from_relation(load_edge_list(args.path))
    result = set_similarity_join(family, c=args.overlap, method=args.method)
    rows = [{
        "sets": family.num_sets(),
        "overlap_c": args.overlap,
        "method": args.method,
        "similar_pairs": len(result),
        "seconds": result.timings.get("total", 0.0),
    }]
    print(format_table(rows, title=f"set similarity join over {args.path}"))
    return 0


def _run_scj(args: argparse.Namespace) -> int:
    family = SetFamily.from_relation(load_edge_list(args.path))
    result = set_containment_join(family, method=args.method)
    rows = [{
        "sets": family.num_sets(),
        "method": args.method,
        "containment_pairs": len(result),
        "seconds": result.timings.get("total", 0.0),
    }]
    print(format_table(rows, title=f"set containment join over {args.path}"))
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    from repro.bench.datasets import table2_rows

    rows = table2_rows(scale=args.scale)
    print(format_table(rows, title=f"Table 2 dataset characteristics (scale={args.scale})"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "join": _run_join,
        "explain": _run_explain,
        "session": _run_session,
        "shard": _run_shard,
        "serve": _run_serve,
        "metrics": _run_metrics,
        "trace": _run_trace,
        "ssj": _run_ssj,
        "scj": _run_scj,
        "datasets": _run_datasets,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
