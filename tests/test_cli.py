"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.data.loaders import save_edge_list
from repro.data.relation import Relation


@pytest.fixture
def edge_file(tmp_path, tiny_relation):
    path = tmp_path / "edges.txt"
    save_edge_list(tiny_relation, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self):
        args = build_parser().parse_args(["join", "file.txt"])
        assert args.command == "join"
        assert args.delta1 is None and args.backend == "auto"

    def test_ssj_options(self):
        args = build_parser().parse_args(["ssj", "f.txt", "-c", "3", "--method", "sizeaware"])
        assert args.overlap == 3 and args.method == "sizeaware"

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scj", "f.txt", "--method", "bogus"])

    def test_join_engine_flag(self):
        args = build_parser().parse_args(["join", "f.txt", "--engine", "non-mmjoin"])
        assert args.engine == "non-mmjoin"

    def test_join_engine_default_mmjoin(self):
        assert build_parser().parse_args(["join", "f.txt"]).engine == "mmjoin"

    def test_join_invalid_engine_rejected(self):
        for engine in ("oracle", "postgres"):  # the DBMS stand-ins are gone
            with pytest.raises(SystemExit):
                build_parser().parse_args(["join", "f.txt", "--engine", engine])

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain", "f.txt"])
        assert args.command == "explain"
        assert args.query == "two-path" and args.backend == "auto"

    def test_explain_star_options(self):
        args = build_parser().parse_args(["explain", "f.txt", "--query", "star", "--k", "2"])
        assert args.query == "star" and args.k == 2

    def test_join_shards_flag(self):
        args = build_parser().parse_args(["join", "f.txt", "--shards", "4"])
        assert args.shards == 4
        assert build_parser().parse_args(["join", "f.txt"]).shards == 1

    def test_extract_mode_flag(self):
        for mode in ("auto", "full", "tiled", "adaptive", "core"):
            args = build_parser().parse_args(
                ["join", "f.txt", "--extract-mode", mode])
            assert args.extract_mode == mode
        assert build_parser().parse_args(["join", "f.txt"]).extract_mode == "auto"
        assert build_parser().parse_args(
            ["explain", "f.txt", "--extract-mode", "core"]).extract_mode == "core"

    def test_invalid_extract_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["join", "f.txt", "--extract-mode", "bogus"])

    def test_shard_defaults(self):
        args = build_parser().parse_args(["shard", "f.txt"])
        assert args.command == "shard"
        assert args.shards == 4 and args.repeat == 2

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics", "f.txt"])
        assert args.command == "metrics"
        assert args.format == "prometheus" and args.shards == 1

    def test_metrics_invalid_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "f.txt", "--format", "xml"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "f.txt"])
        assert args.command == "trace"
        assert args.id is None and args.repeat == 1

    def test_serve_slow_ms_flag(self):
        assert build_parser().parse_args(["serve", "f.txt"]).slow_ms == 0.0
        args = build_parser().parse_args(["serve", "f.txt", "--slow-ms", "250"])
        assert args.slow_ms == 250.0


class TestCommands:
    def test_join_command(self, edge_file, capsys):
        assert main(["join", edge_file]) == 0
        out = capsys.readouterr().out
        assert "output_pairs" in out and "strategy" in out

    def test_join_with_thresholds(self, edge_file, capsys):
        assert main(["join", edge_file, "--delta1", "2", "--delta2", "2"]) == 0
        assert "mmjoin" in capsys.readouterr().out

    def test_join_no_optimizer(self, edge_file, capsys):
        assert main(["join", edge_file, "--no-optimizer"]) == 0
        assert "wcoj" in capsys.readouterr().out

    def test_ssj_command(self, edge_file, capsys):
        assert main(["ssj", edge_file, "-c", "1"]) == 0
        assert "similar_pairs" in capsys.readouterr().out

    def test_scj_command(self, edge_file, capsys):
        assert main(["scj", edge_file, "--method", "pretti"]) == 0
        assert "containment_pairs" in capsys.readouterr().out

    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "dblp" in out and "image" in out

    def test_join_with_engine(self, edge_file, capsys):
        assert main(["join", edge_file, "--engine", "non-mmjoin"]) == 0
        out = capsys.readouterr().out
        assert "non-mmjoin" in out and "output_pairs" in out

    def test_explain_command(self, edge_file, capsys):
        assert main(["explain", edge_file, "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        # The plan names the strategy, thresholds, backend and every operator.
        assert "strategy: mmjoin" in out
        assert "delta1:   2" in out
        assert "backend:" in out
        for operator in ("semijoin_reduce", "light_heavy_partition",
                         "combinatorial_light", "matmul_heavy", "dedup_merge"):
            assert operator in out

    def test_explain_star_command(self, edge_file, capsys):
        assert main(["explain", edge_file, "--query", "star", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "plan for star join-project" in out
        assert "semijoin_reduce" in out

    def test_explain_with_backend(self, edge_file, capsys):
        assert main(["explain", edge_file, "--delta1", "1", "--delta2", "1",
                     "--backend", "sparse"]) == 0
        assert "sparse" in capsys.readouterr().out

    def test_join_sharded(self, edge_file, capsys):
        assert main(["join", edge_file, "--shards", "3",
                     "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded" in out and "shards_executed" in out

    def test_shard_command(self, edge_file, capsys):
        assert main(["shard", edge_file, "--shards", "3",
                     "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        # Layout table, per-shard plan breakdown and cumulative hit rates.
        assert "shard layout" in out
        assert "hash" in out
        assert "cache h/m" in out
        assert "per-shard operator cache hit rates" in out
        assert "router:" in out

    def test_session_command(self, edge_file, capsys):
        assert main(["session", edge_file, "--repeat", "2",
                     "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "operator_cache_hits" in out
        assert "artifact cache:" in out and "feedback:" in out
        rows = {line.split("|")[0].strip(): line for line in out.splitlines()
                if "|" in line}
        # The cold run executes; every warm run serves from the memo.
        assert "miss" in rows["cold"]
        assert "hit" in rows["warm1"] and "hit" in rows["warm2"]

    def test_session_no_memo_shows_operator_hits(self, edge_file, capsys):
        assert main(["session", edge_file, "--repeat", "1", "--no-memo",
                     "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        # Without the memo every run executes; the warm run hits the
        # semijoin/partition/operand caches instead.
        assert "estimated vs actual operator cost" in out

    def test_serve_command_script(self, edge_file, capsys, tmp_path):
        script = tmp_path / "commands.txt"
        script.write_text(
            "# warm-up\ntwo-path\ntwo-path\nstar 2\nssj 1\nscj\nstats\nnope\nquit\n",
            encoding="utf-8",
        )
        assert main(["serve", edge_file, "--script", str(script),
                     "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "serving R" in out
        assert "two-path:" in out and "memo hit" in out
        assert "star(2):" in out
        assert "ssj(c=1):" in out and "scj:" in out
        assert "queries_served" in out
        assert "unknown command: nope" in out

    def test_serve_command_stdin(self, edge_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("two-path\nexplain\nquit\n"))
        assert main(["serve", edge_file, "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "two-path:" in out and "strategy: mmjoin" in out

    def test_metrics_command_prometheus(self, edge_file, capsys):
        assert main(["metrics", edge_file, "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert 'repro_queries_total{kind="two_path",path="cold"}' in out
        assert 'repro_queries_total{kind="two_path",path="memo"} 1' in out
        assert "# TYPE repro_query_seconds histogram" in out
        assert 'le="+Inf"' in out

    def test_metrics_command_json(self, edge_file, capsys):
        import json

        assert main(["metrics", edge_file, "--format", "json",
                     "--delta1", "2", "--delta2", "2"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["repro_queries_total"]["kind"] == "counter"

    def test_metrics_command_sharded(self, edge_file, capsys):
        assert main(["metrics", edge_file, "--shards", "2",
                     "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "repro_shard_subplan_seconds" in out

    def test_trace_command_prints_span_tree(self, edge_file, capsys):
        assert main(["trace", edge_file, "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "slow query t" in out
        assert "two_path" in out and "plan" in out
        assert "explain:" in out

    def test_trace_command_by_id(self, edge_file, capsys):
        # The sample workload always runs a cold query first, so t000001 exists.
        assert main(["trace", edge_file, "--id", "t000001",
                     "--delta1", "2", "--delta2", "2"]) == 0
        assert "slow query t000001" in capsys.readouterr().out

    def test_trace_command_unknown_id(self, edge_file, capsys):
        assert main(["trace", edge_file, "--id", "bogus",
                     "--delta1", "2", "--delta2", "2"]) == 1
        out = capsys.readouterr().out
        assert "no such trace: bogus" in out and "recorded:" in out

    def test_serve_metrics_and_trace_commands(self, edge_file, capsys, tmp_path):
        script = tmp_path / "commands.txt"
        script.write_text(
            "two-path\nappend 9 9\ntwo-path\nmetrics\nmetrics prom\n"
            "trace t000001\ntrace\ntrace nope\nquit\n",
            encoding="utf-8",
        )
        assert main(["serve", edge_file, "--script", str(script),
                     "--delta1", "2", "--delta2", "2"]) == 0
        out = capsys.readouterr().out
        assert "metrics [prom|json] | trace [id]" in out  # banner lists them
        assert "queries (" in out                         # one-line summary
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_writes_total" in out
        assert "slow query t000001" in out
        assert "no such trace" in out
        # The exit summary fires even after quit.
        assert out.rstrip().splitlines()[-1].startswith("metrics:")


def test_setup_py_carries_the_package_metadata():
    """``setup.py`` is the only packaging file: it must name the package
    (a bare ``setup()`` answers ``UNKNOWN`` and installs nothing)."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=root, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert out == ["repro", repro.__version__]
