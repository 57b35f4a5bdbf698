"""Golden snapshot tests for ``explain()`` output.

Plan shape — which operators ran, the strategy, thresholds, backend, matrix
dimensions, partition sizes, memory accounting and (for session runs) the
cache hit/miss columns — is deterministic for fixed inputs and explicit
configs.  These tests normalise away the only volatile values (wall-clock
seconds and estimated costs, i.e. anything printed as a float) and compare
the rest against checked-in golden files, so a plan or cost-model regression
shows up as a readable diff.

Regenerate after an intended change with ``pytest --update-goldens``.
"""

from __future__ import annotations

import re

from strategies import random_relation, skewed_random_relation

from repro.core.config import MMJoinConfig
from repro.core.star import star_join
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.serve import QuerySession

# Any float-formatted number (plain or scientific) is volatile timing/cost.
# Leading spaces/tabs are absorbed too: the explain() table right-aligns its
# float columns, so the padding width varies with the float's rendering.
_VOLATILE = re.compile(
    r"[ \t]*(?:-?\d+\.\d+(?:e[+-]?\d+)?|-?\d+e[+-]?\d+)", re.IGNORECASE
)


def normalize(text: str) -> str:
    """Mask float-formatted values; integer facts (sizes, dims, bytes) stay."""
    return _VOLATILE.sub(" <float>", text)


def _left():
    return random_relation(7, n_pairs=150, x_domain=20, y_domain=12, name="R")


def _right():
    return random_relation(8, n_pairs=150, x_domain=20, y_domain=12, name="S")


def test_normalize_masks_floats_keeps_ints():
    masked = normalize("cost:   0.00123 s dims (3, 4, 5) 1.2e-07 bytes 4096")
    assert masked == "cost: <float> s dims (3, 4, 5) <float> bytes 4096"


def test_explain_two_path_dense_golden(golden):
    config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")
    result = two_path_join(_left(), _right(), config=config)
    golden("explain_two_path_dense", normalize(result.explanation.format()))


def test_explain_two_path_counts_sparse_golden(golden):
    config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="sparse")
    result = two_path_join_counts(_left(), _right(), config=config)
    golden("explain_two_path_counts_sparse", normalize(result.explanation.format()))


def test_explain_two_path_wcoj_golden(golden):
    config = MMJoinConfig(matrix_backend="dense").without_optimizer()
    result = two_path_join(_left(), _right(), config=config)
    golden("explain_two_path_wcoj", normalize(result.explanation.format()))


def test_explain_star_dense_golden(golden):
    relations = [
        skewed_random_relation(seed, n_pairs=90, x_domain=10, y_domain=8,
                               name=f"R{seed}")
        for seed in (1, 2, 3)
    ]
    config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")
    result = star_join(relations, config=config)
    golden("explain_star_dense", normalize(result.explanation.format()))


def test_explain_session_warm_golden(golden):
    """The warm-path explanation: every operator cache column reads ``hit``."""
    config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")
    with QuerySession(config=config, feedback=False) as session:
        session.register(_left(), name="R")
        session.register(_right(), name="S")
        session.two_path("R", "S", use_memo=False)
        warm = session.two_path("R", "S", use_memo=False)
    explanation = warm.explanation
    assert explanation is not None
    caches = {op.operator: op.detail.get("cache") for op in explanation.operators}
    assert caches["semijoin_reduce"] == "hit"
    assert caches["light_heavy_partition"] == "hit"
    assert caches["matmul_heavy"] == "hit"
    golden("explain_session_warm", normalize(explanation.format()))


def test_explain_sharded_golden(golden):
    """The rolled-up sharded explanation: per-shard breakdown, warm hits."""
    config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")
    left = skewed_random_relation(11, n_pairs=200, x_domain=20, y_domain=14,
                                  name="R")
    right = skewed_random_relation(12, n_pairs=200, x_domain=20, y_domain=14,
                                   name="S")
    with QuerySession(config=config, feedback=False, shards=3) as session:
        session.register(left, name="R", sharded=True)
        session.register(right, name="S", sharded=True)
        session.two_path("R", "S", use_memo=False)
        warm = session.two_path("R", "S", use_memo=False)
    explanation = warm.explanation
    assert explanation is not None
    assert explanation.strategy == "sharded"
    assert explanation.shard_reports
    golden("explain_sharded_warm", normalize(explanation.format()))
