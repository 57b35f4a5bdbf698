"""MMJoin for the 2-path query (Algorithm 1 of the paper).

``two_path_join`` computes ``pi_{x,z}( R(x,y) |><| S(z,y) )``; the actual
orchestration — semijoin reduction, the optimizer's strategy choice, the
light/heavy partition, the combinatorial light join, the matrix-product
heavy join and the final dedup-merge — lives in the shared planner pipeline
(:mod:`repro.plan.planner` composing the :mod:`repro.exec.operators`).
Each entry point evaluates its query once in a throwaway serving session and
returns that session's :class:`~repro.serve.session.SessionResult`: the
result block, ``pairs`` / ``counts`` as lazy views, and the plan's
``explanation`` (strategy, thresholds, backend, per-operator detail).

``two_path_join_counts`` is the witness-counting variant used by the set
similarity application: the join variable alone is partitioned so that every
witness is counted exactly once — light witnesses by combinatorial counting,
heavy witnesses by the matrix product (whose entries *are* the counts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.data.relation import Relation
from repro.plan.query import JoinProjectQuery, TwoPathQuery

if TYPE_CHECKING:
    from repro.serve.session import SessionResult


def evaluate_once(query: JoinProjectQuery, config: MMJoinConfig) -> SessionResult:
    """Evaluate ``query`` in a throwaway session; returns its ``SessionResult``.

    Same pipeline as serving, with no memoization, the process-wide backend
    registry (so runtime-registered custom backends resolve) and no feedback
    mutation of shared state.
    """
    from repro.matmul.registry import default_registry
    from repro.serve.session import QuerySession

    with QuerySession(config=config, registry=default_registry(), feedback=False) as session:
        return session.evaluate(query, use_memo=False)


def two_path_join(
    left: Relation,
    right: Relation,
    config: MMJoinConfig = DEFAULT_CONFIG,
) -> SessionResult:
    """Compute the projected 2-path join; returns a ``SessionResult``.

    Explicit ``config.delta1`` / ``delta2`` override the optimizer;
    ``use_optimizer=False`` with no thresholds forces the plain
    combinatorial evaluation.
    """
    return evaluate_once(TwoPathQuery(left=left, right=right), config)


def two_path_join_counts(
    left: Relation,
    right: Relation,
    config: MMJoinConfig = DEFAULT_CONFIG,
) -> SessionResult:
    """The projected 2-path join with exact witness counts (``result.counts``)."""
    return evaluate_once(TwoPathQuery(left=left, right=right, counting=True), config)
