"""Shared mutable state threaded through the physical operators.

A :class:`~repro.plan.planner.PhysicalPlan` owns one :class:`ExecutionState`
per execution; each operator reads the fields earlier operators populated and
writes its own.  Results move between operators exclusively as blocks
(:class:`~repro.data.pairblock.PairBlock`, and
:class:`~repro.data.pairblock.CountedPairBlock` under MODE_COUNTS; packed
keys under :attr:`ExecutionState.layout` between the phases, columns once
``DedupMerge`` has run).  The state holds no Python set or dict: the
finished ``result_block`` / ``result_counted`` are handed to the session's
:class:`~repro.serve.session.SessionResult`, whose lazy ``pairs`` /
``counts`` views build tuples on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.core.optimizer import OptimizerDecision
from repro.data.pairblock import CountedPairBlock, KeyLayout, PairBlock
from repro.data.relation import Relation

# Execution modes: which variant of the pipeline the operators run.
MODE_PAIRS = "pairs"      # set-semantics two-path (Algorithm 1)
MODE_COUNTS = "counts"    # witness-counting two-path (SSJ/SCJ substrate)
MODE_STAR = "star"        # k-ary star query (Section 3.2)


@dataclass
class CountingPartition:
    """Witness-only partition used by the counting two-path pipeline.

    A witness ``y`` is heavy when its degree exceeds ``delta1`` in *both*
    relations; the two witness populations are disjoint so light and heavy
    counts add up exactly.
    """

    heavy_y: np.ndarray
    light_y: np.ndarray
    delta1: int


@dataclass
class ExecutionState:
    """Everything the operators of one plan execution share."""

    config: MMJoinConfig = DEFAULT_CONFIG
    mode: str = MODE_PAIRS
    relations: List[Relation] = field(default_factory=list)

    # Session context (duck-typed ``repro.serve.session.SessionContext``):
    # operators consult its artifact caches and persistent executor when
    # present, and fall back to stateless evaluation when ``None``.
    session: Optional[Any] = None

    # Shard id when this state belongs to one shard's subplan of a sharded
    # execution (labels the subplan's explanation); None when unsharded.
    shard: Optional[int] = None

    # Populated by SemijoinReduce: the one packed-key layout of this
    # execution's head tuples, shared by every block the phases exchange
    # (None when the head ranges do not fit a key; blocks then stay columns).
    layout: Optional[KeyLayout] = None

    # Populated by LightHeavyPartition.
    decision: Optional[OptimizerDecision] = None
    strategy: str = "mmjoin"
    partition: Any = None
    fallback_combinatorial: bool = False
    delta1: int = 0
    delta2: int = 0

    # Populated by CombinatorialLight / MatMulHeavy (columnar, deduplicated
    # per phase; the two phases may still overlap with each other).
    light_block: PairBlock = field(default_factory=PairBlock.empty)
    heavy_block: PairBlock = field(default_factory=PairBlock.empty)
    light_counted: CountedPairBlock = field(default_factory=CountedPairBlock.empty)
    heavy_counted: CountedPairBlock = field(default_factory=CountedPairBlock.empty)
    matrix_dims: Tuple[int, int, int] = (0, 0, 0)
    backend_name: str = "dense"

    # Populated by DedupMerge (or by SemijoinReduce on empty inputs).
    result_block: Optional[PairBlock] = None
    result_counted: Optional[CountedPairBlock] = None

    # Control flow and bookkeeping.
    done: bool = False
    timings: Dict[str, float] = field(default_factory=dict)

    def finish_empty(self) -> None:
        """Short-circuit the pipeline with an empty result (dangling inputs)."""
        self.done = True
        self.strategy = "wcoj"
        self.result_block = PairBlock.empty()
        if self.mode == MODE_COUNTS:
            self.result_counted = CountedPairBlock.empty()

    @property
    def with_counts(self) -> bool:
        return self.mode == MODE_COUNTS

    @property
    def output_size(self) -> int:
        """Number of distinct output tuples (no set materialisation)."""
        if self.result_block is None:
            return 0
        return len(self.result_block)
