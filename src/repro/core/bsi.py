"""Boolean set intersection with request batching (Section 3.3 / 7.5).

The workload consists of boolean queries ``Q_ab() = R(a, y), S(b, y)`` — does
set ``a`` of family R intersect set ``b`` of family S? — arriving at ``B``
queries per time unit.  Answering each query in isolation costs ``O(N)``
worst case; the paper's observation is that batching ``C`` queries into a
single relation ``T(x, z)`` and evaluating

``Q_batch(x, z) = R(x, y), S(z, y), T(x, z)``

with the join-project machinery amortises the cost: latency becomes
``C / B`` (time to fill the batch) plus the per-batch processing time divided
over the batch, and far fewer processing units are needed (Proposition 2).

:class:`BooleanSetIntersection` answers single queries and batches;
:class:`BSIBatchScheduler` simulates the arrival process for a whole workload
and reports the average-delay / machine-count trade-off the paper plots in
Figure 6.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.core.two_path import two_path_join
from repro.data.relation import Relation
from repro.joins.baseline import combinatorial_two_path_filtered
from repro.joins.leapfrog import intersect_sorted

Pair = Tuple[int, int]


@dataclass
class BSIBatchResult:
    """Outcome of evaluating one batch of boolean queries."""

    answers: Dict[Pair, bool]
    processing_seconds: float
    method: str
    batch_size: int

    def positive_pairs(self) -> Set[Pair]:
        """Pairs whose sets do intersect."""
        return {pair for pair, value in self.answers.items() if value}


@dataclass
class BSIWorkloadResult:
    """Aggregate metrics over a whole simulated workload (paper Figure 6)."""

    batch_size: int
    arrival_rate: float
    num_queries: int
    average_delay: float
    average_processing: float
    processing_units: int
    method: str
    per_batch_seconds: List[float] = field(default_factory=list)


class BooleanSetIntersection:
    """Boolean set intersection over two set families R(x, y) and S(z, y)."""

    def __init__(
        self,
        left: Relation,
        right: Relation,
        config: MMJoinConfig = DEFAULT_CONFIG,
    ) -> None:
        self.left = left
        self.right = right
        self.config = config

    # ------------------------------------------------------------------ #
    # Single-query evaluation
    # ------------------------------------------------------------------ #
    def query(self, a: int, b: int) -> bool:
        """Answer one boolean query ``Q_ab`` by intersecting the two sets."""
        ys_a = self.left.neighbors_x(int(a))
        ys_b = self.right.neighbors_x(int(b))
        return bool(intersect_sorted(ys_a, ys_b).size)

    def query_intersection(self, a: int, b: int) -> np.ndarray:
        """The modified query ``Q̄_ab(y)``: return the actual intersection."""
        ys_a = self.left.neighbors_x(int(a))
        ys_b = self.right.neighbors_x(int(b))
        return intersect_sorted(ys_a, ys_b)

    # ------------------------------------------------------------------ #
    # Batched evaluation
    # ------------------------------------------------------------------ #
    def answer_batch(
        self,
        batch: Sequence[Pair],
        use_mmjoin: bool = True,
    ) -> BSIBatchResult:
        """Evaluate a batch of boolean queries at once.

        The batch relation ``T(x, z)`` filters R and S down to the relevant
        sets; the filtered pair is then evaluated with the MMJoin two-path
        algorithm (``use_mmjoin=True``) or the combinatorial intersection
        baseline (``use_mmjoin=False``), and each batch pair is looked up in
        the result.
        """
        start = time.perf_counter()
        pairs = [(int(a), int(b)) for a, b in batch]
        if not pairs:
            return BSIBatchResult(answers={}, processing_seconds=0.0,
                                  method="mmjoin" if use_mmjoin else "combinatorial",
                                  batch_size=0)
        wanted_a = {a for a, _ in pairs}
        wanted_b = {b for _, b in pairs}
        left_filtered = self.left.restrict_x(wanted_a, name=f"{self.left.name}|T")
        right_filtered = self.right.restrict_x(wanted_b, name=f"{self.right.name}|T")

        if use_mmjoin:
            # The result block is in canonical order: one binary search per pair.
            block = two_path_join(left_filtered, right_filtered,
                                  config=self.config).result_block
            answers = {pair: block.find(pair) >= 0 for pair in pairs}
            method = "mmjoin"
        else:
            positives = combinatorial_two_path_filtered(left_filtered, right_filtered, pairs)
            answers = {pair: pair in positives for pair in pairs}
            method = "combinatorial"
        return BSIBatchResult(
            answers=answers,
            processing_seconds=time.perf_counter() - start,
            method=method,
            batch_size=len(pairs),
        )


class BSIBatchScheduler:
    """Simulates a stream of BSI queries served in batches (paper Section 7.5)."""

    def __init__(
        self,
        left: Relation,
        right: Relation,
        arrival_rate: float = 1000.0,
        config: MMJoinConfig = DEFAULT_CONFIG,
    ) -> None:
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        self.engine = BooleanSetIntersection(left, right, config=config)
        self.arrival_rate = float(arrival_rate)

    def generate_workload(self, num_queries: int, seed: int = 0) -> List[Pair]:
        """Sample query pairs uniformly at random (the paper's workload)."""
        rng = np.random.default_rng(seed)
        left_ids = self.engine.left.x_values()
        right_ids = self.engine.right.x_values()
        if left_ids.size == 0 or right_ids.size == 0:
            return []
        a = rng.choice(left_ids, size=num_queries)
        b = rng.choice(right_ids, size=num_queries)
        return [(int(x), int(z)) for x, z in zip(a, b)]

    def run(
        self,
        workload: Sequence[Pair],
        batch_size: int,
        use_mmjoin: bool = True,
    ) -> BSIWorkloadResult:
        """Serve the workload in fixed-size batches and report average delay.

        The delay of a query is the time it waits for its batch to fill
        (``position_in_batch / arrival_rate`` averaged to ``C / (2B)``) plus
        the batch processing time.  The number of processing units needed to
        keep up is ``ceil(processing_time * arrival_rate / batch_size)``.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        per_batch: List[float] = []
        total_delay = 0.0
        num_queries = len(workload)
        for lo in range(0, num_queries, batch_size):
            batch = workload[lo : lo + batch_size]
            outcome = self.engine.answer_batch(batch, use_mmjoin=use_mmjoin)
            per_batch.append(outcome.processing_seconds)
            # Every query in the batch waits for the batch to fill, then for
            # the batch to be processed.
            fill_wait = len(batch) / (2.0 * self.arrival_rate)
            total_delay += (fill_wait + outcome.processing_seconds) * len(batch)
        if not per_batch or num_queries == 0:
            return BSIWorkloadResult(
                batch_size=batch_size, arrival_rate=self.arrival_rate,
                num_queries=0, average_delay=0.0, average_processing=0.0,
                processing_units=0, method="mmjoin" if use_mmjoin else "combinatorial",
            )
        avg_processing = float(np.mean(per_batch))
        processing_units = max(
            int(math.ceil(avg_processing * self.arrival_rate / batch_size)), 1
        )
        return BSIWorkloadResult(
            batch_size=batch_size,
            arrival_rate=self.arrival_rate,
            num_queries=num_queries,
            average_delay=total_delay / num_queries,
            average_processing=avg_processing,
            processing_units=processing_units,
            method="mmjoin" if use_mmjoin else "combinatorial",
            per_batch_seconds=per_batch,
        )

    def sweep_batch_sizes(
        self,
        workload: Sequence[Pair],
        batch_sizes: Iterable[int],
        use_mmjoin: bool = True,
    ) -> List[BSIWorkloadResult]:
        """Run the workload for several batch sizes (the Figure 6 sweep)."""
        return [
            self.run(workload, batch_size=size, use_mmjoin=use_mmjoin)
            for size in batch_sizes
        ]


def theoretical_latency(n: int, arrival_rate: float, batch_size: int) -> float:
    """Average latency predicted by Section 3.3: ``N/C^(2/3) + C/B`` (omega=2)."""
    c = max(float(batch_size), 1.0)
    return float(n) / (c ** (2.0 / 3.0)) + c / float(arrival_rate)


def optimal_batch_size(n: int, arrival_rate: float) -> float:
    """Latency-minimising batch size ``C = (B * N)^(3/5)`` from Proposition 2."""
    return (float(arrival_rate) * float(n)) ** (3.0 / 5.0)


def machines_needed(n: int, arrival_rate: float) -> float:
    """Processing units required by Proposition 2: ``(B * N)^(3/5)``."""
    return (float(arrival_rate) * float(n)) ** (3.0 / 5.0)
