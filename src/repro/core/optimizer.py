"""Cost-based optimizer for MMJoin (Algorithm 3 of the paper).

The optimizer decides, for a given input pair of relations,

* whether to bother partitioning at all — when the full join is no larger
  than ``full_join_factor * |D|`` (the paper uses 20x) the plain
  worst-case-optimal join wins, and
* when partitioning, which degree thresholds ``delta1`` / ``delta2`` minimise
  the estimated total running time.

The estimate combines the degree-statistics indexes of Section 5
(``count``/``sum``/``cdfx``), a handful of per-operation constants
(:class:`CostConstants`, the paper's ``T_s``, ``T_m``, ``T_I``) and the
calibrated matrix-multiplication cost model ``M_hat``.

The search mirrors the paper's: start from ``delta1 = N``, shrink it
geometrically, derive ``delta2 = N * delta1 / |OUT|`` from the balancing
condition, and stop as soon as the estimated total cost stops improving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.core.estimation import estimate_output_size, estimate_star_output_size
from repro.data.indexes import DegreeStatistics
from repro.data.relation import Relation
from repro.matmul.cost_model import MatMulCostModel

# Hard cap on the star grid search, mirroring the two-path search's 200-step
# bound; the power-of-two grid is quadratic in log(max_degree) so this is
# only reached on extremely skewed inputs.
STAR_SEARCH_CAP = 200

# Geometric factor by which the two-path search shrinks ``delta1`` per
# iteration (the paper's ``1 - epsilon``).
THRESHOLD_SHRINK = 0.5


@dataclass(frozen=True)
class CostConstants:
    """Per-operation time constants (seconds), the paper's Table 1.

    ``sequential_access`` is ``T_s`` (std::vector scan), ``allocation`` is
    ``T_m`` (per matrix cell allocated / written), ``random_insert`` is
    ``T_I`` (random access + insert during light-side dedup).
    """

    sequential_access: float = 2.0e-9
    allocation: float = 4.0e-9
    random_insert: float = 5.0e-8


@dataclass(frozen=True)
class OptimizerDecision:
    """The optimizer's verdict for one join.

    ``strategy`` is ``"wcoj"`` (plain worst-case optimal join) or
    ``"mmjoin"`` (light/heavy decomposition with the chosen thresholds).
    """

    strategy: str
    delta1: int
    delta2: int
    estimated_cost: float
    estimated_output: float
    full_join_size: int
    light_cost: float = 0.0
    heavy_cost: float = 0.0
    search_steps: int = 0


@dataclass
class CostBasedOptimizer:
    """Chooses evaluation strategy and degree thresholds (paper Algorithm 3)."""

    config: MMJoinConfig = DEFAULT_CONFIG
    constants: CostConstants = field(default_factory=CostConstants)
    matmul_model: MatMulCostModel = field(default_factory=MatMulCostModel)

    # ------------------------------------------------------------------ #
    # Two-path query
    # ------------------------------------------------------------------ #
    def choose_two_path(self, left: Relation, right: Relation) -> OptimizerDecision:
        """Pick the strategy and thresholds for ``pi_{x,z}(R |><| S)``."""
        n = max(len(left), len(right), 1)
        estimate = estimate_output_size(left, right)
        out_join = estimate.full_join_size
        if out_join <= self.config.full_join_factor * n:
            return OptimizerDecision(
                strategy="wcoj",
                delta1=0,
                delta2=0,
                estimated_cost=self._wcoj_cost(out_join, n),
                estimated_output=estimate.estimate,
                full_join_size=out_join,
            )

        stats_left = DegreeStatistics.from_relation(left)
        stats_right = DegreeStatistics.from_relation(right)
        out_estimate = max(estimate.estimate, 1.0)

        best: Optional[Tuple[float, int, int, float, float]] = None
        prev_total = float("inf")
        delta1 = float(max(stats_left.y_index.max_degree(), stats_right.y_index.max_degree(), 1))
        steps = 0
        while delta1 >= 1.0 and steps < 200:
            steps += 1
            delta2 = max(n * delta1 / out_estimate, 1.0)
            light = self._light_cost(stats_left, stats_right, delta1, delta2)
            heavy = self._heavy_cost(stats_left, stats_right, delta1, delta2)
            total = light + heavy
            if best is None or total < best[0]:
                best = (total, int(round(delta1)), int(round(delta2)), light, heavy)
            if total > prev_total:
                # Cost started growing again: the previous iterate was the minimum.
                break
            prev_total = total
            delta1 *= THRESHOLD_SHRINK

        assert best is not None
        total, d1, d2, light, heavy = best
        wcoj_cost = self._wcoj_cost(out_join, n)
        if wcoj_cost <= total:
            return OptimizerDecision(
                strategy="wcoj",
                delta1=0,
                delta2=0,
                estimated_cost=wcoj_cost,
                estimated_output=out_estimate,
                full_join_size=out_join,
                search_steps=steps,
            )
        return OptimizerDecision(
            strategy="mmjoin",
            delta1=max(d1, 1),
            delta2=max(d2, 1),
            estimated_cost=total,
            estimated_output=out_estimate,
            full_join_size=out_join,
            light_cost=light,
            heavy_cost=heavy,
            search_steps=steps,
        )

    # ------------------------------------------------------------------ #
    # Star query
    # ------------------------------------------------------------------ #
    def choose_star(self, relations: Sequence[Relation]) -> OptimizerDecision:
        """Pick the strategy and thresholds for the star query.

        The cost formula of Section 3.2 —
        ``N * delta1^(k-1) + |OUT| * delta2 + M((N/delta2)^ceil(k/2), N/delta1,
        (N/delta2)^floor(k/2))`` — is minimised by a coarse grid search over
        power-of-two thresholds, which is sufficient because the formula is
        smooth and the thresholds only enter logarithmically.
        """
        k = len(relations)
        n = max((len(r) for r in relations), default=1)
        estimate = estimate_star_output_size(relations)
        out_join = estimate.full_join_size
        if out_join <= self.config.full_join_factor * n or k < 2:
            return OptimizerDecision(
                strategy="wcoj",
                delta1=0,
                delta2=0,
                estimated_cost=self._wcoj_cost(out_join, n),
                estimated_output=estimate.estimate,
                full_join_size=out_join,
            )
        out_estimate = max(estimate.estimate, 1.0)
        max_degree = max(int(rel.csr_y().degrees.max(initial=1)) for rel in relations)
        candidates = _power_of_two_grid(max_degree)
        best: Optional[Tuple[float, int, int]] = None
        seen: set = set()
        steps = 0
        capped = False
        for delta1 in candidates:
            prev_total = float("inf")
            for delta2 in candidates:
                # The grid may repeat values (and callers may register custom
                # grids); evaluate each (delta1, delta2) pair exactly once.
                pair = (delta1, delta2)
                if pair in seen:
                    continue
                seen.add(pair)
                if steps >= STAR_SEARCH_CAP:
                    capped = True
                    break
                steps += 1
                light = float(n) * (float(delta1) ** (k - 1)) * self.constants.random_insert
                head = out_estimate * float(delta2) * self.constants.random_insert
                rows = (n / delta2) ** ((k + 1) // 2)
                cols = (n / delta2) ** (k // 2)
                mids = n / delta1
                heavy = self.matmul_model.estimate(
                    int(max(rows, 1)), int(max(mids, 1)), int(max(cols, 1)),
                    cores=self.config.cores,
                ) + self.matmul_model.estimate_construction(
                    int(max(rows, 1)), int(max(mids, 1)), int(max(cols, 1)),
                    cores=self.config.cores,
                )
                total = light + head + heavy
                if best is None or total < best[0]:
                    best = (total, delta1, delta2)
                if total > prev_total:
                    # Cost started growing again along this delta2 row; the
                    # previous iterate was the row minimum (the early-exit
                    # mirror of the two-path search).
                    break
                prev_total = total
            if capped:
                break
        assert best is not None
        total, d1, d2 = best
        return OptimizerDecision(
            strategy="mmjoin",
            delta1=d1,
            delta2=d2,
            estimated_cost=total,
            estimated_output=out_estimate,
            full_join_size=out_join,
            search_steps=steps,
        )

    # ------------------------------------------------------------------ #
    # Cost terms
    # ------------------------------------------------------------------ #
    def _wcoj_cost(self, full_join_size: int, n: int) -> float:
        """Cost of the plain worst-case optimal join + dedup."""
        return (full_join_size + n) * self.constants.random_insert

    def _light_cost(
        self,
        stats_left: DegreeStatistics,
        stats_right: DegreeStatistics,
        delta1: float,
        delta2: float,
    ) -> float:
        """Estimated cost of the light sub-joins (paper line 10-11 of Alg. 3).

        ``sum(y_delta1)`` bounds the expansions caused by light witnesses,
        ``sum(x_delta2)`` the tuples incident to light head values (each of
        which is expanded at most ``delta1``-fold on the other side), and
        ``cdfx(y_delta1)`` the per-tuple scanning effort.
        """
        c = self.constants
        light_witness_work = stats_left.sum_y(delta1) + stats_right.sum_y(delta1)
        light_head_work = (
            stats_left.sum_x(delta2) + stats_right.sum_x(delta2)
        ) * max(delta1, 1.0)
        scan_work = stats_left.cdfx_y(delta1) + stats_right.cdfx_y(delta1)
        alloc_work = stats_left.domain_x + stats_right.domain_x
        return (
            c.random_insert * (light_witness_work + light_head_work)
            + c.sequential_access * scan_work
            + c.allocation * alloc_work
        )

    def _heavy_cost(
        self,
        stats_left: DegreeStatistics,
        stats_right: DegreeStatistics,
        delta1: float,
        delta2: float,
    ) -> float:
        """Estimated cost of the heavy matrix product (paper line 12-13)."""
        u = stats_left.heavy_x_count(delta2)
        v = max(stats_left.heavy_y_count(delta1), stats_right.heavy_y_count(delta1))
        w = stats_right.heavy_x_count(delta2)
        if min(u, v, w) == 0:
            return 0.0
        multiply = self.matmul_model.estimate(u, v, w, cores=self.config.cores)
        construct = self.matmul_model.estimate_construction(u, v, w, cores=self.config.cores)
        return multiply + construct


def _power_of_two_grid(max_value: int) -> List[int]:
    """Powers of two from 1 up to (and including one past) ``max_value``."""
    grid = [1]
    while grid[-1] < max(int(max_value), 1):
        grid.append(grid[-1] * 2)
    return grid
