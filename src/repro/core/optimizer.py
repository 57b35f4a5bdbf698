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
The whole geometric grid is priced in one array pass — vector
``searchsorted`` reads of the degree indexes and one matrix-model call over
the grid points whose heavy product is non-empty — and the stop rule then
picks the same step the paper's loop would.  A self-join shares one set of
degree statistics between its two sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.core.estimation import estimate_output_size, estimate_star_output_size
from repro.data.indexes import DegreeStatistics
from repro.data.relation import Relation
from repro.matmul.cost_model import MatMulCostModel

# Hard cap on the threshold searches (two-path grid steps, star grid pairs);
# the star's power-of-two grid is quadratic in log(max_degree) so the cap is
# only reached there on extremely skewed inputs.
SEARCH_CAP = 200

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
        stats_right = stats_left if right is left else DegreeStatistics.from_relation(right)
        out_estimate = max(estimate.estimate, 1.0)

        top = float(max(stats_left.y_index.max_degree(), stats_right.y_index.max_degree(), 1))
        grid = np.cumprod(np.r_[top, np.full(SEARCH_CAP - 1, THRESHOLD_SHRINK)])
        delta1 = grid[grid >= 1.0]
        delta2 = np.maximum(n * delta1 / out_estimate, 1.0)
        light, heavy = self._grid_costs(stats_left, stats_right, delta1, delta2)
        totals = light + heavy
        # The search stops at the first step whose cost exceeds the previous
        # one; the best step is the first minimum among those evaluated.
        rises = np.flatnonzero(totals[1:] > totals[:-1])
        steps = int(rises[0]) + 2 if rises.size else int(totals.size)
        best = int(np.argmin(totals[:steps]))
        total = float(totals[best])
        d1, d2 = int(round(float(delta1[best]))), int(round(float(delta2[best])))

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
            light_cost=float(light[best]),
            heavy_cost=float(heavy[best]),
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
                if steps >= SEARCH_CAP:
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

    def _grid_costs(self, sl: DegreeStatistics, sr: DegreeStatistics, delta1: np.ndarray,
                    delta2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Estimated light and heavy cost at every ``(delta1, delta2)`` grid point.

        Light (paper lines 10-11 of Alg. 3): ``sum(y_delta1)`` bounds the
        expansions caused by light witnesses, ``sum(x_delta2)`` the tuples
        incident to light head values (each expanded at most ``delta1``-fold
        on the other side), and ``cdfx(y_delta1)`` the per-tuple scanning
        effort.  Heavy (lines 12-13): the matrix model's multiply plus
        construction cost of the ``u x v @ v x w`` heavy product, priced only
        where no side is empty.
        """
        c = self.constants
        light_witness_work = sl.sum_y(delta1) + sr.sum_y(delta1)
        light_head_work = (sl.sum_x(delta2) + sr.sum_x(delta2)) * np.maximum(delta1, 1.0)
        scan_work = sl.cdfx_y(delta1) + sr.cdfx_y(delta1)
        alloc_work = sl.domain_x + sr.domain_x
        light = (
            c.random_insert * (light_witness_work + light_head_work)
            + c.sequential_access * scan_work
            + c.allocation * alloc_work
        )
        u, w = sl.heavy_x_count(delta2), sr.heavy_x_count(delta2)
        v = np.maximum(sl.heavy_y_count(delta1), sr.heavy_y_count(delta1))
        live = (u > 0) & (v > 0) & (w > 0)
        dims, cores = (u[live], v[live], w[live]), self.config.cores
        heavy = np.zeros(delta1.size)
        heavy[live] = (self.matmul_model.estimate(*dims, cores=cores)
                       + self.matmul_model.estimate_construction(*dims, cores=cores))
        return light, heavy


def _power_of_two_grid(max_value: int) -> List[int]:
    """Powers of two from 1 up to (and including one past) ``max_value``."""
    grid = [1]
    while grid[-1] < max(int(max_value), 1):
        grid.append(grid[-1] * 2)
    return grid
