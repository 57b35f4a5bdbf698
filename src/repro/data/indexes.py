"""Degree-statistics indexes used by the cost-based optimizer.

Section 5 of the paper defines three auxiliary indexes that are built in a
single linear pass over an indexed relation and queried with binary search:

* ``count(w_delta)`` — the number of values of a variable ``w`` whose degree
  is at most ``delta``;
* ``sum(x_delta)`` / ``sum(y_delta)`` — the total *deduplication effort* spent
  on light values, i.e. the number of elementary probe operations the
  light-side worst-case-optimal join performs when all values of degree at
  most ``delta`` are treated as light;
* ``cdfx(y_delta)`` — the number of x tuples whose y endpoint has degree at
  most ``delta``.

All three are represented here by :class:`DegreeIndex`, a sorted vector of
per-value degrees together with prefix sums, so any query is O(log n).  The
degree vectors come straight from the relation's CSR indexes
(``Relation.csr_x().degrees`` / ``csr_y().degrees``), so building the indexes
is a linear pass of array operations plus the sort by degree — no per-value
Python work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.data.relation import Relation


@dataclass
class DegreeIndex:
    """Sorted per-value degree vector with prefix sums.

    ``degrees`` is sorted ascending.  ``weights`` holds, per value, the
    quantity whose prefix-sum we want (by default the degree itself, but the
    ``sum(y_delta)`` index uses squared inverted-list lengths).
    """

    degrees: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.degrees = np.asarray(self.degrees, dtype=np.int64)
        order = np.argsort(self.degrees, kind="stable")
        self.degrees = self.degrees[order]
        if self.weights is None:
            self.weights = self.degrees.astype(np.float64)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)[order]
        self._prefix = np.concatenate([[0.0], np.cumsum(self.weights)])

    def count_at_most(self, delta: float) -> int:
        """``count(w_delta)``: number of values with degree <= delta."""
        return int(np.searchsorted(self.degrees, delta, side="right"))

    def count_above(self, delta: float) -> int:
        """Number of values with degree > delta (the heavy values)."""
        return int(self.degrees.size - self.count_at_most(delta))

    def sum_at_most(self, delta: float) -> float:
        """Prefix sum of the weights of values with degree <= delta."""
        return float(self._prefix[self.count_at_most(delta)])

    def sum_above(self, delta: float) -> float:
        """Suffix sum of the weights of values with degree > delta."""
        return float(self._prefix[-1] - self.sum_at_most(delta))

    def total(self) -> float:
        """Sum of all weights."""
        return float(self._prefix[-1])

    def num_values(self) -> int:
        """Number of distinct values indexed."""
        return int(self.degrees.size)

    def max_degree(self) -> int:
        """Largest degree present (0 for an empty index)."""
        return int(self.degrees[-1]) if self.degrees.size else 0

    def quantile_degree(self, q: float) -> int:
        """Degree at quantile ``q`` of the value population (0 <= q <= 1)."""
        if self.degrees.size == 0:
            return 0
        q = min(max(q, 0.0), 1.0)
        pos = min(int(q * (self.degrees.size - 1)), self.degrees.size - 1)
        return int(self.degrees[pos])


@dataclass
class DegreeStatistics:
    """All optimizer indexes for one relation (paper Section 5).

    Attributes
    ----------
    x_index:
        ``count``/``sum`` index over x degrees.  Weight of a value equals its
        degree, so ``sum_at_most(delta)`` is the number of tuples incident to
        light x values.
    y_index:
        ``count`` index over y degrees; weight of value ``b`` is
        ``|L[b]|^2`` which bounds the light-side join work contributed by
        ``b`` (this is the paper's ``sum(y_delta)``).
    y_tuple_cdf:
        ``cdfx(y_delta)``: weight of value ``b`` is ``|L[b]|`` so the prefix
        sum counts tuples whose y endpoint is light.
    """

    x_index: DegreeIndex
    y_index: DegreeIndex
    y_tuple_cdf: DegreeIndex
    num_tuples: int
    domain_x: int
    domain_y: int

    @classmethod
    def from_relation(cls, relation: Relation) -> "DegreeStatistics":
        """Build all indexes from the relation's CSR degree vectors."""
        deg_x = relation.csr_x().degrees
        deg_y = relation.csr_y().degrees
        weight_y = deg_y.astype(np.float64)
        x_index = DegreeIndex(deg_x)
        y_index = DegreeIndex(deg_y, weight_y * weight_y)
        y_tuple_cdf = DegreeIndex(deg_y, weight_y)
        return cls(
            x_index=x_index,
            y_index=y_index,
            y_tuple_cdf=y_tuple_cdf,
            num_tuples=len(relation),
            domain_x=int(deg_x.size),
            domain_y=int(deg_y.size),
        )

    # Optimizer query helpers ------------------------------------------------
    def light_x_count(self, delta: float) -> int:
        """Number of x values with degree <= delta."""
        return self.x_index.count_at_most(delta)

    def heavy_x_count(self, delta: float) -> int:
        """Number of x values with degree > delta."""
        return self.x_index.count_above(delta)

    def light_y_count(self, delta: float) -> int:
        """Number of y values with degree <= delta."""
        return self.y_index.count_at_most(delta)

    def heavy_y_count(self, delta: float) -> int:
        """Number of y values with degree > delta."""
        return self.y_index.count_above(delta)

    def sum_x(self, delta: float) -> float:
        """``sum(x_delta)``: tuples incident to light x values."""
        return self.x_index.sum_at_most(delta)

    def sum_y(self, delta: float) -> float:
        """``sum(y_delta)``: sum of squared inverted-list lengths of light y."""
        return self.y_index.sum_at_most(delta)

    def cdfx_y(self, delta: float) -> float:
        """``cdfx(y_delta)``: tuples whose y endpoint has degree <= delta."""
        return self.y_tuple_cdf.sum_at_most(delta)

    def heavy_dimensions(self, delta_x: float, delta_y: float) -> Tuple[int, int]:
        """Dimensions (heavy x count, heavy y count) of the heavy matrix."""
        return self.heavy_x_count(delta_x), self.heavy_y_count(delta_y)


def build_statistics(relations: Dict[str, Relation]) -> Dict[str, DegreeStatistics]:
    """Build :class:`DegreeStatistics` for every relation in a mapping."""
    return {name: DegreeStatistics.from_relation(rel) for name, rel in relations.items()}
