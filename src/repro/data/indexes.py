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
per-value degrees together with prefix sums, so any query is O(log n) — and
a whole grid of thresholds is one vector ``searchsorted`` into ``degrees``
plus a gather from ``prefix``.  The degree vectors come straight from the
relation's CSR indexes (``Relation.csr_x().degrees`` / ``csr_y().degrees``):
building the indexes is one sort per degree vector plus prefix sums — no
per-value Python work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.data.relation import Relation


@dataclass
class DegreeIndex:
    """Sorted per-value degree vector with prefix sums.

    The index sorts ``degrees`` ascending itself: one ``np.sort`` when the
    weights default to the degrees, a stable ``argsort`` that carries given
    ``weights`` along otherwise (one linear pass on already sorted input).
    ``weights`` holds, per value, the quantity whose prefix-sum we want (by
    default the degree itself, but the ``sum(y_delta)`` index uses squared
    inverted-list lengths).  The ``count`` / ``sum`` queries take one
    threshold or an array of them (one ``searchsorted`` for the array).
    """

    degrees: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        degrees = np.asarray(self.degrees, dtype=np.int64)
        if self.weights is None:
            self.degrees = np.sort(degrees)
            self.weights = self.degrees.astype(np.float64)
        else:
            order = np.argsort(degrees, kind="stable")
            self.degrees = degrees[order]
            self.weights = np.asarray(self.weights, dtype=np.float64)[order]
        self.prefix = np.concatenate([[0.0], np.cumsum(self.weights)])

    def count_at_most(self, delta):
        """``count(w_delta)``: number of values with degree <= delta."""
        return np.searchsorted(self.degrees, delta, side="right")

    def count_above(self, delta):
        """Number of values with degree > delta (the heavy values)."""
        return self.degrees.size - self.count_at_most(delta)

    def sum_at_most(self, delta):
        """Prefix sum of the weights of values with degree <= delta."""
        return self.prefix[self.count_at_most(delta)]

    def sum_above(self, delta):
        """Suffix sum of the weights of values with degree > delta."""
        return self.prefix[-1] - self.sum_at_most(delta)

    def total(self) -> float:
        """Sum of all weights."""
        return float(self.prefix[-1])

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
        """Build all indexes from the relation's CSR degree vectors.

        Each degree vector is sorted once: the ``deg²`` index takes the
        ``y`` vector already sorted by the ``cdfx`` index, with its weights
        squared.
        """
        x_index = DegreeIndex(relation.csr_x().degrees)
        y_tuple_cdf = DegreeIndex(relation.csr_y().degrees)
        y_index = DegreeIndex(y_tuple_cdf.degrees, y_tuple_cdf.weights * y_tuple_cdf.weights)
        return cls(
            x_index=x_index,
            y_index=y_index,
            y_tuple_cdf=y_tuple_cdf,
            num_tuples=len(relation),
            domain_x=x_index.num_values(),
            domain_y=y_tuple_cdf.num_values(),
        )

    # Optimizer query helpers: one threshold or an array of thresholds -------
    def light_x_count(self, delta):
        """Number of x values with degree <= delta."""
        return self.x_index.count_at_most(delta)

    def heavy_x_count(self, delta):
        """Number of x values with degree > delta."""
        return self.x_index.count_above(delta)

    def light_y_count(self, delta):
        """Number of y values with degree <= delta."""
        return self.y_index.count_at_most(delta)

    def heavy_y_count(self, delta):
        """Number of y values with degree > delta."""
        return self.y_index.count_above(delta)

    def sum_x(self, delta):
        """``sum(x_delta)``: tuples incident to light x values."""
        return self.x_index.sum_at_most(delta)

    def sum_y(self, delta):
        """``sum(y_delta)``: sum of squared inverted-list lengths of light y."""
        return self.y_index.sum_at_most(delta)

    def cdfx_y(self, delta):
        """``cdfx(y_delta)``: tuples whose y endpoint has degree <= delta."""
        return self.y_tuple_cdf.sum_at_most(delta)

    def heavy_dimensions(self, delta_x: float, delta_y: float) -> Tuple[int, int]:
        """Dimensions (heavy x count, heavy y count) of the heavy matrix."""
        return self.heavy_x_count(delta_x), self.heavy_y_count(delta_y)
