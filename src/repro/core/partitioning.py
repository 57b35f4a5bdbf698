"""Degree-based relation partitioning (the heart of Algorithm 1 / Section 3.2).

Given the degree thresholds ``delta1`` (for the join variable ``y``) and
``delta2`` (for the head variables), the input relations are split into
*light* and *heavy* parts:

* a head value (``x`` of R, ``z`` of S, or ``x_i`` of the star relations) is
  **light** when its degree is at most ``delta2``;
* a join value ``y`` is **light** when its degree is at most ``delta1`` — in
  the two-path case a witness is light when it is light in *either* relation,
  in the star case when it is light in *every* relation;
* ``R-`` collects tuples with a light head value or a light join value,
  ``R+`` collects the rest.

The paper's correctness argument (Section 3.1) carries over verbatim: every
output tuple with a light head value or a light witness is discovered by the
light sub-joins, and every remaining output tuple has all values heavy so it
is covered by the heavy adjacency matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.relation import Relation


@dataclass
class TwoPathPartition:
    """Partition of ``R(x, y)`` and ``S(z, y)`` for the two-path query.

    Attributes
    ----------
    r_light / s_light:
        The ``R-`` / ``S-`` sub-relations (tuples touching a light value).
    r_heavy / s_heavy:
        The ``R+`` / ``S+`` sub-relations (all values heavy).
    heavy_x / heavy_y / heavy_z:
        The heavy value lists: candidate row values (heavy x of R), shared
        heavy witnesses, and candidate column values (heavy z of S).
    """

    r_light: Relation
    s_light: Relation
    r_heavy: Relation
    s_heavy: Relation
    heavy_x: np.ndarray
    heavy_y: np.ndarray
    heavy_z: np.ndarray
    delta1: int
    delta2: int

    def light_fraction(self) -> float:
        """Fraction of input tuples routed to the light sub-joins."""
        total = len(self.r_light) + len(self.s_light) + len(self.r_heavy) + len(self.s_heavy)
        if total == 0:
            return 1.0
        return (len(self.r_light) + len(self.s_light)) / total

    def matrix_dimensions(self) -> Tuple[int, int, int]:
        """Dimensions (U, V, W) of the heavy matrix product."""
        return int(self.heavy_x.size), int(self.heavy_y.size), int(self.heavy_z.size)


def partition_two_path(
    left: Relation, right: Relation, delta1: int, delta2: int
) -> TwoPathPartition:
    """Partition the two relations of the 2-path query by degree.

    A ``y`` value is light when its degree is at most ``delta1`` in *either*
    relation (such witnesses are cheap to expand on the side where they are
    light, and the light sub-joins run over both sides).  A head value is
    light when its degree is at most ``delta2`` in its own relation.
    """
    delta1 = max(int(delta1), 1)
    delta2 = max(int(delta2), 1)
    left_y = left.csr_y()
    heavy_y = left_y.keys[
        (left_y.degrees > delta1) & (right.csr_y().degrees_of(left_y.keys) > delta1)
    ]
    # R+ keeps the tuples with a heavy head and a heavy witness; R- is the rest.
    _, r_mask = _split(left, heavy_y, delta2)
    _, s_mask = _split(right, heavy_y, delta2)
    r_light = left.filter_pairs(~r_mask, name=f"{left.name}-")
    r_heavy = left.filter_pairs(r_mask, name=f"{left.name}+")
    s_light = right.filter_pairs(~s_mask, name=f"{right.name}-")
    s_heavy = right.filter_pairs(s_mask, name=f"{right.name}+")

    # Only keep heavy head values that actually survive into the heavy parts
    # (their other tuples may all touch light witnesses).
    surviving_x = r_heavy.x_values()
    surviving_z = s_heavy.x_values()
    surviving_y = np.intersect1d(r_heavy.y_values(), s_heavy.y_values(), assume_unique=True)
    return TwoPathPartition(
        r_light=r_light,
        s_light=s_light,
        r_heavy=r_heavy,
        s_heavy=s_heavy,
        heavy_x=surviving_x,
        heavy_y=surviving_y,
        heavy_z=surviving_z,
        delta1=delta1,
        delta2=delta2,
    )


def _split(relation: Relation, heavy_y: np.ndarray, delta2: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-tuple masks ``(head_heavy, heavy)``; ``heavy`` also needs a heavy witness."""
    heads = relation.csr_x()
    # The data is grouped by x in index order, so one repeat spreads the
    # per-head verdict over the tuples.
    head_heavy = np.repeat(heads.degrees > delta2, heads.degrees)
    return head_heavy, head_heavy & np.isin(relation.ys, heavy_y)


@dataclass
class StarPartition:
    """Partition of the star query relations (Section 3.2).

    Attributes
    ----------
    light_head:
        Per relation, the ``R-_i`` sub-relation (head degree <= delta2).
    heavy:
        Per relation, the ``R+_i`` sub-relation (heavy head and heavy witness).
    light_y:
        The ``y`` values light in *every* relation (handled by one cheap
        sub-join, the paper's ``R^{\\diamond}`` step).
    heavy_y:
        The remaining shared ``y`` values.
    heavy_heads:
        Per relation, its heavy head values that survive into ``R+_i``.
    """

    light_head: List[Relation]
    heavy: List[Relation]
    light_y: np.ndarray
    heavy_y: np.ndarray
    heavy_heads: List[np.ndarray]
    delta1: int
    delta2: int


def partition_star(
    relations: Sequence[Relation], delta1: int, delta2: int
) -> StarPartition:
    """Partition the k star relations by degree.

    ``light_y`` contains join values whose degree is at most ``delta1`` in
    every relation; expanding them costs at most ``N * delta1^(k-1)``.
    ``light_head[i]`` contains the tuples of ``R_i`` whose head degree is at
    most ``delta2``.  ``heavy[i]`` is the residual used to build the
    adjacency matrices.
    """
    delta1 = max(int(delta1), 1)
    delta2 = max(int(delta2), 1)
    candidates = relations[0].csr_y().keys
    degrees = np.stack([rel.csr_y().degrees_of(candidates) for rel in relations])
    shared = (degrees > 0).all(axis=0)
    light = shared & (degrees <= delta1).all(axis=0)
    light_y = candidates[light]
    heavy_y = candidates[shared & ~light]

    light_head: List[Relation] = []
    heavy: List[Relation] = []
    for rel in relations:
        # R-_i is the light heads only: light witnesses under a heavy head
        # are expanded by the separate light_y sub-join.
        head_heavy, heavy_mask = _split(rel, heavy_y, delta2)
        light_head.append(rel.filter_pairs(~head_heavy, name=f"{rel.name}-"))
        heavy.append(rel.filter_pairs(heavy_mask, name=f"{rel.name}+"))
    heavy_heads = [heavy_rel.x_values() for heavy_rel in heavy]
    return StarPartition(
        light_head=light_head,
        heavy=heavy,
        light_y=light_y,
        heavy_y=heavy_y,
        heavy_heads=heavy_heads,
        delta1=delta1,
        delta2=delta2,
    )
