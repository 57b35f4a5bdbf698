"""The combinatorial Non-MMJoin baseline and its sorted-intersection primitives."""

from repro.joins.leapfrog import intersect_sorted, leapfrog_intersection
from repro.joins.baseline import combinatorial_star_block, combinatorial_two_path_block

__all__ = [
    "intersect_sorted",
    "leapfrog_intersection",
    "combinatorial_two_path_block",
    "combinatorial_star_block",
]
