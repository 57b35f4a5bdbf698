"""Join algorithms: the worst-case-optimal substrate and combinatorial baselines."""

from repro.joins.hash_join import hash_join, hash_join_project
from repro.joins.sort_merge import sort_merge_join, sort_merge_join_project
from repro.joins.leapfrog import intersect_sorted, leapfrog_intersection, star_full_join
from repro.joins.generic_join import generic_star_join, generic_star_join_project
from repro.joins.baseline import combinatorial_two_path, combinatorial_star

__all__ = [
    "hash_join",
    "hash_join_project",
    "sort_merge_join",
    "sort_merge_join_project",
    "intersect_sorted",
    "leapfrog_intersection",
    "star_full_join",
    "generic_star_join",
    "generic_star_join_project",
    "combinatorial_two_path",
    "combinatorial_star",
]
