"""The paper's core contribution: output-sensitive join-project via matrix multiplication."""

from repro.core.config import MMJoinConfig
from repro.core.partitioning import TwoPathPartition, StarPartition, partition_two_path, partition_star
from repro.core.estimation import estimate_output_size, exact_full_join_size
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.core.star import star_join
from repro.core.optimizer import CostBasedOptimizer, OptimizerDecision
from repro.core.bsi import BooleanSetIntersection, BSIBatchScheduler, BSIWorkloadResult
from repro.core import theory

__all__ = [
    "MMJoinConfig",
    "TwoPathPartition",
    "StarPartition",
    "partition_two_path",
    "partition_star",
    "estimate_output_size",
    "exact_full_join_size",
    "two_path_join",
    "two_path_join_counts",
    "star_join",
    "CostBasedOptimizer",
    "OptimizerDecision",
    "BooleanSetIntersection",
    "BSIBatchScheduler",
    "BSIWorkloadResult",
    "theory",
]
