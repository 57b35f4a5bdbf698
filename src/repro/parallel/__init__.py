"""Parallel execution: coordination-free partitioned evaluation and a work model."""

from repro.parallel.executor import ParallelExecutor, parallel_matmul
from repro.parallel.workmodel import ParallelWorkModel, amdahl_speedup

__all__ = [
    "ParallelExecutor",
    "parallel_matmul",
    "ParallelWorkModel",
    "amdahl_speedup",
]
