"""repro — Fast join-project query evaluation using matrix multiplication.

This package is a from-scratch Python reproduction of the system described in
"Fast Join Project Query Evaluation using Matrix Multiplication"
(Deep, Hu, Koutris — SIGMOD 2020).  It provides:

* ``repro.data`` — binary relation storage, the columnar ``PairBlock`` /
  ``CountedPairBlock`` result representation, degree indexes, synthetic
  dataset generators that mirror the paper's evaluation datasets.
* ``repro.joins`` — the combinatorial output-sensitive baseline (the
  paper's Non-MMJoin) and the leapfrog-style sorted intersections it uses.
* ``repro.matmul`` — dense (BLAS) and sparse (CSR) matrix multiplication
  kernels behind a backend registry, and a calibrated cost model.
* ``repro.core`` — the paper's contribution: degree partitioning, the MMJoin
  two-path and star algorithms, output-size estimation, the cost-based
  optimizer and the boolean-set-intersection batch scheduler.
* ``repro.plan`` — logical join-project query descriptions and the planner
  that lowers them onto the physical pipeline, with ``explain()`` support.
* ``repro.exec`` — the physical operators (semijoin-reduce, light/heavy
  partition, combinatorial light, matmul heavy, dedup-merge).
* ``repro.setops`` — set similarity join (SizeAware, SizeAware++, MMJoin),
  ordered SSJ and set containment join (PRETTI, LIMIT+, PIEJoin, MMJoin).
* ``repro.bench`` — the harness that regenerates every table and figure.

Quickstart
----------

>>> from repro import Relation, two_path_join
>>> R = Relation.from_pairs([(1, 10), (2, 10), (3, 11)], name="R")
>>> sorted(two_path_join(R, R).pairs)
[(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
"""

from repro.data.relation import Relation
from repro.data.pairblock import CountedPairBlock, PairBlock
from repro.data.catalog import Catalog
from repro.data.setfamily import SetFamily
from repro.core.two_path import two_path_join
from repro.core.star import star_join
from repro.core.optimizer import CostBasedOptimizer, OptimizerDecision
from repro.core.config import MMJoinConfig
from repro.core.bsi import BooleanSetIntersection, BSIBatchScheduler
from repro.plan.planner import PhysicalPlan, Planner
from repro.plan.query import (
    ContainmentJoinQuery,
    JoinProjectQuery,
    SimilarityJoinQuery,
    StarQuery,
    TwoPathQuery,
)
from repro.matmul.registry import BackendRegistry, MatMulBackend, default_registry
from repro.setops.ssj import set_similarity_join
from repro.setops.ssj_ordered import ordered_set_similarity_join
from repro.setops.scj import set_containment_join

__version__ = "1.2.0"

__all__ = [
    "Relation",
    "PairBlock",
    "CountedPairBlock",
    "Catalog",
    "SetFamily",
    "two_path_join",
    "star_join",
    "CostBasedOptimizer",
    "OptimizerDecision",
    "MMJoinConfig",
    "BooleanSetIntersection",
    "BSIBatchScheduler",
    "PhysicalPlan",
    "Planner",
    "JoinProjectQuery",
    "TwoPathQuery",
    "StarQuery",
    "SimilarityJoinQuery",
    "ContainmentJoinQuery",
    "BackendRegistry",
    "MatMulBackend",
    "default_registry",
    "set_similarity_join",
    "ordered_set_similarity_join",
    "set_containment_join",
    "__version__",
]
