"""MMJoin for the star query ``Q*_k`` (Section 3.2 of the paper).

The star query joins k binary relations on a single shared variable ``y`` and
projects it away:

``Q*_k(x1, ..., xk) = R1(x1, y), R2(x2, y), ..., Rk(xk, y)``.

Evaluation goes through the shared planner pipeline
(:mod:`repro.plan.planner` composing the :mod:`repro.exec.operators`), which
generalises Algorithm 1 to k relations:

1. every sub-join in which some relation is replaced by its light-head part
   ``R-_i`` is evaluated with the worst-case optimal join and projected;
2. the sub-join restricted to witnesses that are light in *every* relation
   (the paper's ``R^{\\diamond}`` step) is evaluated the same way;
3. the all-heavy residual is evaluated with one rectangular matrix product
   over grouped head combinations, on whichever matmul backend the registry
   selects.

This module only describes the logical query; like the two-path entry points
it returns the throwaway session's ``SessionResult`` (head tuples in
``result.pairs``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.core.two_path import evaluate_once
from repro.data.relation import Relation
from repro.plan.query import StarQuery

if TYPE_CHECKING:
    from repro.serve.session import SessionResult


def star_join(
    relations: Sequence[Relation],
    config: MMJoinConfig = DEFAULT_CONFIG,
) -> SessionResult:
    """Compute the projected star join over ``relations``."""
    return evaluate_once(StarQuery(relations), config)
