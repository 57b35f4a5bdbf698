"""Output-size estimation for join-project queries (paper Section 5).

The MMJoin cost formula needs ``|OUT|``, the size of the *projected* output,
before it has been computed.  The paper derives the sandwich

``|dom(x)| <= |OUT| <= min(|dom(x)| * |dom(z)|, |OUT_join|)``  and
``|OUT_join| <= N * sqrt(|OUT|)``  (so ``|OUT| >= (|OUT_join| / N)^2``),

and uses the geometric mean of the resulting lower and upper bounds as the
estimate.  The full join size ``|OUT_join|`` itself is computed exactly in
linear time from the per-``y`` degrees during the indexing pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.relation import Relation, full_join_size


@dataclass(frozen=True)
class OutputEstimate:
    """An output size estimate together with its provable bounds."""

    lower_bound: float
    upper_bound: float
    estimate: float
    full_join_size: int

    def clamp(self, value: float) -> float:
        """Clamp an external estimate into the provable interval."""
        return min(max(value, self.lower_bound), self.upper_bound)


def exact_full_join_size(left: Relation, right: Relation) -> int:
    """Exact size of the full (pre-projection) join, in linear time."""
    return left.full_join_size(right)


def estimate_output_size(
    left: Relation,
    right: Relation,
    full_join_size: Optional[int] = None,
) -> OutputEstimate:
    """Estimate ``|OUT|`` for the two-path query per the paper's recipe.

    Parameters
    ----------
    full_join_size:
        Pass a precomputed full join size to avoid recomputation.
    """
    n = max(len(left), len(right), 1)
    out_join = (
        exact_full_join_size(left, right) if full_join_size is None else int(full_join_size)
    )
    dom_x = max(int(left.x_values().size), 1)
    dom_z = max(int(right.x_values().size), 1)
    lower = max(float(dom_x), (float(out_join) / float(n)) ** 2 if n else 0.0)
    upper = float(min(dom_x * dom_z, out_join)) if out_join else float(dom_x)
    if upper < lower:
        upper = lower
    estimate = math.sqrt(lower * upper) if lower > 0 else upper
    return OutputEstimate(
        lower_bound=lower,
        upper_bound=upper,
        estimate=max(estimate, 1.0),
        full_join_size=out_join,
    )


def detect_heavy_join_keys(
    relation: Relation,
    shards: int,
    balance_factor: float = 0.5,
    max_heavy: Optional[int] = None,
) -> Dict[int, int]:
    """Join keys whose degree would serialize a single hash shard.

    The sharded execution layer hash-partitions relations on the join
    attribute ``y``; a key whose tuple count approaches a fair shard's share
    (``N / shards``) turns whichever hash shard owns it into the straggler
    that the paper's Section 6 partitioning argument was supposed to avoid.
    The per-key degree statistics (the ``csr_y`` degree vector the
    :class:`~repro.data.indexes.DegreeIndex` machinery is built from) find
    those keys: a key is heavy when its degree exceeds
    ``balance_factor * N / shards``.

    Returns ``{key: degree}`` for at most ``max_heavy`` keys (default:
    ``shards``), keeping the highest-degree ones.  Empty when ``shards <= 1``
    (nothing to balance) or the relation is empty.
    """
    if shards <= 1 or len(relation) == 0:
        return {}
    index = relation.csr_y()
    fair_share = len(relation) / float(shards)  # sum of y degrees == N
    threshold = max(balance_factor * fair_share, 1.0)
    heavy = index.degrees > threshold
    keys, degrees = index.keys[heavy], index.degrees[heavy]
    cap = int(shards) if max_heavy is None else max(int(max_heavy), 0)
    if keys.size > cap:
        kept = np.lexsort((keys, -degrees))[:cap]
        keys, degrees = keys[kept], degrees[kept]
    return dict(zip(keys.tolist(), degrees.tolist()))


def estimate_star_output_size(relations: Sequence[Relation]) -> OutputEstimate:
    """Estimate ``|OUT|`` for the star query.

    Uses the same sandwich generalised to k relations: the projected output
    is at least the largest head domain and at most the product of the head
    domains, and also at most the full join size.  The full join size is
    computed exactly from per-``y`` degree products.
    """
    if not relations:
        return OutputEstimate(0.0, 0.0, 0.0, 0)
    out_join = full_join_size(relations)
    doms = [max(int(rel.x_values().size), 1) for rel in relations]
    lower = float(max(doms))
    product = 1.0
    for d in doms:
        product *= float(d)
    upper = float(min(product, out_join)) if out_join else lower
    if upper < lower:
        upper = lower
    estimate = math.sqrt(lower * upper) if lower > 0 else upper
    return OutputEstimate(
        lower_bound=lower,
        upper_bound=upper,
        estimate=max(estimate, 1.0),
        full_join_size=out_join,
    )
