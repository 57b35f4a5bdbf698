"""Quickstart: join-project evaluation with MMJoin.

Builds a small skewed bipartite relation, evaluates the 2-path query
``Q(x, z) = R(x, y), S(z, y)`` (all pairs of left nodes sharing a right
neighbour) with the paper's MMJoin algorithm, and compares the answer and the
running time against the paper's combinatorial Non-MMJoin baseline.

Run with:  python examples/quickstart.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import MMJoinConfig, Relation, two_path_join, star_join
from repro.data import generators
from repro.joins.baseline import combinatorial_two_path_block


def main() -> None:
    # A community-structured bipartite relation (the paper's Example 1 shape):
    # within each community most (x, y) pairs are present, so the full join is
    # far larger than the deduplicated projection.
    relation = generators.community_bipartite(
        num_sets=400, domain_size=300, num_communities=4, density=0.5, seed=7, name="R"
    )
    print(f"input relation: {len(relation)} tuples, "
          f"{relation.x_values().size} x-values, {relation.y_values().size} y-values")
    print(f"full join size (before projection): {relation.full_join_size(relation):,}")

    # The first call also builds the relation's lazy indexes, which both plans
    # share: run each plan once before timing either.
    two_path_join(relation, relation)
    combinatorial_two_path_block(relation, relation)

    # --- MMJoin (the paper's algorithm; the optimizer picks the thresholds) ---
    start = time.perf_counter()
    result = two_path_join(relation, relation)
    mmjoin_seconds = time.perf_counter() - start
    plan = result.explanation
    heavy = next(op for op in plan.operators if op.operator == "matmul_heavy")
    print(f"\nMMJoin strategy: {result.strategy}"
          f" (delta1={plan.delta1}, delta2={plan.delta2},"
          f" matrix dims={heavy.detail.get('matrix_dims', (0, 0, 0))})")
    print(f"projected output: {result.output_size:,} pairs in {mmjoin_seconds:.3f}s")

    # --- Non-MMJoin: the same partitioning idea, no matrix multiplication ---
    start = time.perf_counter()
    expected = combinatorial_two_path_block(relation, relation)
    baseline_seconds = time.perf_counter() - start
    print(f"Non-MMJoin: {len(expected):,} pairs in {baseline_seconds:.3f}s")
    assert result.result_block == expected
    print(f"results identical; speedup {baseline_seconds / max(mmjoin_seconds, 1e-9):.1f}x")

    # --- A 3-relation star query with explicit thresholds ---
    sample = relation.sample_tuples(1_500, seed=1)
    star = star_join([sample, sample, sample], config=MMJoinConfig(delta1=4, delta2=4))
    print(f"\nstar query Q*_3 over a {len(sample)}-tuple sample: "
          f"{star.output_size:,} output tuples ({star.strategy})")


if __name__ == "__main__":
    main()
