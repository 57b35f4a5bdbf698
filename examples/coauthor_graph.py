"""Graph analytics: extracting a co-author graph from an author-paper table.

The paper's graph-analytics motivation (Section 1): the DBLP relation
``R(author, paper)`` implicitly defines the co-author graph
``V(x, y) = R(x, p), R(y, p)``.  Materialising V is a join-project query.
This example

1. generates a DBLP-like sparse author-paper relation,
2. materialises the co-author graph with MMJoin and with the combinatorial
   Non-MMJoin baseline,
3. answers batched boolean "have these two authors written together?" API
   requests without materialising V at all (the BSI application).

Run with:  python examples/coauthor_graph.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import BSIBatchScheduler, two_path_join
from repro.data import generators
from repro.joins.baseline import combinatorial_two_path_block


def main() -> None:
    # Authors publish within research communities: papers inside a community
    # are co-authored by many of its members, which is exactly the
    # duplicate-heavy regime where the output-sensitive evaluation pays off.
    authors_papers = generators.community_bipartite(
        num_sets=900, domain_size=1_200, num_communities=12, density=0.25,
        background_noise=0.001, seed=11, name="dblp",
    )
    stats = authors_papers.stats()
    print(f"author-paper table: {stats.num_tuples} tuples, {stats.num_sets} authors, "
          f"{stats.domain_size} papers, avg papers/author {stats.avg_set_size:.1f}")

    # --- Materialise the co-author graph -------------------------------------
    # The first call also builds the relation's lazy indexes, which both plans
    # share: run each plan once before timing either.
    two_path_join(authors_papers, authors_papers)
    combinatorial_two_path_block(authors_papers, authors_papers)
    start = time.perf_counter()
    coauthors = two_path_join(authors_papers, authors_papers)
    mmjoin_seconds = time.perf_counter() - start
    first, second = coauthors.result_block.columns
    num_edges = int((first < second).sum())
    print(f"\nco-author graph: {num_edges:,} edges "
          f"(MMJoin, {coauthors.strategy}, {mmjoin_seconds:.3f}s)")

    start = time.perf_counter()
    baseline = combinatorial_two_path_block(authors_papers, authors_papers)
    baseline_seconds = time.perf_counter() - start
    assert baseline == coauthors.result_block
    print(f"  Non-MMJoin: {baseline_seconds:.3f}s "
          f"({baseline_seconds / max(mmjoin_seconds, 1e-9):.1f}x MMJoin)")

    # --- Boolean co-authorship API with batching ------------------------------
    print("\nbatched boolean API (have authors a and b co-authored a paper?)")
    scheduler = BSIBatchScheduler(authors_papers, authors_papers, arrival_rate=1000)
    workload = scheduler.generate_workload(2_000, seed=3)
    for batch_size in (100, 500, 1000):
        outcome = scheduler.run(workload, batch_size=batch_size, use_mmjoin=True)
        print(f"  batch={batch_size:5d}: avg delay {outcome.average_delay * 1000:7.2f} ms, "
              f"processing units needed {outcome.processing_units}")


if __name__ == "__main__":
    main()
