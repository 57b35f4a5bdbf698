"""Seeded input generators for the end-to-end benchmark (numpy only).

The program under test receives nothing but the ``(n, 2)`` int64 arrays made
here.  ``repro.data.generators`` is deliberately not used: a later change to
the repository's own helpers must not be able to move a benchmark number.

Every relation is an array of ``(head, join_key)`` rows — ``R(x, y)`` in the
paper's notation, "set ``x`` contains element ``y``" in the SSJ reading.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

# Pinned sizes.  ``full`` is the scale the recorded numbers use; ``smoke``
# exercises the same code paths in well under a second per workload.
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "dense_sets": 780, "dense_elems": 160, "dense_pool": 4,
        "sparse_sets": 5000, "sparse_elems": 11000, "sparse_tuples": 14000, "sparse_pool": 4,
        "serve_relations": 8,
        "mix_heads": 3000, "mix_keys": 1000, "mix_tuples": 12000,
    },
    "smoke": {
        "dense_sets": 160, "dense_elems": 80, "dense_pool": 2,
        "sparse_sets": 400, "sparse_elems": 900, "sparse_tuples": 1200, "sparse_pool": 2,
        "serve_relations": 3,
        "mix_heads": 300, "mix_keys": 150, "mix_tuples": 1500,
    },
}

COMMUNITIES = 4
WITHIN_DENSITY = 0.6
ELEMENT_ZIPF = 1.2
NOISE_PER_SET = 1
KEY_ZIPF = 0.5           # join-key degree skew of the write-mix relations


def seeded(seed: int, *stream: int) -> np.random.Generator:
    """Independent stream per (seed, purpose) so inputs do not shift together."""
    return np.random.default_rng([int(seed), *[int(s) for s in stream]])


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms, one per stratum ``[i/n, (i+1)/n)``, in random order.

    Fed through an inverse CDF they give the same histogram under every
    seed; only who gets which value changes.  Input sizes and degree
    sequences, and with them the work per op, then barely move with the seed.
    """
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _dedup_rows(rows: np.ndarray) -> np.ndarray:
    return np.unique(np.asarray(rows, dtype=np.int64).reshape(-1, 2), axis=0)


def community_relation(rng: np.random.Generator, n_sets: int, n_elems: int) -> np.ndarray:
    """Community-structured set family (the paper's dense, Fig. 4a-like case).

    Elements split into ``COMMUNITIES`` blocks; a set draws from its own
    block with mean density ``WITHIN_DENSITY``, skewed by a Zipf(1.2)
    popularity inside the block, plus ``NOISE_PER_SET`` element from anywhere.
    Two sets share an element almost surely inside a community and rarely
    across, so a join-project output fills about 30 % of ``|X| x |Z|``.
    """
    block = n_elems // COMMUNITIES
    community = rng.permutation(n_sets) % COMMUNITIES
    rank = np.arange(1, block + 1, dtype=np.float64)
    weight = rank ** -ELEMENT_ZIPF
    prob = np.minimum(1.0, WITHIN_DENSITY * weight / weight.mean())
    member = rng.random((n_sets, block)) < prob[None, :]
    xs, local = np.nonzero(member)
    ys = local + community[xs] * block
    noise_x = np.repeat(np.arange(n_sets), NOISE_PER_SET)
    noise_y = rng.integers(0, block * COMMUNITIES, size=noise_x.size)
    rows = np.column_stack([np.concatenate([xs, noise_x]),
                            np.concatenate([ys, noise_y])])
    return _dedup_rows(rows)


def sparse_relation(rng: np.random.Generator, n_sets: int, n_elems: int,
                    n_tuples: int) -> np.ndarray:
    """dblp-shaped sparse family: power-law set sizes up to ~100, skewed elements.

    The tuple count is fixed (set sizes are drawn as shares of it), so the
    work per op barely depends on the seed.  The full join is small next to
    a dense one, the combinatorial plan is the right one and the matrix path
    has nothing to do.
    """
    # Pareto(1.3) set weights by inverse CDF, capped so no set passes ~100 elements.
    weight = np.minimum((1.0 - _stratified(rng, n_sets)) ** (-1.0 / 1.3), 100.0)
    cdf = np.cumsum(weight) / weight.sum()
    xs = np.minimum(np.searchsorted(cdf, _stratified(rng, n_tuples)), n_sets - 1)
    # Zipf-ish element popularity through a power transform of uniforms.
    ys = np.floor(n_elems * _stratified(rng, n_tuples) ** 3.0).astype(np.int64)
    return _dedup_rows(np.column_stack([xs, ys]))


def skewed_relation(rng: np.random.Generator, n_heads: int, n_keys: int,
                    n_tuples: int) -> np.ndarray:
    """Relation with mildly Zipf-skewed join-key degrees (sharded write mix).

    The skew is mild on purpose: the join-project output grows with the
    sum of squared key degrees, and it has to stay far from saturated so a
    wrong row after a write changes the checksum.
    """
    rank = np.arange(1, n_keys + 1, dtype=np.float64)
    cdf = np.cumsum(rank ** -KEY_ZIPF)
    cdf /= cdf[-1]
    ys = np.minimum(np.searchsorted(cdf, _stratified(rng, n_tuples)), n_keys - 1)
    xs = np.floor(n_heads * _stratified(rng, n_tuples)).astype(np.int64)
    return _dedup_rows(np.column_stack([xs, ys]))


# --------------------------------------------------------------------------- #
# Per-workload input bundles
# --------------------------------------------------------------------------- #
def dense_pool(seed: int, scale: str) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``cold_dense`` / ``cold_counting``: a pool of community pairs (R_i, S_i)."""
    size = SCALES[scale]
    pool = []
    for i in range(size["dense_pool"]):
        rng = seeded(seed, 1, i)
        pool.append((
            community_relation(rng, size["dense_sets"], size["dense_elems"]),
            community_relation(rng, size["dense_sets"], size["dense_elems"]),
        ))
    return pool


def sparse_pool(seed: int, scale: str) -> List[np.ndarray]:
    """``cold_sparse``: a pool of sparse self-join inputs."""
    size = SCALES[scale]
    return [sparse_relation(seeded(seed, 2, i), size["sparse_sets"], size["sparse_elems"],
                            size["sparse_tuples"])
            for i in range(size["sparse_pool"])]


def serve_relations(seed: int, scale: str) -> List[np.ndarray]:
    """``serve_warm``: community relations queried as all ordered pairs."""
    size = SCALES[scale]
    return [community_relation(seeded(seed, 3, i), size["dense_sets"], size["dense_elems"])
            for i in range(size["serve_relations"])]


def zipf_sequence(rng: np.random.Generator, n_items: int, length: int,
                  exponent: float, block: int = 1024) -> np.ndarray:
    """``length`` draws over ``n_items``, Zipf popularity on a seeded permutation.

    Every block of 1024 draws holds each rank exactly in proportion (largest
    remainder) and only the order is random: the popularity a run sees does
    not depend on sampling luck, so a cache's hit ratio barely moves with
    the seed.
    """
    rank = np.arange(1, n_items + 1, dtype=np.float64)
    exact = block * rank ** -exponent / (rank ** -exponent).sum()
    counts = np.floor(exact).astype(np.int64)
    short = block - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    ranks = np.repeat(np.arange(n_items), counts)
    identity = rng.permutation(n_items)
    blocks = [rng.permutation(ranks) for _ in range(-(-length // block))]
    return identity[np.concatenate(blocks)[:length]]


READ_PAIRS = (("R", "S"), ("R", "T"), ("S", "T"))
WRITE_EVERY = 20       # every 20th op writes R
DELETE_EVERY = 20      # every 20th write deletes the 19 bursts appended before it
BURST_ROWS = 32
HOT_KEY_ZIPF = 1.5


class WriteMixStream:
    """``serve_write_mix``: three relations and an endless seeded op stream.

    ``next_op()`` yields ``("read", (left, right))``, ``("append", rows)`` or
    ``("delete", rows)``.  Every 20th op writes ``R``.  Appends are 32-row
    bursts on one hot join key of ``R`` (keys ranked by degree, rank drawn
    from Zipf(1.5)) using head values that exist in ``R`` but are not yet
    paired with that key; every 20th write deletes all bursts appended since
    the last delete, so ``R`` keeps its size.  Deletes are kept rare because
    a read after a delete cannot be patched: at 1 in 20 they put ~1 % of ops
    in that slower sub-class, far from the p95 rank.  The stream depends only
    on the seed, so the oracle replays it exactly.
    """

    def __init__(self, seed: int, scale: str) -> None:
        size = SCALES[scale]
        self.relations: Dict[str, np.ndarray] = {
            name: skewed_relation(seeded(seed, 4, i), size["mix_heads"],
                                  size["mix_keys"], size["mix_tuples"])
            for i, name in enumerate("RST")
        }
        self._rng = seeded(seed, 5)
        base = self.relations["R"]
        self._heads = np.unique(base[:, 0])
        keys, degree = np.unique(base[:, 1], return_counts=True)
        self._ranked = keys[np.argsort(-degree, kind="stable")]
        self._live = {(int(x), int(y)) for x, y in base}
        self._pending: List[np.ndarray] = []
        self._index = 0
        self._writes = 0

    def next_op(self) -> Tuple[str, object]:
        index = self._index
        self._index += 1
        rng = self._rng
        if index % WRITE_EVERY != WRITE_EVERY - 1:
            return "read", READ_PAIRS[int(rng.integers(len(READ_PAIRS)))]
        self._writes += 1
        if self._writes % DELETE_EVERY == 0:
            rows = np.concatenate(self._pending)
            self._pending.clear()
            self._live.difference_update(map(tuple, rows.tolist()))
            return "delete", rows
        rank = min(int(rng.zipf(HOT_KEY_ZIPF)) - 1, self._ranked.size - 1)
        key = int(self._ranked[rank])
        fresh = [int(x) for x in rng.permutation(self._heads)
                 if (int(x), key) not in self._live][:BURST_ROWS]
        rows = np.asarray([(x, key) for x in fresh], dtype=np.int64).reshape(-1, 2)
        self._live.update(map(tuple, rows.tolist()))
        self._pending.append(rows)
        return "append", rows
