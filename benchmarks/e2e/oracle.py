"""Independent reference answers for the end-to-end benchmark.

No ``repro`` import: answers come from ``scipy.sparse`` products over the raw
``(n, 2)`` arrays the generators made.  A result is compared as a
``(size, checksum)`` digest, the checksum being an order-independent 64-bit
sum of per-row hashes, so the program may return rows in any order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np
from scipy import sparse

Digest = Tuple[int, int]

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xC2B2AE3D27D4EB4F)
_K3 = np.uint64(0x165667B19E3779F9)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def row_hash(xs: np.ndarray, zs: np.ndarray, counts: Optional[np.ndarray] = None) -> np.ndarray:
    """64-bit hash of every ``(x, z[, count])`` row."""
    with np.errstate(over="ignore"):
        h = (np.asarray(xs, dtype=np.int64).astype(np.uint64) * _K1
             + np.asarray(zs, dtype=np.int64).astype(np.uint64) * _K2)
        if counts is not None:
            h = h + np.asarray(counts, dtype=np.int64).astype(np.uint64) * _K3
        # splitmix64 finalizer: a wrong row cannot cancel against another.
        h = (h ^ (h >> np.uint64(30))) * _M1
        h = (h ^ (h >> np.uint64(27))) * _M2
        return h ^ (h >> np.uint64(31))


def digest(xs: np.ndarray, zs: np.ndarray, counts: Optional[np.ndarray] = None) -> Digest:
    """``(rows, checksum)`` of a set of ``(x, z[, count])`` rows, order-free."""
    xs = np.asarray(xs)
    if xs.size == 0:
        return 0, 0
    return int(xs.size), int(row_hash(xs, zs, counts).sum(dtype=np.uint64))


def _incidence(rows: np.ndarray, n_heads: int, n_keys: int) -> sparse.csr_matrix:
    data = np.ones(rows.shape[0], dtype=np.int64)
    matrix = sparse.csr_matrix((data, (rows[:, 0], rows[:, 1])), shape=(n_heads, n_keys))
    matrix.sum_duplicates()
    matrix.data[:] = 1
    return matrix


def _witness_counts(left: np.ndarray, right: np.ndarray) -> sparse.coo_matrix:
    """COO matrix whose ``(x, z)`` entry is the number of shared join keys."""
    n_keys = int(max(left[:, 1].max(), right[:, 1].max())) + 1
    a = _incidence(left, int(left[:, 0].max()) + 1, n_keys)
    b = _incidence(right, int(right[:, 0].max()) + 1, n_keys)
    product = (a @ b.T).tocoo()
    product.eliminate_zeros()
    return product


def two_path(left: np.ndarray, right: np.ndarray) -> Digest:
    """Digest of ``pi_{x,z}(left(x,y) |><| right(z,y))`` under set semantics."""
    if left.shape[0] == 0 or right.shape[0] == 0:
        return 0, 0
    product = _witness_counts(left, right)
    return digest(product.row, product.col)


def similarity(family: np.ndarray, c: int) -> Digest:
    """Digest of the unordered self-join SSJ: ``a < b`` with overlap ``>= c``.

    The overlap is folded into the checksum, so a wrong witness count fails
    even when the pair set is right.
    """
    product = _witness_counts(family, family)
    keep = (product.row < product.col) & (product.data >= c)
    return digest(product.row[keep], product.col[keep], product.data[keep])


def _pack(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    if rows.size and (rows.min() < 0 or rows.max() >= 1 << 31):
        raise ValueError("write-log rows must fit in 31 bits")
    return (rows[:, 0] << 32) | rows[:, 1]


class WriteLogReplay:
    """Replays append/delete batches on ``left`` and keeps the answer current.

    The relation is a sorted array of packed rows, so a batch is one
    ``setdiff1d`` / ``intersect1d`` under set semantics.  For every right
    relation the witness-count matrix of ``left |><| right`` is held dense
    and the digest is moved by exactly the cells a batch switches on or off,
    which keeps a full check of every post-write read cheap.
    """

    def __init__(self, left: np.ndarray, rights: Dict[str, np.ndarray]) -> None:
        self._keys = np.unique(_pack(left))
        self._views = {name: _CountView(left, right) for name, right in rights.items()}

    def apply(self, kind: str, rows: np.ndarray) -> None:
        batch = np.unique(_pack(rows))
        if kind == "append":
            changed = np.setdiff1d(batch, self._keys, assume_unique=True)
            self._keys = np.union1d(self._keys, changed)
            step = 1
        elif kind == "delete":
            changed = np.intersect1d(batch, self._keys, assume_unique=True)
            self._keys = np.setdiff1d(self._keys, changed, assume_unique=True)
            step = -1
        else:
            raise ValueError(f"unknown write kind {kind!r}")
        for view in self._views.values():
            view.apply(changed >> 32, changed & 0xFFFFFFFF, step)

    def digest(self, right: str) -> Digest:
        view = self._views[right]
        return view.size, view.checksum


class _CountView:
    """Dense witness counts of ``left |><| right`` with a running digest."""

    def __init__(self, left: np.ndarray, right: np.ndarray) -> None:
        product = _witness_counts(left, right)
        self.counts = np.zeros(product.shape, dtype=np.int32)
        self.counts[product.row, product.col] = product.data
        self.size, self.checksum = digest(product.row, product.col)
        order = np.argsort(right[:, 1], kind="stable")
        keys, starts = np.unique(right[order, 1], return_index=True)
        heads = np.split(right[order, 0], starts[1:])
        self._right_heads = {int(k): h for k, h in zip(keys, heads)}

    def apply(self, xs: np.ndarray, ys: np.ndarray, step: int) -> None:
        for key in np.unique(ys):
            zs = self._right_heads.get(int(key))
            if zs is None:
                continue
            rows = xs[ys == key]
            cells = np.ix_(rows, zs)
            before = self.counts[cells]
            self.counts[cells] = before + step
            # Cells switching between zero and non-zero enter or leave the output.
            switched = (before == 0) if step > 0 else (before == 1)
            if not switched.any():
                continue
            r, c = np.nonzero(switched)
            moved = int(row_hash(rows[r], zs[c]).sum(dtype=np.uint64))
            self.size += step * int(r.size)
            self.checksum = (self.checksum + step * moved) % (1 << 64)


def check(observed: Iterable[Tuple[str, Digest, int]],
          expected: Dict[str, Digest]) -> Tuple[int, list]:
    """Compare ``(key, digest, ops)`` observations with the reference.

    Returns the number of ops whose digest disagrees (or whose key has no
    reference) and up to five human-readable examples.
    """
    failed = 0
    examples = []
    for key, got, ops in observed:
        want = expected.get(key)
        if want is None or tuple(got) != tuple(want):
            failed += ops
            if len(examples) < 5:
                examples.append(f"{key}: got {tuple(got)}, want {want}")
    return failed, examples
