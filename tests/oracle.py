"""Independent reference answers for the test suite.

Nothing here imports ``repro``, so a bug in the code under test (key
packing, dedup, merging) cannot agree with itself.  Two-path answers come
from ``scipy.sparse`` incidence products, the method of
``benchmarks/e2e/oracle.py``; star answers from a plain per-``y`` Python
cartesian product.  Results are Python sets and dicts.

A relation argument is anything with ``xs`` / ``ys`` arrays (a
``repro.Relation``) or an iterable of ``(x, y)`` rows.  Duplicate rows count
once: the queries are evaluated under set semantics.
"""

from __future__ import annotations

import itertools
from typing import Dict, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

Row = Tuple[int, ...]


def _columns(relation) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(xs, ys)`` columns of a relation or of an iterable of rows."""
    if hasattr(relation, "xs"):
        return (np.asarray(relation.xs, dtype=np.int64),
                np.asarray(relation.ys, dtype=np.int64))
    rows = np.asarray(list(relation), dtype=np.int64).reshape(-1, 2)
    return rows[:, 0], rows[:, 1]


def _dense_ids(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct sorted values, index of each value among them)``.

    Written with ``np.sort`` + ``searchsorted``, so it still runs where a
    test forbids ``np.unique``.
    """
    distinct = np.sort(values)
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    return distinct, np.searchsorted(distinct, values)


def _incidence(heads: np.ndarray, keys: np.ndarray, shape) -> sparse.csr_matrix:
    """0/1 matrix with a one at every ``(head, key)`` row index."""
    matrix = sparse.csr_matrix(
        (np.ones(heads.size, dtype=np.int64), (heads, keys)), shape=shape
    )
    matrix.sum_duplicates()
    matrix.data[:] = 1
    return matrix


def two_path_counts(left, right) -> Dict[Tuple[int, int], int]:
    """``{(x, z): #y}`` for ``pi_{x,z}(left(x, y) |><| right(z, y))``."""
    xs, left_ys = _columns(left)
    zs, right_ys = _columns(right)
    if xs.size == 0 or zs.size == 0:
        return {}
    # Dense ids per domain, so negative and 40-bit values index a matrix.
    x_values, x_ids = _dense_ids(xs)
    z_values, z_ids = _dense_ids(zs)
    y_values, y_ids = _dense_ids(np.concatenate([left_ys, right_ys]))
    a = _incidence(x_ids, y_ids[:xs.size], (x_values.size, y_values.size))
    b = _incidence(z_ids, y_ids[xs.size:], (z_values.size, y_values.size))
    product = (a @ b.T).tocoo()
    product.eliminate_zeros()
    return dict(zip(
        zip(x_values[product.row].tolist(), z_values[product.col].tolist()),
        product.data.tolist(),
    ))


def two_path_pairs(left, right) -> Set[Tuple[int, int]]:
    """The distinct ``(x, z)`` pairs of the two-path join-project."""
    return set(two_path_counts(left, right))


def star_counts(relations: Sequence) -> Dict[Row, int]:
    """``{(x1, ..., xk): #y}`` for the star ``R1(x1, y), ..., Rk(xk, y)``."""
    if not relations:
        return {}
    partners = []
    for relation in relations:
        by_y: Dict[int, Set[int]] = {}
        for x, y in zip(*(column.tolist() for column in _columns(relation))):
            by_y.setdefault(y, set()).add(x)
        partners.append(by_y)
    counts: Dict[Row, int] = {}
    for y in set(partners[0]).intersection(*partners[1:]):
        for row in itertools.product(*(by_y[y] for by_y in partners)):
            counts[row] = counts.get(row, 0) + 1
    return counts


def star_pairs(relations: Sequence) -> Set[Row]:
    """The distinct head tuples of the projected star query."""
    return set(star_counts(relations))
