"""The array-native ``Relation``: CSR indexes and their vectorised consumers.

Every property compares the array code against a reference kept *here*,
written with Python sets, dicts and ``np.unique(axis=0)`` — the loops the
array code replaced — on the shared strategies (skewed, heavy-hitter, empty,
single-row, negative and packed-key-overflowing domains).
"""

from __future__ import annotations

import pickle
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.partitioning import partition_star, partition_two_path
from repro.data.relation import Relation, RelationError, full_join_size
from repro.exec.operators import LightHeavyPartition
from repro.matmul.sparse import build_sparse_adjacency
from strategies import any_domain_rows, huge_domain_rows

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
THRESHOLDS = st.integers(min_value=0, max_value=6)


def _relation(rows, name="R") -> Relation:
    return Relation.from_pairs(rows, name=name)


def _rows(relation: Relation) -> set:
    return set(relation.pairs())


# --------------------------------------------------------------------------- #
# References
# --------------------------------------------------------------------------- #
def ref_index(rows, column: int) -> dict:
    index = defaultdict(set)
    for row in set(rows):
        index[row[column]].add(row[1 - column])
    return {key: sorted(partners) for key, partners in index.items()}


def ref_full_join_size(*row_lists) -> int:
    degrees = [Counter(y for _, y in set(rows)) for rows in row_lists]
    total = 0
    for y in set.intersection(*(set(d) for d in degrees)):
        product = 1
        for d in degrees:
            product *= d[y]
        total += product
    return total


def ref_two_path(left_rows, right_rows, delta1, delta2):
    delta1, delta2 = max(delta1, 1), max(delta2, 1)
    left, right = set(left_rows), set(right_rows)
    left_y, right_y = Counter(y for _, y in left), Counter(y for _, y in right)
    heavy_y = {y for y in left_y if left_y[y] > delta1 and right_y[y] > delta1}

    def split(rows):
        head = Counter(x for x, _ in rows)
        heavy = {(x, y) for x, y in rows if head[x] > delta2 and y in heavy_y}
        return rows - heavy, heavy

    r_light, r_heavy = split(left)
    s_light, s_heavy = split(right)
    return {
        "r_light": r_light, "r_heavy": r_heavy, "s_light": s_light, "s_heavy": s_heavy,
        "heavy_x": sorted({x for x, _ in r_heavy}),
        "heavy_z": sorted({z for z, _ in s_heavy}),
        "heavy_y": sorted({y for _, y in r_heavy} & {y for _, y in s_heavy}),
    }


def ref_star(row_lists, delta1, delta2):
    delta1, delta2 = max(delta1, 1), max(delta2, 1)
    relations = [set(rows) for rows in row_lists]
    degrees = [Counter(y for _, y in rows) for rows in relations]
    shared = set.intersection(*(set(d) for d in degrees))
    light_y = {y for y in shared if all(d[y] <= delta1 for d in degrees)}
    heavy_y = shared - light_y
    light_head, heavy = [], []
    for rows in relations:
        head = Counter(x for x, _ in rows)
        light_head.append({(x, y) for x, y in rows if head[x] <= delta2})
        heavy.append({(x, y) for x, y in rows if head[x] > delta2 and y in heavy_y})
    return sorted(light_y), sorted(heavy_y), light_head, heavy


def ref_adjacency(rows, row_ids, col_ids) -> np.ndarray:
    matrix = np.zeros((len(row_ids), len(col_ids)), dtype=np.float32)
    present = set(rows)
    for i, x in enumerate(row_ids):
        for j, y in enumerate(col_ids):
            if (x, y) in present:
                matrix[i, j] = 1
    return matrix


# --------------------------------------------------------------------------- #
# Construction and the CSR index
# --------------------------------------------------------------------------- #
class TestConstruction:
    @given(rows=any_domain_rows())
    @SETTINGS
    def test_packed_constructor_equals_unique_axis0(self, rows):
        relation = _relation(rows)
        expected = (np.unique(np.asarray(rows, dtype=np.int64).reshape(-1, 2), axis=0)
                    if rows else np.empty((0, 2), dtype=np.int64))
        assert relation.data.dtype == np.int64
        assert np.array_equal(relation.data, expected)

    @given(rows=huge_domain_rows())
    @SETTINGS
    def test_overflow_fallback_orders_the_y_side_too(self, rows):
        ys, xs = _relation(rows).sorted_by_y()
        assert list(zip(ys.tolist(), xs.tolist())) == sorted((y, x) for x, y in set(rows))

    @given(rows=any_domain_rows())
    @SETTINGS
    def test_csr_equals_reference_dict_index(self, rows):
        relation = _relation(rows)
        for column, index in ((0, relation.csr_x()), (1, relation.csr_y())):
            expected = ref_index(rows, column)
            assert index.keys.tolist() == sorted(expected)
            assert index.offsets[0] == 0 and index.offsets[-1] == len(relation)
            assert index.degrees.tolist() == [len(expected[k]) for k in sorted(expected)]
            assert np.array_equal(index.column, np.repeat(index.keys, index.degrees))
            for i, key in enumerate(index.keys.tolist()):
                partners = index.values[index.offsets[i]:index.offsets[i + 1]]
                assert partners.tolist() == expected[key]

    @given(rows=any_domain_rows())
    @SETTINGS
    def test_dict_accessors_are_views_of_the_csr(self, rows):
        relation = _relation(rows)
        for column, index, degrees in ((0, relation.index_x(), relation.degrees_x()),
                                       (1, relation.index_y(), relation.degrees_y())):
            expected = ref_index(rows, column)
            assert {k: v.tolist() for k, v in index.items()} == expected
            assert degrees == {k: len(v) for k, v in expected.items()}
            assert all(type(k) is int for k in index)
        assert relation.index_x() is relation.index_x()
        probe = rows[0] if rows else (0, 0)
        assert relation.neighbors_x(probe[0]).tolist() == ref_index(rows, 0).get(probe[0], [])
        assert relation.neighbors_y(probe[1] + 1).tolist() == \
            ref_index(rows, 1).get(probe[1] + 1, [])

    def test_dict_views_cannot_mutate_the_index(self):
        relation = _relation([(5, 1), (5, 2), (6, 1)])
        for index in (relation.index_x(), relation.index_y()):
            with pytest.raises(ValueError, match="read-only"):
                next(iter(index.values()))[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            relation.sorted_by_y()[1][0] = 99

    @given(rows=any_domain_rows())
    @SETTINGS
    def test_pickle_round_trip_keeps_the_warm_csr(self, rows):
        relation = _relation(rows)
        relation.csr_x(), relation.csr_y()
        clone = pickle.loads(pickle.dumps(relation))
        assert clone == relation and clone.name == relation.name
        for warm, mine in ((clone._csr_x, relation.csr_x()), (clone._csr_y, relation.csr_y())):
            assert warm is not None, "the pool path must not rebuild the index"
            for field in ("keys", "offsets", "values", "degrees", "column"):
                assert np.array_equal(getattr(warm, field), getattr(mine, field))


# --------------------------------------------------------------------------- #
# Vectorised consumers
# --------------------------------------------------------------------------- #
class TestConsumers:
    @given(left=any_domain_rows(), right=any_domain_rows(), extra=any_domain_rows(40))
    @SETTINGS
    def test_full_join_size(self, left, right, extra):
        # Shared witnesses are rare across independent draws; a self-join
        # half of the time keeps the non-zero case covered.
        right = right or left
        assert _relation(left).full_join_size(_relation(right)) == \
            ref_full_join_size(left, right)
        assert _relation(left).full_join_size(_relation(left)) == ref_full_join_size(left, left)
        relations = [_relation(rows) for rows in (left, right, extra)]
        assert full_join_size(relations) == ref_full_join_size(left, right, extra)

    def test_full_join_size_past_int64(self):
        # 3 relations x 2**22 tuples on one witness: 2**66 join rows.
        heads = np.arange(1 << 22, dtype=np.int64)
        star = Relation(np.column_stack([heads, np.zeros_like(heads)]), sorted_dedup=True)
        assert full_join_size([star, star, star]) == (1 << 22) ** 3

    @given(left=any_domain_rows(), right=any_domain_rows(), delta1=THRESHOLDS, delta2=THRESHOLDS)
    @SETTINGS
    def test_partition_two_path(self, left, right, delta1, delta2):
        right = right or left
        got = partition_two_path(_relation(left), _relation(right, "S"), delta1, delta2)
        want = ref_two_path(left, right, delta1, delta2)
        for part in ("r_light", "r_heavy", "s_light", "s_heavy"):
            assert _rows(getattr(got, part)) == want[part], part
        for values in ("heavy_x", "heavy_y", "heavy_z"):
            assert getattr(got, values).tolist() == want[values], values
        assert (got.r_light.name, got.r_heavy.name) == ("R-", "R+")

    @given(rows=st.lists(any_domain_rows(60), min_size=2, max_size=3),
           delta1=THRESHOLDS, delta2=THRESHOLDS, shared=st.booleans())
    @SETTINGS
    def test_partition_star(self, rows, delta1, delta2, shared):
        if shared:
            rows = [rows[0]] + [rows[0][::2] + extra for extra in rows[1:]]
        got = partition_star([_relation(r, f"R{i}") for i, r in enumerate(rows)],
                             delta1, delta2)
        light_y, heavy_y, light_head, heavy = ref_star(rows, delta1, delta2)
        assert got.light_y.tolist() == light_y
        assert got.heavy_y.tolist() == heavy_y
        assert [_rows(r) for r in got.light_head] == light_head
        assert [_rows(r) for r in got.heavy] == heavy
        assert [h.tolist() for h in got.heavy_heads] == \
            [sorted({x for x, _ in part}) for part in heavy]

    @given(left=any_domain_rows(), right=any_domain_rows(), delta1=THRESHOLDS)
    @SETTINGS
    def test_counting_partition(self, left, right, delta1):
        right = right or left
        state = SimpleNamespace(relations=[_relation(left), _relation(right)])
        got = LightHeavyPartition._counting_partition(state, delta1)
        delta1 = max(delta1, 1)
        left_y = Counter(y for _, y in set(left))
        right_y = Counter(y for _, y in set(right))
        shared = set(left_y) & set(right_y)
        heavy = {y for y in shared if left_y[y] > delta1 and right_y[y] > delta1}
        assert got.heavy_y.tolist() == sorted(heavy)
        assert got.light_y.tolist() == sorted(shared - heavy)
        assert got.delta1 == delta1

    @given(rows=any_domain_rows(), seed=st.integers(0, 2**16))
    @SETTINGS
    def test_adjacency_builders(self, rows, seed):
        # Ids in arbitrary order, some absent from the relation, some of the
        # relation's values left out.
        rng = np.random.default_rng(seed)
        xs = sorted({x for x, _ in rows} | {7, -3})
        ys = sorted({y for _, y in rows} | {11})
        row_ids = rng.permutation(xs)[: max(len(xs) - 1, 1)].tolist()
        col_ids = rng.permutation(ys)[: max(len(ys) - 1, 1)].tolist()
        relation = _relation(rows)
        want = ref_adjacency(rows, row_ids, col_ids)
        dense = relation.adjacency_matrix(row_ids, col_ids)
        assert dense.dtype == np.float32 and np.array_equal(dense, want)
        sparse = build_sparse_adjacency(relation, row_ids, col_ids)
        assert sparse.shape == want.shape and np.array_equal(sparse.toarray(), want)

    @pytest.mark.parametrize("row_ids, col_ids", [([5, 5, 6], [1, 2]), ([5, 6], [1, 2, 1])])
    def test_duplicate_ids_are_rejected(self, row_ids, col_ids):
        relation = Relation([[5, 1], [5, 2], [6, 1]])
        with pytest.raises(RelationError, match="ids must be distinct"):
            relation.adjacency_matrix(row_ids, col_ids)
        with pytest.raises(RelationError, match="ids must be distinct"):
            build_sparse_adjacency(relation, row_ids, col_ids)
