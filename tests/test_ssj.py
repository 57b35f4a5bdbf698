"""Tests for set similarity join (unordered and ordered)."""

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import set_families

from repro.core.config import MMJoinConfig
from repro.data.pairblock import CountedPairBlock
from repro.serve import QuerySession
from repro.setops.ssj import (
    set_similarity_join,
    size_boundary,
    ssj_bruteforce,
    ssj_mmjoin,
    ssj_sizeaware,
    ssj_sizeaware_plus,
)
from repro.setops.ssj_ordered import ordered_set_similarity_join, top_k_similar


class TestUnorderedSSJ:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_mmjoin_matches_bruteforce(self, small_family, c):
        assert ssj_mmjoin(small_family, c).pairs == ssj_bruteforce(small_family, c).pairs

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_sizeaware_matches_bruteforce(self, small_family, c):
        assert ssj_sizeaware(small_family, c).pairs == ssj_bruteforce(small_family, c).pairs

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_sizeaware_plus_matches_bruteforce(self, small_family, c):
        assert ssj_sizeaware_plus(small_family, c).pairs == ssj_bruteforce(small_family, c).pairs

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_all_methods_agree_on_skewed_family(self, skewed_family, c):
        expected = ssj_bruteforce(skewed_family, c).pairs
        assert ssj_mmjoin(skewed_family, c).pairs == expected
        assert ssj_sizeaware(skewed_family, c).pairs == expected
        assert ssj_sizeaware_plus(skewed_family, c).pairs == expected

    def test_mmjoin_counts_are_exact_overlaps(self, skewed_family):
        result = ssj_mmjoin(skewed_family, c=2)
        for (a, b), count in list(result.counts.items())[:100]:
            assert count == skewed_family.intersection_size(a, b)

    def test_pairs_are_canonical(self, skewed_family):
        result = ssj_mmjoin(skewed_family, c=2)
        for a, b in result.pairs:
            assert a < b

    def test_no_self_pairs(self, skewed_family):
        result = ssj_mmjoin(skewed_family, c=1)
        assert all(a != b for a, b in result.pairs)

    def test_higher_c_gives_subset(self, skewed_family):
        loose = ssj_mmjoin(skewed_family, c=2).pairs
        strict = ssj_mmjoin(skewed_family, c=4).pairs
        assert strict <= loose

    def test_cross_family_join(self, small_family, skewed_family):
        result = ssj_mmjoin(small_family, c=1, other=skewed_family)
        for a, b in list(result.pairs)[:50]:
            overlap = len(
                set(small_family.get(a).tolist()) & set(skewed_family.get(b).tolist())
            )
            assert overlap >= 1

    def test_dispatcher_validation(self, small_family):
        with pytest.raises(ValueError):
            set_similarity_join(small_family, c=0)
        with pytest.raises(ValueError):
            set_similarity_join(small_family, method="nope")

    @pytest.mark.parametrize("method", ["mmjoin", "sizeaware", "sizeaware++"])
    def test_dispatcher_routes(self, small_family, method):
        result = set_similarity_join(small_family, c=2, method=method)
        assert result.pairs == ssj_bruteforce(small_family, 2).pairs

    def test_size_boundary_positive(self, skewed_family):
        for c in (1, 2, 4):
            assert size_boundary(skewed_family, c) >= 1

    def test_sizeaware_records_partition_sizes(self, skewed_family):
        result = ssj_sizeaware(skewed_family, c=2)
        assert result.heavy_sets + result.light_sets == skewed_family.num_sets()


class TestCountedSelfJoinIsSymmetric:
    """``ssj_from_counted`` keeps the ``a < b`` half of a self-join with a mask.

    That is only the unordered result if the counting self-join block holds
    ``(b, a)`` with the same overlap whenever it holds ``(a, b)``, in
    canonical order — on every plan and through the sharded merge.
    """

    @settings(max_examples=25, deadline=None)
    @given(family=set_families(max_size=80))
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("config", [
        MMJoinConfig(delta1=1, delta2=1),
        MMJoinConfig(delta1=2, delta2=2, matrix_backend="sparse"),
        MMJoinConfig().without_optimizer(),
    ])
    def test_block_equals_its_transpose(self, family, shards, config):
        with QuerySession(config=config, shards=shards) as session:
            session.register_family(family, name="F", sharded=shards > 1)
            counted = session.two_path("F", counting=True, use_memo=False).result_counted
            ssj = session.similarity("F", c=2)
        a_col, b_col = counted.columns
        assert counted.deduped
        transposed = CountedPairBlock((b_col, a_col), counted.counts).dedup()
        assert np.array_equal(transposed.as_array(), counted.as_array())
        assert np.array_equal(transposed.counts, counted.counts)
        expected = ssj_bruteforce(family, c=2)
        assert ssj.pairs == expected.pairs and ssj.counts == expected.counts
        assert list(ssj.counts) == sorted(ssj.counts)  # canonical, with no sort


class TestSizeAwarePlusAblation:
    """The Figure 8 configurations must all be correct; only speed differs."""

    @pytest.mark.parametrize("heavy_mm,light_mm,prefix", [
        (False, False, False),   # NO-OP
        (False, True, False),    # Light
        (True, True, False),     # Heavy
        (True, False, True),     # Prefix
        (True, True, True),
    ])
    def test_every_configuration_correct(self, skewed_family, heavy_mm, light_mm, prefix):
        expected = ssj_bruteforce(skewed_family, 2).pairs
        result = ssj_sizeaware_plus(
            skewed_family, 2, heavy_mm=heavy_mm, light_mm=light_mm, prefix=prefix
        )
        assert result.pairs == expected

    def test_prefix_depth_limit_still_correct(self, skewed_family):
        expected = ssj_bruteforce(skewed_family, 2).pairs
        result = ssj_sizeaware_plus(
            skewed_family, 2, heavy_mm=True, light_mm=False, prefix=True, prefix_depth=2
        )
        assert result.pairs == expected


class TestOrderedSSJ:
    @pytest.mark.parametrize("method", ["mmjoin", "sizeaware", "sizeaware++"])
    def test_ordering_is_by_decreasing_overlap(self, skewed_family, method):
        result = ordered_set_similarity_join(skewed_family, c=2, method=method)
        overlaps = [count for _, count in result.ordered_pairs]
        assert overlaps == sorted(overlaps, reverse=True)

    @pytest.mark.parametrize("method", ["mmjoin", "sizeaware", "sizeaware++"])
    def test_same_pairs_as_unordered(self, skewed_family, method):
        ordered = ordered_set_similarity_join(skewed_family, c=2, method=method)
        expected = ssj_bruteforce(skewed_family, 2).pairs
        assert set(ordered.pairs()) == expected

    def test_overlaps_are_exact(self, skewed_family):
        result = ordered_set_similarity_join(skewed_family, c=2, method="sizeaware")
        for (a, b), count in result.ordered_pairs[:100]:
            assert count == skewed_family.intersection_size(a, b)

    def test_top_k(self, skewed_family):
        top3 = top_k_similar(skewed_family, k=3, c=1)
        full = ordered_set_similarity_join(skewed_family, c=1).ordered_pairs
        assert top3 == full[:3]

    def test_invalid_method(self, small_family):
        with pytest.raises(ValueError):
            ordered_set_similarity_join(small_family, method="bogus")

    def test_timings_include_sort(self, small_family):
        result = ordered_set_similarity_join(small_family, c=1)
        assert "sort" in result.timings and "total" in result.timings
