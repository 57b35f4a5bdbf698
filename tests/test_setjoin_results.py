"""Block-backed SSJ / SCJ results are the old Python sets, read lazily.

Every method of both joins — MMJoin ones that hand back the pipeline's block
and Python-native ones that pass ready-made sets through the same class —
must show the brute-force reference through ``pairs`` / ``counts`` / ``len``
/ ``in`` / iteration, on self-joins and two-family joins; and the ordered
join must enumerate exactly the old ``(-count, pair)`` order, ties included.
"""

import pytest
from hypothesis import given, settings
from strategies import set_families

from repro.data.setfamily import SetFamily
from repro.serve import QuerySession
from repro.setops.scj import SCJ_METHODS, scj_bruteforce, set_containment_join
from repro.setops.ssj import (
    SSJ_METHODS,
    set_similarity_join,
    ssj_bruteforce,
    ssj_mmjoin,
)
from repro.setops.ssj_ordered import ordered_set_similarity_join, top_k_similar

OVERLAPS = (1, 2, 3)


def two_family_reference(family, other, c):
    """``{(a in family, b in other): |a ∩ b|}`` for overlaps of at least ``c``."""
    counts = {}
    for a in family.set_ids().tolist():
        for b in other.set_ids().tolist():
            overlap = len(set(family.get(a).tolist()) & set(other.get(b).tolist()))
            if overlap >= c:
                counts[(a, b)] = overlap
    return counts


def assert_views(result, pairs, probes):
    """``len`` / ``in`` / iteration / ``pairs`` of ``result`` all show ``pairs``."""
    assert len(result) == len(pairs)
    for probe, present in probes:
        assert (probe in result) is present, probe
    assert set(result) == pairs and result.pairs == pairs
    assert len(result) == len(pairs)  # unchanged once the views exist


class TestSimilarityViews:
    @settings(max_examples=25, deadline=None)
    @given(family=set_families(max_size=60))
    @pytest.mark.parametrize("method", SSJ_METHODS)
    def test_self_join_matches_bruteforce(self, family, method):
        for c in OVERLAPS:
            expected = ssj_bruteforce(family, c=c)
            result = set_similarity_join(family, c=c, method=method)
            probes = [(p, True) for p in expected.pairs]
            probes += [(p[::-1], True) for p in expected.pairs]  # unordered
            probes += [((a, a), False) for a in family.set_ids().tolist()]
            probes += [((-7, 10**12), False)]
            assert_views(result, expected.pairs, probes)
            if method == "sizeaware":  # overlaps of heavy pairs only
                assert result.counts.items() <= expected.counts.items()
            else:
                assert result.counts == expected.counts

    @settings(max_examples=25, deadline=None)
    @given(family=set_families(max_size=50), other=set_families(max_size=50))
    def test_two_family_join_keeps_ordered_pairs(self, family, other):
        for c in OVERLAPS:
            expected = two_family_reference(family, other, c)
            result = ssj_mmjoin(family, c, other=other)
            probes = [(p, True) for p in expected]
            probes += [(p[::-1], p[::-1] in expected) for p in expected]
            assert_views(result, set(expected), probes)
            assert result.counts == expected

    def test_two_family_contains_regression(self):
        family = SetFamily.from_dict({5: {1, 2}, 9: {7}})
        other = SetFamily.from_dict({3: {1, 2}, 8: {1}})
        result = ssj_mmjoin(family, 2, other=other)
        assert result.pairs == {(5, 3)}
        assert (5, 3) in result and (3, 5) not in result

    def test_results_of_one_memoised_block_are_independent(self, skewed_family):
        expected = {c: ssj_bruteforce(skewed_family, c=c) for c in OVERLAPS}
        with QuerySession() as session:
            session.register_family(skewed_family, name="F")
            first = session.similarity("F", c=1)
            second = session.similarity("F", c=2)
            assert first.counts == expected[1].counts
            first.pairs.clear()
            first.counts.clear()
            first.block.counts[:] = -1
            assert second.pairs == expected[2].pairs
            assert second.counts == expected[2].counts
            second.pairs.clear()
            for c in OVERLAPS:  # the memoised block itself is untouched
                again = session.similarity("F", c=c)
                assert again.counts == expected[c].counts
                assert again.pairs is not session.similarity("F", c=c).pairs


class TestContainmentViews:
    @settings(max_examples=25, deadline=None)
    @given(family=set_families(max_size=60))
    @pytest.mark.parametrize("method", SCJ_METHODS)
    def test_self_join_matches_bruteforce(self, family, method):
        expected = scj_bruteforce(family, family).pairs
        result = set_containment_join(family, method=method)
        probes = [(p, True) for p in expected]
        probes += [(p[::-1], p[::-1] in expected) for p in expected]
        probes += [((a, a), False) for a in family.set_ids().tolist()]
        assert_views(result, expected, probes)

    @settings(max_examples=25, deadline=None)
    @given(family=set_families(max_size=50), other=set_families(max_size=50))
    @pytest.mark.parametrize("method", SCJ_METHODS)
    def test_two_family_join_matches_bruteforce(self, family, other, method):
        if method != "mmjoin":
            # The Python-native methods drop equal ids even across two
            # families; give them disjoint id spaces.
            other = SetFamily.from_dict(
                {b + 1000: elements.tolist() for b, elements in other.sets().items()}
            )
        expected = scj_bruteforce(family, other).pairs
        result = set_containment_join(family, other, method=method)
        probes = [(p, True) for p in expected]
        probes += [(p[::-1], p[::-1] in expected) for p in expected]
        assert_views(result, expected, probes)


class TestOrderedEnumeration:
    @settings(max_examples=20, deadline=None)
    @given(family=set_families(max_size=60))
    @pytest.mark.parametrize("method", SSJ_METHODS)
    def test_old_order_including_ties(self, family, method):
        for c in OVERLAPS:
            reference = sorted(ssj_bruteforce(family, c=c).counts.items(),
                               key=lambda item: (-item[1], item[0]))
            ordered = ordered_set_similarity_join(family, c=c, method=method)
            assert len(ordered) == len(reference)
            for k in (0, 1, len(reference), len(reference) + 1):
                assert ordered.top(k) == reference[:k]
                assert top_k_similar(family, k, c=c, method=method) == reference[:k]
            assert ordered.ordered_pairs == reference == list(ordered)
            assert ordered.pairs() == [pair for pair, _ in reference]
