"""Deterministic guard: the cold path dedups by sorting packed keys, twice at most.

``np.unique`` (a stable argsort plus gathers once ``return_index`` is asked
for) and ``np.lexsort`` are what the result layer used to deduplicate with;
on inputs whose rows pack into one int64 key they must not be reached at
all.  The guard patches both to raise and counts ``PairBlock.dedup`` calls —
counts are a property of the code, not of the machine, so this cannot flake.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_scaling_guard import dense_rows, sparse_rows

from repro.data.pairblock import CountedPairBlock, PairBlock
from repro.data.relation import Relation
from repro.data.setfamily import SetFamily
from repro.joins.hash_join import hash_join_project
from repro.serve import QuerySession
from repro.setops.ssj import ssj_bruteforce


@pytest.fixture
def forbidden_sorts(monkeypatch):
    def forbidden(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"np.{name} reached on the packable hot path")
        return raiser

    monkeypatch.setattr(np, "unique", forbidden("unique"))
    monkeypatch.setattr(np, "lexsort", forbidden("lexsort"))


@pytest.fixture
def dedup_calls(monkeypatch):
    calls = {"pairs": 0, "counted": 0}

    def counting(cls, key):
        original = cls.dedup

        def dedup(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "dedup", dedup)

    counting(PairBlock, "pairs")
    counting(CountedPairBlock, "counted")
    return calls


@pytest.mark.parametrize("make_rows, strategy, max_dedups",
                         [(dense_rows, "mmjoin", 2), (sparse_rows, "wcoj", 1)])
def test_cold_two_path_sorts_keys_only(forbidden_sorts, dedup_calls,
                                       make_rows, strategy, max_dedups):
    relation = Relation(make_rows(1), name="R")
    with QuerySession() as session:
        session.register(relation)
        result = session.two_path("R")
    assert result.explanation.strategy == strategy
    assert 1 <= dedup_calls["pairs"] <= max_dedups, dedup_calls
    assert dedup_calls["counted"] == 0, dedup_calls
    assert result.result_block.layout is None  # decoded inside the pipeline
    assert result.pairs == hash_join_project(relation, relation)


def test_cold_similarity_sorts_keys_only(forbidden_sorts, dedup_calls):
    family = SetFamily.from_relation(Relation(dense_rows(1), name="F"))
    expected = ssj_bruteforce(family, c=2)
    with QuerySession() as session:
        session.register_family(family, name="F")
        result = session.similarity("F", c=2)
    # Light aggregation and the light/heavy merge; the unordered-pair
    # selection of the self-join is a mask, not a third dedup.
    assert 1 <= dedup_calls["counted"] <= 2, dedup_calls
    assert dedup_calls["pairs"] == 0, dedup_calls
    assert result.counts == expected.counts
