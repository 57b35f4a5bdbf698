"""Deterministic guard: the cold path dedups by sorting packed keys, twice at most,
reflects on no signature, and neither the set joins nor the one-shot joins and
their block baselines build a Python tuple inside a query.

``np.unique`` (a stable argsort plus gathers once ``return_index`` is asked
for) and ``np.lexsort`` are what the result layer used to deduplicate with;
on inputs whose rows pack into one int64 key they must not be reached at
all.  The guard patches both to raise and counts ``PairBlock.dedup`` calls —
counts are a property of the code, not of the machine, so this cannot flake.
"""

from __future__ import annotations

import contextlib
import inspect

import numpy as np
import pytest
from oracle import star_pairs, two_path_counts, two_path_pairs
from test_scaling_guard import dense_rows, sparse_rows

from repro.cli import _serve_command
from repro.core.bsi import BooleanSetIntersection
from repro.core.config import MMJoinConfig
from repro.core.star import star_join
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.data.pairblock import CountedPairBlock, PairBlock
from repro.data.relation import Relation
from repro.data.setfamily import SetFamily
from repro.joins.baseline import (
    combinatorial_star_block,
    combinatorial_two_path_block,
)
from repro.serve import QuerySession
from repro.setops.scj import scj_bruteforce
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
def forbidden_reflection(monkeypatch):
    """``inspect.signature`` raises inside the returned context (pytest itself
    calls it between fixtures, so the patch cannot span the whole test)."""
    def raiser(*args, **kwargs):
        raise AssertionError("inspect.signature reached inside a query")

    @contextlib.contextmanager
    def guard():
        with monkeypatch.context() as patch:
            patch.setattr(inspect, "signature", raiser)
            yield

    return guard


@pytest.fixture
def forbidden_views(monkeypatch):
    """The boundary conversions raise until the returned ``allow()`` is called."""
    def raiser(self):
        raise AssertionError("a block was turned into Python tuples inside a query")

    with monkeypatch.context() as patch:
        patch.setattr(PairBlock, "to_set", raiser)
        patch.setattr(CountedPairBlock, "to_set", raiser)
        patch.setattr(CountedPairBlock, "to_dict", raiser)
        yield patch.undo


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
def test_cold_two_path_sorts_keys_only(forbidden_sorts, forbidden_reflection,
                                       dedup_calls, make_rows, strategy, max_dedups):
    relation = Relation(make_rows(1), name="R")
    with QuerySession() as session:
        session.register(relation)
        with forbidden_reflection():
            result = session.two_path("R")
    assert result.explanation.strategy == strategy
    assert 1 <= dedup_calls["pairs"] <= max_dedups, dedup_calls
    assert dedup_calls["counted"] == 0, dedup_calls
    assert result.result_block.layout is None  # decoded inside the pipeline
    assert result.pairs == two_path_pairs(relation, relation)


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


def test_set_joins_stay_columnar(forbidden_sorts, forbidden_views, capsys):
    rows = dense_rows(1)
    # Set 1000 + i is set i cut down to its elements below 6, so it is contained in it.
    rows = np.concatenate([rows, rows[rows[:, 1] < 6] + [1000, 0]])
    family = SetFamily.from_relation(Relation(rows, name="F"))
    with QuerySession() as session:
        session.register_family(family, name="F")
        session.register(family.relation, name="R")
        sweep = {c: session.similarity("F", c=c) for c in (2, 12, 1)}
        contained = session.containment("F")
        assert _serve_command(session, "ssj 2") and _serve_command(session, "scj")
    result = sweep[2]
    out = capsys.readouterr().out
    assert "error" not in out
    assert f"ssj(c=2): {len(result)} similar pairs" in out
    assert f"scj: {len(contained)} containment pairs" in out
    expected = {c: ssj_bruteforce(family, c=c) for c in sweep}
    assert [len(sweep[c]) for c in sweep] == [len(expected[c]) for c in sweep]
    some_pair = next(iter(expected[2].pairs))
    assert some_pair in result and some_pair[::-1] in result
    assert (0, 0) not in result and (10**9, 3) not in result
    expected_scj = scj_bruteforce(family, family)
    assert len(contained) == len(expected_scj)
    assert all(pair in contained for pair in list(expected_scj.pairs)[:20])
    forbidden_views()  # the caller's reads are allowed to materialise
    for c in sweep:
        assert sweep[c].counts == expected[c].counts
        assert sweep[c].pairs == expected[c].pairs
    assert contained.pairs == expected_scj.pairs


def test_one_shot_joins_stay_columnar(forbidden_views):
    relation = Relation(dense_rows(1), name="R")
    # The first rows cover a few x values only, which keeps the 3-star small.
    head = Relation(dense_rows(1)[:300], name="H")
    star_input = [head, head, head]
    pairs = two_path_join(relation, relation)
    counted = two_path_join_counts(relation, relation)
    star = star_join(star_input, config=MMJoinConfig(delta1=2, delta2=2))
    baseline = combinatorial_two_path_block(relation, relation)
    baseline_star = combinatorial_star_block(star_input)
    assert pairs.strategy == counted.strategy == star.strategy == "mmjoin"
    assert pairs.result_block == baseline and star.result_block == baseline_star
    forbidden_views()  # the caller's reads are allowed to materialise
    assert pairs.pairs == two_path_pairs(relation, relation)
    assert counted.counts == two_path_counts(relation, relation)
    assert star.pairs == star_pairs(star_input)


def test_bsi_batch_answers_from_the_block(forbidden_views):
    relation = Relation(dense_rows(1), name="R")
    heads = relation.x_values()
    rng = np.random.default_rng(5)
    batch = [(int(a), int(b)) for a, b in rng.choice(heads, size=(200, 2))]
    batch.append((10**9, int(heads[0])))  # an absent set is a negative answer
    result = BooleanSetIntersection(relation, relation).answer_batch(batch)
    forbidden_views()  # the caller's reads are allowed to materialise
    expected = two_path_pairs(relation, relation)
    assert result.answers == {pair: pair in expected for pair in batch}
    assert 0 < sum(result.answers.values()) < len(result.answers)
