"""Deterministic scaling guard for the cold path.

Counts interpreter-level calls (Python and C functions, via ``sys.setprofile``)
of one cold ``QuerySession().two_path`` at N and 4N tuples.  The count is a
property of the code, not of the machine, so it cannot flake — and any
per-tuple Python loop reintroduced under register / optimizer / partition /
operand build multiplies it by about four and fails here.  The same profiler
checks that the optimizer's threshold search costs the same number of calls
whatever its step count, and a counting hook on ``CSRIndex`` pins how many
indexes one cold op builds (each relation's two, none on a semijoin copy).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.optimizer import CostBasedOptimizer
from repro.data import relation as relation_module
from repro.data.relation import Relation
from repro.serve import QuerySession

# One cold op is ~2-4 k calls at either size (it was ~129 k on the benchmark's
# sparse input while the indexes were dicts).
CALL_CEILING = 8_000
GROWTH_LIMIT = 1.5


def sparse_rows(scale: int) -> np.ndarray:
    """dblp-shaped: many small sets over a wide domain (combinatorial plan)."""
    rng = np.random.default_rng(11)
    return np.column_stack([rng.integers(0, 1_000 * scale, 3_000 * scale),
                            rng.integers(0, 2_200 * scale, 3_000 * scale)])


def dense_rows(scale: int) -> np.ndarray:
    """Half-full bipartite block (MMJoin plan); ``scale`` quadruples the tuples at 2."""
    rng = np.random.default_rng(12)
    side = {1: 1, 4: 2}[scale]
    xs, ys = np.nonzero(rng.random((70 * side, 40 * side)) < 0.5)
    return np.column_stack([xs, ys])


def profiled(fn) -> tuple:
    """``(calls, result)`` of ``fn()`` under the call-counting profiler."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def count_calls(rows: np.ndarray) -> tuple:
    with QuerySession() as session:
        def run():
            session.register(Relation(rows, name="R"))
            return session.two_path("R")

        return profiled(run)


@pytest.mark.parametrize("make_rows, strategy", [(sparse_rows, "wcoj"), (dense_rows, "mmjoin")])
def test_cold_two_path_calls_do_not_grow_with_tuples(make_rows, strategy):
    small, large = make_rows(1), make_rows(4)
    assert 3.5 < len(Relation(large)) / len(Relation(small)) < 4.5
    calls_small, result_small = count_calls(small)
    calls_large, result_large = count_calls(large)
    assert result_small.explanation.strategy == strategy
    assert result_large.explanation.strategy == strategy
    assert calls_large < GROWTH_LIMIT * calls_small, (calls_small, calls_large)
    assert calls_large < CALL_CEILING, calls_large


def test_optimizer_calls_do_not_grow_with_search_steps():
    """The threshold grid is priced in one array pass, not one step at a time."""
    optimizer = CostBasedOptimizer()
    warm_up = Relation(dense_rows(1))
    optimizer.choose_two_path(warm_up, warm_up)  # first-call imports stay out of the count
    few = Relation(dense_rows(1))
    many = Relation(np.column_stack(np.nonzero(
        np.random.default_rng(12).random((280, 160)) < 0.5)))
    calls_few, short = profiled(lambda: optimizer.choose_two_path(few, few))
    calls_many, long = profiled(lambda: optimizer.choose_two_path(many, many))
    assert short.strategy == long.strategy == "mmjoin"
    assert long.search_steps >= short.search_steps + 2, (short, long)
    assert calls_many == calls_few, (calls_few, calls_many)


@pytest.fixture
def csr_builds(monkeypatch):
    """Counts every ``CSRIndex`` built while the test runs."""
    built = []
    init = relation_module.CSRIndex.__init__

    def counting_init(self, column, values):
        built.append(column.size)
        init(self, column, values)

    monkeypatch.setattr(relation_module.CSRIndex, "__init__", counting_init)
    return built


def test_cold_self_join_builds_each_index_once(csr_builds):
    """One relation, two indexes: the semijoin and the optimizer share them."""
    relation = Relation(sparse_rows(1), name="R")
    with QuerySession() as session:
        session.register(relation)
        result = session.two_path("R")
    assert result.explanation.strategy == "wcoj"
    assert len(csr_builds) == 2, csr_builds
    assert relation._csr_x is not None and relation._csr_y is not None


def test_non_dangling_pair_builds_no_index_on_a_copy(csr_builds):
    rows = sparse_rows(1)
    # The same y column under other heads: no y value dangles on either side.
    left = Relation(rows, name="R")
    right = Relation(np.column_stack([rows[::-1, 0], rows[:, 1]]), name="S")
    with QuerySession() as session:
        session.register(left)
        session.register(right)
        result = session.two_path("R", "S")
    assert result.explanation.strategy == "wcoj"
    # Two indexes per registered relation, none on a semijoin copy.
    assert len(csr_builds) == 4, csr_builds
    assert all(rel._csr_x is not None and rel._csr_y is not None for rel in (left, right))
