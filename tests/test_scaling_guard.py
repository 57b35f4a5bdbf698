"""Deterministic scaling guard for the cold path.

Counts interpreter-level calls (Python and C functions, via ``sys.setprofile``)
of one cold ``QuerySession().two_path`` at N and 4N tuples.  The count is a
property of the code, not of the machine, so it cannot flake — and any
per-tuple Python loop reintroduced under register / optimizer / partition /
operand build multiplies it by about four and fails here.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

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


def count_calls(rows: np.ndarray) -> tuple:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    with QuerySession() as session:
        sys.setprofile(profiler)
        try:
            session.register(Relation(rows, name="R"))
            result = session.two_path("R")
        finally:
            sys.setprofile(None)
    return calls, result


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
