"""Shared hypothesis strategies and seeded generators for the test suite.

Every property/differential test draws its inputs from here instead of
re-defining ad-hoc generators, so the whole suite agrees on what a "random
relation" covers:

* **uniform** pair lists over a small domain (dense collision-heavy keys);
* **skewed / heavy-hitter** lists — one hot witness with a large fanout, the
  shape the light/heavy partition exists for;
* **empty** and **single-row** edge cases;
* **signed** values (negative keys exercise the packed layout's offsets);
* **huge-domain** values (up to ``2**40``) that overflow the packed-int64
  fast path and force the ``np.unique(axis=0)`` fallback;
* **boundary** values whose columns add up to exactly 62 key bits, or one
  more — the last rows the packed path takes and the first it refuses.

The seeded (non-hypothesis) ``random_relation`` generator lives here too so
deterministic parametrised tests share the same input shapes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.data.setfamily import SetFamily

Pair = Tuple[int, int]

# Values deliberately include 0 and a huge outlier range so both the
# packed-int64-key fast path and the unique(axis=0) fallback are exercised.
SMALL_VALUES = st.integers(min_value=0, max_value=40)
SIGNED_VALUES = st.integers(min_value=-25, max_value=25)
HUGE_VALUES = st.integers(min_value=0, max_value=2**40)


# --------------------------------------------------------------------------- #
# Row-list strategies
# --------------------------------------------------------------------------- #
def pair_lists(values=SMALL_VALUES, max_size: int = 120, min_size: int = 0):
    """Uniform ``(x, y)`` row lists."""
    return st.lists(st.tuples(values, values), min_size=min_size, max_size=max_size)


def triple_lists(values=SMALL_VALUES, max_size: int = 80):
    """Uniform ``(a, b, c)`` row lists (arity-3 blocks)."""
    return st.lists(st.tuples(values, values, values), min_size=0, max_size=max_size)


@st.composite
def skewed_pair_lists(draw, values=SMALL_VALUES, max_size: int = 100,
                      max_fanout: int = 30) -> List[Pair]:
    """Heavy-hitter rows: a uniform base plus one hot witness with big fanout.

    The hot witness's degree exceeds any reasonable light threshold, so the
    pipeline's heavy (matrix) path is exercised even on small inputs.
    """
    base = draw(pair_lists(values=values, max_size=max_size))
    hot_y = draw(values)
    fanout = draw(st.integers(min_value=5, max_value=max_fanout))
    first_x = draw(st.integers(min_value=0, max_value=10))
    return base + [(first_x + i, hot_y) for i in range(fanout)]


def relation_rows(values=SMALL_VALUES, max_size: int = 120):
    """The canonical mix: empty, single-row, uniform, and heavy-hitter lists."""
    return st.one_of(
        st.just([]),
        pair_lists(values=values, max_size=1, min_size=1),
        pair_lists(values=values, max_size=max_size),
        skewed_pair_lists(values=values, max_size=max_size),
    )


def huge_domain_rows(max_size: int = 40):
    """Rows whose values overflow the packed-key fast path."""
    return pair_lists(values=HUGE_VALUES, max_size=max_size)


@st.composite
def boundary_rows(draw, arity: int = 2, max_size: int = 40) -> List[Tuple[int, ...]]:
    """Rows straddling the packed-key limit of 62 bits.

    Every column spans exactly ``w = 62 // arity`` bits (the widest rows the
    packed path takes) or ``w + 1`` bits (the narrowest that need the
    fallback); the extreme rows are always present so the span is exact.
    """
    width = 62 // arity
    top = draw(st.sampled_from([2**width - 1, 2**width]))
    values = st.integers(min_value=0, max_value=top)
    rows = draw(st.lists(st.tuples(*[values] * arity), max_size=max_size))
    return rows + [(0,) * arity, (top,) * arity]


def any_domain_rows(max_size: int = 100):
    """The canonical mix over small, signed, 62-bit-boundary and
    packed-key-overflowing domains."""
    return st.one_of(
        relation_rows(values=SMALL_VALUES, max_size=max_size),
        relation_rows(values=SIGNED_VALUES, max_size=max_size),
        boundary_rows(max_size=min(max_size, 40)),
        huge_domain_rows(),
    )


def any_domain_tuples(arity: int, max_size: int = 60):
    """:func:`any_domain_rows` for arity-``k`` blocks: small (collision-heavy),
    signed, 62-bit-boundary and overflowing domains; empty and single-row lists."""
    def rows(values, size=max_size):
        return st.lists(st.tuples(*[values] * arity), max_size=size)

    return st.one_of(
        st.just([]),
        rows(SMALL_VALUES, 1),
        rows(st.integers(min_value=0, max_value=3)),  # heavy duplication
        rows(SMALL_VALUES),
        rows(SIGNED_VALUES),
        boundary_rows(arity=arity, max_size=min(max_size, 40)),
        rows(HUGE_VALUES, 40),
    )


# --------------------------------------------------------------------------- #
# Relation / set-family strategies
# --------------------------------------------------------------------------- #
@st.composite
def relations(draw, name: str = "R", values=SMALL_VALUES, max_size: int = 120) -> Relation:
    """One relation drawn from the canonical row mix."""
    return Relation.from_pairs(draw(relation_rows(values=values, max_size=max_size)),
                               name=name)


@st.composite
def relation_pairs(draw, values=SMALL_VALUES,
                   max_size: int = 120) -> Tuple[Relation, Relation]:
    """Two relations sharing a y domain (the two-path query input)."""
    left = draw(relations(name="R", values=values, max_size=max_size))
    right = draw(relations(name="S", values=values, max_size=max_size))
    return left, right


@st.composite
def relation_lists(draw, k_min: int = 2, k_max: int = 3, values=SMALL_VALUES,
                   max_size: int = 80) -> List[Relation]:
    """``k`` relations joined on the shared witness (the star query input)."""
    k = draw(st.integers(min_value=k_min, max_value=k_max))
    return [
        draw(relations(name=f"R{i}", values=values, max_size=max_size))
        for i in range(k)
    ]


@st.composite
def set_families(draw, values=SMALL_VALUES, max_size: int = 100) -> SetFamily:
    """A set family over the canonical row mix (SSJ/SCJ input)."""
    return SetFamily.from_relation(
        draw(relations(name="F", values=values, max_size=max_size))
    )


# --------------------------------------------------------------------------- #
# Seeded generators (deterministic parametrised tests)
# --------------------------------------------------------------------------- #
def random_relation(seed: int, n_pairs: int = 140, x_domain: int = 18,
                    y_domain: int = 12, name: str = "R") -> Relation:
    """The seeded uniform relation shared by the deterministic grid tests."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, x_domain, size=n_pairs)
    ys = rng.integers(0, y_domain, size=n_pairs)
    return Relation.from_pairs(list(zip(xs.tolist(), ys.tolist())), name=name)


def skewed_random_relation(seed: int, n_pairs: int = 200, x_domain: int = 40,
                           y_domain: int = 30, hot_fraction: float = 0.3,
                           name: str = "R") -> Relation:
    """Seeded heavy-hitter relation: a fraction of rows share one witness."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, x_domain, size=n_pairs)
    ys = rng.integers(0, y_domain, size=n_pairs)
    hot_rows = max(int(n_pairs * hot_fraction), 1)
    ys[:hot_rows] = int(rng.integers(0, y_domain))
    return Relation.from_pairs(list(zip(xs.tolist(), ys.tolist())), name=name)
