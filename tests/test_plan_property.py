"""Property test: the planner pipeline equals the combinatorial baselines.

For seeded-random relations (shared generators in ``tests/strategies.py``),
the two-path (set and counting semantics) and star outputs of the planner
pipeline must match the combinatorial reference implementations exactly, for
every backend in the registry and for the optimizer-driven auto path.
"""

import pytest
from oracle import star_pairs, two_path_counts, two_path_pairs
from strategies import random_relation

from repro.core.config import MMJoinConfig
from repro.core.star import star_join
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.matmul.registry import make_default_registry

ALL_BACKENDS = make_default_registry().names()
SEEDS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestTwoPathProperty:
    def test_pairs_equal_combinatorial(self, seed, backend):
        left = random_relation(seed, name="R")
        right = random_relation(seed + 1000, name="S")
        expected = two_path_pairs(left, right)
        # delta1 = delta2 = 1 forces as much work as possible onto the
        # matrix path, exercising the chosen backend.
        config = MMJoinConfig(delta1=1, delta2=1, matrix_backend=backend)
        result = two_path_join(left, right, config=config)
        assert result.pairs == expected
        assert result.backend == backend or result.plan.state.matrix_dims == (0, 0, 0)

    def test_counts_equal_combinatorial(self, seed, backend):
        left = random_relation(seed, name="R")
        right = random_relation(seed + 2000, name="S")
        expected = two_path_counts(left, right)
        config = MMJoinConfig(delta1=1, delta2=1, matrix_backend=backend)
        result = two_path_join_counts(left, right, config=config)
        assert result.counts == expected


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestStarProperty:
    def test_star_equals_combinatorial(self, seed, backend):
        relations = [
            random_relation(seed + offset, n_pairs=90, x_domain=10, y_domain=8,
                            name=f"R{offset}")
            for offset in (0, 100, 200)
        ]
        expected = star_pairs(relations)
        config = MMJoinConfig(delta1=1, delta2=1, matrix_backend=backend)
        result = star_join(relations, config=config)
        assert result.pairs == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_auto_path_with_optimizer(seed):
    """The optimizer-driven auto path agrees with the baseline too."""
    left = random_relation(seed, n_pairs=400, x_domain=40, y_domain=25, name="R")
    right = random_relation(seed + 3000, n_pairs=400, x_domain=40, y_domain=25, name="S")
    assert two_path_join(left, right).pairs == two_path_pairs(left, right)
