"""Unit tests for repro.core.config."""

import dataclasses

import pytest

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig


class TestMMJoinConfig:
    def test_defaults(self):
        config = MMJoinConfig()
        assert config.delta1 is None and config.delta2 is None
        assert config.use_optimizer
        assert config.cores == 1

    def test_with_thresholds(self):
        config = DEFAULT_CONFIG.with_thresholds(4, 9)
        assert (config.delta1, config.delta2) == (4, 9)
        # the original is unchanged (frozen dataclass semantics)
        assert DEFAULT_CONFIG.delta1 is None

    def test_with_cores(self):
        assert DEFAULT_CONFIG.with_cores(8).cores == 8

    def test_with_backend(self):
        assert DEFAULT_CONFIG.with_backend("sparse").matrix_backend == "sparse"

    def test_without_optimizer(self):
        assert DEFAULT_CONFIG.without_optimizer().use_optimizer is False

    @pytest.mark.parametrize("kwargs", [
        {"matrix_backend": "gpu"},
        {"matrix_backend": "strassen"},
        {"matrix_backend": "blocked"},
        {"full_join_factor": -1},
        {"cores": 0},
        {"delta1": 0},
        {"delta2": -3},
        {"extract_tile_rows": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MMJoinConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_CONFIG.cores = 5  # type: ignore[misc]

    @pytest.mark.parametrize(
        "field", ["dedup_strategy", "sparse_density_threshold", "optimizer_shrink"]
    )
    def test_deleted_fields_not_silently_accepted(self, field):
        with pytest.raises(TypeError):
            MMJoinConfig(**{field: 0.5})

    def test_any_single_field_change_changes_the_cache_key(self):
        """Session caches key on the config itself: no field is left out."""
        other_value = {
            "delta1": 3, "delta2": 5, "full_join_factor": 7.0,
            "matrix_backend": "sparse", "cores": 2, "max_heavy_dimension": 99,
            "extract_tile_rows": 16, "extract_mode": "tiled", "use_optimizer": False,
        }
        names = [f.name for f in dataclasses.fields(MMJoinConfig)]
        assert sorted(names) == sorted(other_value)
        for name in names:
            changed = dataclasses.replace(DEFAULT_CONFIG, **{name: other_value[name]})
            assert len({("memo", DEFAULT_CONFIG), ("memo", changed)}) == 2, name
