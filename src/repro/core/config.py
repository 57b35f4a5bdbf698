"""Configuration knobs for the MMJoin algorithms.

All tunables of the paper's prototype are gathered in one immutable dataclass
so experiments (and the ablation benchmarks) can state exactly which variant
they run.  Every field changes the plan or an artifact derived from it, so
the frozen (hashable, compared by value) config is itself the component of
every session cache key — a new field is keyed without anyone listing it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


MATRIX_BACKENDS = ("dense", "sparse", "auto")


def _is_registered_backend(name: str) -> bool:
    """Whether ``name`` is a custom backend in the default matmul registry.

    Imported lazily: the registry module itself depends on this one, and the
    built-in names short-circuit before this is ever consulted.
    """
    try:
        from repro.matmul.registry import default_registry
    except ImportError:  # pragma: no cover - registry is part of the package
        return False
    return name in default_registry()


EXTRACT_MODES = ("auto", "full", "tiled", "adaptive", "core")


@dataclass(frozen=True)
class MMJoinConfig:
    """Tunables of the MMJoin evaluation pipeline.

    Attributes
    ----------
    delta1:
        Degree threshold for the join variable ``y``.  ``None`` lets the
        cost-based optimizer choose.
    delta2:
        Degree threshold for the head variables (``x`` / ``z`` / ``x_i``).
        ``None`` lets the optimizer choose.
    full_join_factor:
        If the full join is at most ``full_join_factor * |D|`` the optimizer
        skips partitioning and evaluates the plain worst-case optimal join
        (the paper uses 20).
    matrix_backend:
        A backend name registered in the matmul
        :class:`~repro.matmul.registry.BackendRegistry` (``dense``,
        ``sparse``, or one registered at runtime) or ``auto``, which lets
        the registry pick the cheapest backend via the calibrated cost
        model.
    cores:
        Number of cores the parallel executor may use; also fed to the
        matmul cost model.
    max_heavy_dimension:
        Safety cap on the number of heavy values per matrix dimension; keeps
        the dense matrices within memory on very skewed inputs.
    extract_tile_rows:
        Row-band height of the dense backends' tiled non-zero extraction
        (see :mod:`repro.matmul.tiling`).  ``None`` (default) resolves a
        density-aware tile automatically; ``0`` forces the one-shot full
        scan; any positive value pins the band height.
    extract_mode:
        Strategy of the non-zero extraction scan.  ``"auto"`` (default) lets
        the scan pick per product: tiny products go one-shot, everything
        else screens bands adaptively (bailing out to a one-shot scan when
        the observed live-row density says screening is wasted).  ``"full"``
        forces the one-shot scan, ``"tiled"`` forces screening with the
        bail-out disarmed, ``"adaptive"`` forces screening with the bail-out
        armed, and ``"core"`` enables the DIM3 dense-core mapping
        (:mod:`repro.matmul.mapping`): a degree-sorted permutation clusters
        hot rows/columns into a dense core that is extracted one-shot while
        the sparse remainder stays tiled.
    use_optimizer:
        When False and thresholds are given, they are used verbatim; when
        True the cost-based optimizer may still fall back to the plain WCOJ.
    """

    delta1: Optional[int] = None
    delta2: Optional[int] = None
    full_join_factor: float = 20.0
    matrix_backend: str = "auto"
    cores: int = 1
    max_heavy_dimension: int = 20_000
    extract_tile_rows: Optional[int] = None
    extract_mode: str = "auto"
    use_optimizer: bool = True

    def __post_init__(self) -> None:
        if self.matrix_backend not in MATRIX_BACKENDS and not _is_registered_backend(
            self.matrix_backend
        ):
            raise ValueError(
                f"matrix_backend must be one of {MATRIX_BACKENDS} or a backend "
                f"registered in the matmul BackendRegistry, got {self.matrix_backend!r}"
            )
        if self.full_join_factor <= 0:
            raise ValueError("full_join_factor must be positive")
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if self.delta1 is not None and self.delta1 < 1:
            raise ValueError("delta1 must be at least 1")
        if self.delta2 is not None and self.delta2 < 1:
            raise ValueError("delta2 must be at least 1")
        if self.extract_tile_rows is not None and self.extract_tile_rows < 0:
            raise ValueError(
                "extract_tile_rows must be None (auto), 0 (full scan) or positive"
            )
        if self.extract_mode not in EXTRACT_MODES:
            raise ValueError(
                f"extract_mode must be one of {EXTRACT_MODES}, got {self.extract_mode!r}"
            )

    def with_thresholds(self, delta1: int, delta2: int) -> "MMJoinConfig":
        """Return a copy with fixed degree thresholds."""
        return replace(self, delta1=int(delta1), delta2=int(delta2))

    def with_cores(self, cores: int) -> "MMJoinConfig":
        """Return a copy with a different core count."""
        return replace(self, cores=int(cores))

    def with_backend(self, backend: str) -> "MMJoinConfig":
        """Return a copy with a different matrix backend."""
        return replace(self, matrix_backend=backend)

    def without_optimizer(self) -> "MMJoinConfig":
        """Return a copy that will not run the cost-based optimizer."""
        return replace(self, use_optimizer=False)


DEFAULT_CONFIG = MMJoinConfig()
