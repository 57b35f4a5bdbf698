"""Calibrated matrix-multiplication cost model (paper Section 5).

The optimizer needs an estimate ``M_hat(u, v, w, cores)`` of the wall-clock
time a ``u x v`` by ``v x w`` product will take on the current machine.  The
paper precomputes a table of square-product timings
``M_hat(p, p, p, cores)`` for ``p in {1000, 2000, ..., 20000}`` and
extrapolates; we do the same but with a smaller default grid (the calibration
is run once per process and cached).

Two models are exposed:

* :func:`rectangular_cost` (alias :func:`theoretical_cost`) — the Lemma 1
  operation count, used by the theory module and by deterministic tests;
* :class:`MatMulCostModel` — the calibrated wall-clock model used by the
  cost-based optimizer, with a deterministic fallback (ops / throughput) so
  the optimizer remains usable without running calibration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def rectangular_cost(u: float, v: float, w: float, omega: float = 3.0) -> float:
    """Lemma 1 cost ``M(U, V, W) = U*V*W * beta^(omega - 3)``, beta = min(U,V,W).

    If two ``n x n`` matrices multiply in ``O(n^omega)``, a ``U x V`` by
    ``V x W`` product splits into ``beta x beta`` blocks multiplied
    blockwise.  With ``omega = 3`` this is the classical ``U*V*W``; with
    ``omega = 2`` it becomes ``U*V*W / beta``.
    """
    if u <= 0 or v <= 0 or w <= 0:
        return 0.0
    beta = min(u, v, w)
    return float(u * v * w * (beta ** (omega - 3.0)))


theoretical_cost = rectangular_cost


@dataclass
class MatMulCostModel:
    """Estimates wall-clock seconds for rectangular float32 products.

    Parameters
    ----------
    calibration_sizes:
        Square sizes to measure when :meth:`calibrate` runs.
    flops_per_second:
        Fallback throughput used before calibration (and for the
        deterministic mode used in tests).  The default corresponds to a
        modest BLAS on one core.
    parallel_efficiency:
        Fraction of linear speedup retained per extra core (the paper
        observes near-linear scaling for Eigen; we default to 85%).
    extract_seconds_per_cell:
        Per-product-cell cost of one extraction scan pass (the non-zero
        readout the dense backends pay after the multiply).
    tile_band_overhead_seconds:
        Fixed Python overhead per row band of the tiled extraction scan.
    """

    calibration_sizes: Sequence[int] = (128, 256, 512)
    flops_per_second: float = 2.0e9
    parallel_efficiency: float = 0.85
    extract_seconds_per_cell: float = 1.0e-9
    tile_band_overhead_seconds: float = 3.0e-6
    _table: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Calibration
    # ------------------------------------------------------------------ #
    def calibrate(self, repeats: int = 2, seed: int = 0) -> Dict[int, float]:
        """Measure square float32 products and fill the calibration table.

        Returns the table ``{size: seconds}``.  Each measurement is the best
        of ``repeats`` runs to reduce noise.
        """
        rng = np.random.default_rng(seed)
        for size in self.calibration_sizes:
            a = rng.random((size, size), dtype=np.float32)
            b = rng.random((size, size), dtype=np.float32)
            best = float("inf")
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                _ = a @ b
                best = min(best, time.perf_counter() - start)
            self._table[int(size)] = best
        return dict(self._table)

    @property
    def is_calibrated(self) -> bool:
        """Whether at least one measured point is available."""
        return bool(self._table)

    def observe(self, u: int, v: int, w: int, cores: int = 1,
                seconds: float = 0.0, blend: float = 0.5) -> None:
        """Fold one *measured* rectangular product into the calibration table.

        This is the serving layer's feedback loop: every heavy matrix product
        a session executes reports its true wall-clock time, which is mapped
        to the equivalent cube (side ``(u*v*w)^(1/3)``) and blended into the
        table entry for that side (exponential moving average with weight
        ``blend``), exactly where :meth:`estimate` will look next time.  The
        optimizer's threshold search and the registry's ``auto`` backend
        choice both read these estimates, so they calibrate in-session
        without an explicit :meth:`calibrate` pass.
        """
        if u <= 0 or v <= 0 or w <= 0 or seconds <= 0.0:
            return
        single_core = float(seconds) * self.speedup(cores)
        side = max(int(round((float(u) * float(v) * float(w)) ** (1.0 / 3.0))), 1)
        # Normalise the measured rectangular time to the equivalent cube's
        # time so the entry is comparable with calibrate()'s square timings.
        ops = 2.0 * float(u) * float(v) * float(w)
        cube_seconds = single_core * (2.0 * float(side) ** 3) / ops
        previous = self._table.get(side)
        if previous is None:
            self._table[side] = cube_seconds
        else:
            self._table[side] = blend * cube_seconds + (1.0 - blend) * previous

    def set_table(self, table: Dict[int, float]) -> None:
        """Install a pre-measured calibration table (e.g. loaded from disk)."""
        self._table = {int(k): float(v) for k, v in table.items()}

    def table(self) -> Dict[int, float]:
        """The current calibration table."""
        return dict(self._table)

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate_square(self, size: int, cores: int = 1) -> float:
        """Estimate seconds for an n x n x n product on ``cores`` cores."""
        return self.estimate(size, size, size, cores=cores)

    def estimate(self, u: int, v: int, w: int, cores: int = 1) -> float:
        """Estimate seconds for a ``u x v @ v x w`` product on ``cores`` cores.

        The rectangular product is mapped to an "equivalent" cube of side
        ``(u*v*w)^(1/3)`` and looked up / extrapolated from the calibration
        table; without calibration the flops/throughput fallback is used.
        The multi-core estimate divides by an efficiency-discounted core
        count, mirroring the near-linear scaling in Figure 3b.
        """
        if u <= 0 or v <= 0 or w <= 0:
            return 0.0
        single_core = self._estimate_single_core(float(u), float(v), float(w))
        return single_core / self.speedup(cores)

    def estimate_construction(self, u: int, v: int, w: int, cores: int = 1,
                              seconds_per_cell: float = 4.0e-9) -> float:
        """Estimate the matrix-construction cost ``C`` (Eq. 1 of the paper).

        Construction iterates over every cell of the two operand matrices,
        i.e. ``u*v + v*w`` cells; ``seconds_per_cell`` approximates the memory
        allocation + write cost (the paper's ``T_m`` constant).
        """
        cells = float(u) * float(v) + float(v) * float(w)
        return cells * seconds_per_cell / self.speedup(cores)

    def estimate_extraction(self, u: int, w: int, cores: int = 1,
                            tile_rows: "Optional[int]" = None,
                            mode: "Optional[str]" = None,
                            density: "Optional[float]" = None,
                            core_shape: "Optional[Tuple[int, int]]" = None) -> float:
        """Estimate the non-zero extraction cost of a ``u x w`` product.

        Per-mode estimates (``mode=None``/``"auto"`` returns the best):

        * ``full`` — roughly three passes over the product (the boolean
          compare-and-write plus ``np.nonzero``'s count and gather passes);
        * ``tiled`` — one ``max``-reduction screen pass, the mask/gather
          passes over the live fraction (``density``), and a fixed per-band
          overhead (skipped bands pay nothing further);
        * ``adaptive`` — the tiled scan with the bail-out armed: bounded by
          the cheaper of the tiled scan and the full scan plus one screened
          prefix band;
        * ``core`` — one gather-and-emit pass over the dense core
          (``core_shape``, or a ``density``-sized core when unknown) plus
          the tiled scan of the sparse remainder.

        The plan resolution mirrors
        :func:`repro.matmul.tiling.extraction_plan`; the per-cell constant
        is calibrated in-session by :meth:`observe_extraction`.
        """
        if u <= 0 or w <= 0:
            return 0.0
        from repro.matmul.tiling import extraction_plan

        cells = float(u) * float(w)
        per_cell = self.extract_seconds_per_cell
        live = 0.05 if density is None else min(max(float(density), 0.0), 1.0)
        full = 3.0 * cells * per_cell
        plan_mode, band_rows = extraction_plan((int(u), int(w)), tile_rows)
        if plan_mode == "full":
            # Tiny or explicitly untiled product: there is no banded scan.
            tiled = adaptive = full
        else:
            bands = float(-(-int(u) // max(int(band_rows), 1)))
            tiled = (
                (1.0 + 2.0 * live) * cells * per_cell
                + bands * self.tile_band_overhead_seconds
            )
            prefix = (
                float(band_rows) * float(w) * per_cell
                + self.tile_band_overhead_seconds
            )
            adaptive = min(tiled, full + prefix)
        if core_shape is not None:
            core_cells = float(core_shape[0]) * float(core_shape[1])
        else:
            core_cells = live * cells
        core_cells = min(core_cells, cells)
        rest = cells - core_cells
        core = (
            2.0 * core_cells * per_cell  # gather + one-shot emit
            + (1.0 + live) * rest * per_cell
            + self.tile_band_overhead_seconds
        )
        estimates = {"full": full, "tiled": tiled, "adaptive": adaptive,
                     "core": core}
        if mode in (None, "auto"):
            seconds = min(full, tiled, adaptive)
        else:
            seconds = estimates.get(mode, adaptive)
        return seconds / self.speedup(cores)

    def observe_extraction(self, u: int, w: int, seconds: float,
                           mode: str = "full", cores: int = 1,
                           blend: float = 0.5) -> None:
        """Calibrate the per-cell extraction constant from a measurement.

        Only full-pass observations carry a clean per-cell signal (``full``
        and post-bail ``adaptive`` scans touch every cell about three
        times); screened scans skip unknown amounts of work and are ignored.
        """
        if u <= 0 or w <= 0 or seconds <= 0.0 or mode not in ("full", "adaptive"):
            return
        cells = float(u) * float(w)
        measured = seconds * self.speedup(cores) / (3.0 * cells)
        self.extract_seconds_per_cell = (
            blend * measured + (1.0 - blend) * self.extract_seconds_per_cell
        )

    def speedup(self, cores: int) -> float:
        """Model the multi-core speedup: 1 + eff * (cores - 1)."""
        cores = max(int(cores), 1)
        return 1.0 + self.parallel_efficiency * (cores - 1)

    # -- internals ----------------------------------------------------------
    def _estimate_single_core(self, u: float, v: float, w: float) -> float:
        ops = 2.0 * u * v * w  # multiply + add per cell update
        if not self._table:
            return ops / self.flops_per_second
        equivalent_side = (u * v * w) ** (1.0 / 3.0)
        sizes = np.asarray(sorted(self._table), dtype=np.float64)
        times = np.asarray([self._table[int(s)] for s in sizes], dtype=np.float64)
        # Interpolate seconds-per-flop between the two nearest measured cubes;
        # clamp outside the measured range (matches the paper's "nearest
        # estimate" extrapolation).
        measured_ops = 2.0 * sizes ** 3
        seconds_per_op = times / measured_ops
        if equivalent_side <= sizes[0]:
            rate = seconds_per_op[0]
        elif equivalent_side >= sizes[-1]:
            rate = seconds_per_op[-1]
        else:
            rate = float(np.interp(equivalent_side, sizes, seconds_per_op))
        return ops * float(rate)


def calibration_series(
    model: MatMulCostModel, sizes: Sequence[int], cores: Sequence[int] = (1,)
) -> List[Tuple[int, int, float]]:
    """Produce (size, cores, estimated seconds) rows — the Figure 3 series."""
    rows: List[Tuple[int, int, float]] = []
    for size in sizes:
        for core_count in cores:
            rows.append((int(size), int(core_count), model.estimate_square(size, core_count)))
    return rows
