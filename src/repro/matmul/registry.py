"""Pluggable matrix-multiplication backend registry.

The MMJoin pipeline used to hardcode ``if backend == "sparse": ... else ...``
branches at every call site.  This module replaces those branches with a
uniform :class:`MatMulBackend` interface wrapping each kernel family
(dense/BLAS, sparse/CSR) and a :class:`BackendRegistry` that resolves a
configured backend name — or, for ``"auto"``, picks the cheapest backend by
comparing per-backend cost estimates derived from
:class:`~repro.matmul.cost_model.MatMulCostModel`.

Every backend answers the two questions the physical operators ask:

* ``heavy_pairs`` / ``heavy_counts`` — evaluate the heavy residual of the
  two-path query (build adjacency matrices restricted to the heavy values,
  multiply, read the output pairs off the non-zero entries);
* ``multiply_dense`` — multiply two already-built dense operands (used by the
  star query's grouped matrices and by anything else that owns its layout).

New backends register with :meth:`BackendRegistry.register`; the planner and
the config validation both consult :func:`default_registry`.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.core.config import MMJoinConfig
from repro.data.pairblock import CountedPairBlock, PairBlock
from repro.data.relation import Relation
from repro.matmul import dense as dense_mm
from repro.matmul import mapping as mapping_mm
from repro.matmul import sparse as sparse_mm
from repro.matmul import tiling
from repro.matmul.cost_model import MatMulCostModel

Pair = Tuple[int, int]
Dims = Tuple[int, int, int]


class MatMulBackend(abc.ABC):
    """One matrix-multiplication kernel family usable by the heavy operator."""

    name: str = "abstract"

    @abc.abstractmethod
    def multiply_dense(self, left: np.ndarray, right: np.ndarray, cores: int = 1) -> np.ndarray:
        """Multiply two dense operands, returning a dense count matrix."""

    @abc.abstractmethod
    def estimate_cost(
        self,
        dims: Dims,
        nnz_left: int,
        nnz_right: int,
        cost_model: MatMulCostModel,
        config: MMJoinConfig,
    ) -> float:
        """Estimated seconds for the heavy product (``inf`` = ineligible)."""

    # -- heavy-residual template hooks (overridden by layout-specific
    # backends such as sparse/CSR) --------------------------------------
    def build_operands(
        self,
        left_heavy: Relation,
        right_heavy: Relation,
        rows: Sequence[int],
        mids: Sequence[int],
        cols: Sequence[int],
    ):
        """Build the two operand matrices in this backend's native layout."""
        m1 = dense_mm.build_adjacency(left_heavy, rows, mids)
        m2 = dense_mm.build_adjacency(right_heavy, cols, mids).T
        return m1, m2

    def multiply(self, m1, m2, cores: int = 1):
        """Multiply operands produced by :meth:`build_operands`."""
        return self.multiply_dense(m1, m2, cores=cores)

    def extract_pairs(self, product, rows, cols, threshold: float,
                      tile_rows=None, stats=None, mode=None, mapping=None,
                      density_hint=None, layout=None) -> PairBlock:
        """Output pairs from a product as a columnar :class:`PairBlock`.

        Dense products go through the density-aware tiled scan
        (:mod:`repro.matmul.tiling`): all-zero row bands are skipped, the
        adaptive bail-out bounds screening overhead on dense products, and
        peak extraction memory stays ``O(tile + output)``.  ``tile_rows``
        overrides the band height (``None`` = auto, ``0`` = one-shot scan);
        ``mode`` pins the scan strategy, ``mapping`` carries a DIM3
        dense-core permutation (used when ``mode == "core"``),
        ``density_hint`` is the planner's output-density estimate,
        ``stats`` collects the extraction accounting for ``explain()``, and
        with a ``layout`` the block is emitted as packed keys.
        """
        if mapping is not None and mode == tiling.MODE_CORE:
            return mapping_mm.mapped_nonzero_block(
                product, rows, cols, mapping, threshold=threshold,
                tile_rows=tile_rows, stats=stats, layout=layout,
            )
        return tiling.tiled_nonzero_block(
            product, rows, cols, threshold=threshold, tile_rows=tile_rows,
            stats=stats, mode=mode, density_hint=density_hint, layout=layout,
        )

    def extract_counts(self, product, rows, cols, threshold: float,
                       tile_rows=None, stats=None, mode=None, mapping=None,
                       density_hint=None, layout=None) -> CountedPairBlock:
        """Witness counts from a product as a :class:`CountedPairBlock`."""
        if mapping is not None and mode == tiling.MODE_CORE:
            return mapping_mm.mapped_nonzero_counted_block(
                product, rows, cols, mapping, threshold=threshold,
                tile_rows=tile_rows, stats=stats, layout=layout,
            )
        return tiling.tiled_nonzero_counted_block(
            product, rows, cols, threshold=threshold, tile_rows=tile_rows,
            stats=stats, mode=mode, density_hint=density_hint, layout=layout,
        )

    # -- heavy-residual evaluation (shared timed template) ----------------
    def heavy_pairs(
        self,
        left_heavy: Relation,
        right_heavy: Relation,
        rows: Sequence[int],
        mids: Sequence[int],
        cols: Sequence[int],
        threshold: float = 0.5,
        cores: int = 1,
        operands=None,
        tile_rows=None,
        extract_stats=None,
        extract_mode=None,
        mapping=None,
        density_hint=None,
        layout=None,
    ) -> Tuple[PairBlock, float, float]:
        """Output-pair block of the heavy residual plus (build, multiply) seconds.

        ``operands`` may carry a prebuilt ``(m1, m2)`` pair in this backend's
        native layout (e.g. out of a session's operand cache); construction
        is then skipped and the reported build time is zero.  ``tile_rows``,
        ``extract_stats``, ``extract_mode``, ``mapping``, ``density_hint`` and
        ``layout`` flow into :meth:`extract_pairs`.
        """
        return self._heavy(
            self.extract_pairs, left_heavy, right_heavy, rows, mids, cols,
            threshold, cores, operands, tile_rows=tile_rows, stats=extract_stats,
            mode=extract_mode, mapping=mapping, density_hint=density_hint,
            layout=layout,
        )

    def heavy_counts(
        self,
        left_heavy: Relation,
        right_heavy: Relation,
        rows: Sequence[int],
        mids: Sequence[int],
        cols: Sequence[int],
        threshold: float = 0.5,
        cores: int = 1,
        operands=None,
        tile_rows=None,
        extract_stats=None,
        extract_mode=None,
        mapping=None,
        density_hint=None,
        layout=None,
    ) -> Tuple[CountedPairBlock, float, float]:
        """Witness-count block of the heavy residual plus (build, multiply) seconds."""
        return self._heavy(
            self.extract_counts, left_heavy, right_heavy, rows, mids, cols,
            threshold, cores, operands, tile_rows=tile_rows, stats=extract_stats,
            mode=extract_mode, mapping=mapping, density_hint=density_hint,
            layout=layout,
        )

    def _heavy(self, extract, left_heavy, right_heavy, rows, mids, cols,
               threshold, cores, operands, **extract_kwargs):
        """Build (unless ``operands`` is given), multiply, then ``extract``.

        ``extract_kwargs`` go to the extraction hook as they are: an
        override of :meth:`extract_pairs` / :meth:`extract_counts` takes the
        same keywords as the base method.
        """
        if operands is None:
            build_start = time.perf_counter()
            m1, m2 = self.build_operands(left_heavy, right_heavy, rows, mids, cols)
            build_seconds = time.perf_counter() - build_start
        else:
            m1, m2 = operands
            build_seconds = 0.0
        multiply_start = time.perf_counter()
        product = self.multiply(m1, m2, cores=cores)
        result = extract(product, rows, cols, threshold, **extract_kwargs)
        return result, build_seconds, time.perf_counter() - multiply_start


class DenseBackend(MatMulBackend):
    """numpy/BLAS SGEMM — the paper's primary kernel."""

    name = "dense"

    def multiply_dense(self, left: np.ndarray, right: np.ndarray, cores: int = 1) -> np.ndarray:
        if cores > 1:
            from repro.parallel.executor import parallel_matmul

            return parallel_matmul(left, right, cores=cores)
        return dense_mm.count_matmul(left, right)

    def estimate_cost(
        self,
        dims: Dims,
        nnz_left: int,
        nnz_right: int,
        cost_model: MatMulCostModel,
        config: MMJoinConfig,
    ) -> float:
        u, v, w = dims
        if max(dims) > config.max_heavy_dimension:
            return float("inf")
        return (
            cost_model.estimate(u, v, w, cores=config.cores)
            + cost_model.estimate_construction(u, v, w, cores=config.cores)
            + cost_model.estimate_extraction(
                u, w, cores=config.cores, tile_rows=config.extract_tile_rows,
                mode=config.extract_mode,
            )
        )


class SparseBackend(MatMulBackend):
    """scipy CSR x CSR — wins when the heavy sub-matrices are very sparse."""

    name = "sparse"
    # Per-nonzero prices of the scipy path: ``adjacency_coords`` plus
    # ``csr_matrix`` assembly, and one SpGEMM expansion.  Not re-fitted since
    # construction became array-native; a new value moves the dense/sparse
    # choice and belongs to the optimizer rewrite (ROADMAP open item 3).
    build_seconds_per_nnz = 2.5e-7
    seconds_per_expansion = 2.5e-8

    def multiply_dense(self, left: np.ndarray, right: np.ndarray, cores: int = 1) -> np.ndarray:
        from scipy import sparse

        # Same overflow guard as the dense kernel: counts are bounded by the
        # inner dimension, so widen past float32's exact-integer range.
        a = np.asarray(left)
        dtype = dense_mm.accumulation_dtype(a.shape[1] if a.ndim == 2 else 0)
        product = sparse_mm.sparse_count_matmul(
            sparse.csr_matrix(a.astype(dtype, copy=False)),
            sparse.csr_matrix(np.asarray(right).astype(dtype, copy=False)),
        )
        return np.asarray(product.todense())

    def build_operands(self, left_heavy, right_heavy, rows, mids, cols):
        # Witness counts are bounded by the inner (mids) dimension; keep the
        # CSR accumulation exact past float32's 2^24 integer range.
        dtype = dense_mm.accumulation_dtype(len(mids))
        m1 = sparse_mm.build_sparse_adjacency(left_heavy, rows, mids, dtype=dtype)
        m2 = sparse_mm.build_sparse_adjacency(right_heavy, cols, mids, dtype=dtype).T
        return m1, m2

    def multiply(self, m1, m2, cores: int = 1):
        return sparse_mm.sparse_count_matmul(m1, m2)

    def extract_pairs(self, product, rows, cols, threshold: float,
                      tile_rows=None, stats=None, mode=None, mapping=None,
                      density_hint=None, layout=None) -> PairBlock:
        # A CSR product's COO scan is already output-proportional, so the
        # dense tiling/adaptive/core knobs do not apply; only the accounting
        # is recorded.
        return sparse_mm.sparse_nonzero_block(
            product, rows, cols, threshold=threshold, stats=stats, layout=layout
        )

    def extract_counts(self, product, rows, cols, threshold: float,
                       tile_rows=None, stats=None, mode=None, mapping=None,
                       density_hint=None, layout=None) -> CountedPairBlock:
        return sparse_mm.sparse_nonzero_counted_block(
            product, rows, cols, threshold=threshold, stats=stats, layout=layout
        )

    def estimate_cost(
        self,
        dims: Dims,
        nnz_left: int,
        nnz_right: int,
        cost_model: MatMulCostModel,
        config: MMJoinConfig,
    ) -> float:
        _, v, _ = dims
        build = (nnz_left + nnz_right) * self.build_seconds_per_nnz
        expansions = float(nnz_left) * float(nnz_right) / max(float(v), 1.0)
        multiply = expansions * self.seconds_per_expansion
        return (build + multiply) / cost_model.speedup(config.cores)


class BackendRegistry:
    """Name -> :class:`MatMulBackend` mapping with cost-based auto selection."""

    def __init__(self, cost_model: MatMulCostModel | None = None) -> None:
        self._backends: Dict[str, MatMulBackend] = {}
        self.cost_model = cost_model or MatMulCostModel()

    # -- registration ------------------------------------------------------
    def register(self, backend: MatMulBackend, replace: bool = False) -> None:
        """Add a backend; refuses to shadow an existing name unless asked."""
        if backend.name in self._backends and not replace:
            raise ValueError(f"backend {backend.name!r} is already registered")
        self._backends[backend.name] = backend

    def get(self, name: str) -> MatMulBackend:
        """Look a backend up by name."""
        try:
            return self._backends[name]
        except KeyError as exc:
            raise ValueError(
                f"unknown matmul backend {name!r}; choose one of {self.names()}"
            ) from exc

    def names(self) -> List[str]:
        """Registered backend names, sorted."""
        return sorted(self._backends)

    def __iter__(self) -> Iterator[MatMulBackend]:
        return iter(self._backends.values())

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    # -- selection ---------------------------------------------------------
    def select(
        self,
        config: MMJoinConfig,
        dims: Dims,
        nnz_left: int,
        nnz_right: int,
    ) -> MatMulBackend:
        """Resolve the configured backend, scoring candidates for ``auto``.

        An explicit ``config.matrix_backend`` name wins outright.  For
        ``auto``, every backend estimates the wall-clock cost of this
        particular product and the cheapest finite estimate wins;
        backends return ``inf`` to rule themselves out (e.g. dense matrices
        exceeding ``max_heavy_dimension``).
        """
        if config.matrix_backend != "auto":
            return self.get(config.matrix_backend)
        best: MatMulBackend | None = None
        best_cost = float("inf")
        for backend in self._backends.values():
            cost = backend.estimate_cost(dims, nnz_left, nnz_right, self.cost_model, config)
            if cost < best_cost:
                best, best_cost = backend, cost
        if best is None:
            # Everything ruled itself out; sparse is the memory-safe fallback.
            return self.get("sparse") if "sparse" in self else next(iter(self))
        return best


def make_default_registry(cost_model: MatMulCostModel | None = None) -> BackendRegistry:
    """A fresh registry holding the two built-in kernel families."""
    registry = BackendRegistry(cost_model=cost_model)
    registry.register(DenseBackend())
    registry.register(SparseBackend())
    return registry


_DEFAULT_REGISTRY: BackendRegistry | None = None


def default_registry() -> BackendRegistry:
    """The process-wide registry the planner uses unless given another."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = make_default_registry()
    return _DEFAULT_REGISTRY
