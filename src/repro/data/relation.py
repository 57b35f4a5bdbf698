"""Binary relation storage.

The whole paper operates on binary relations ``R(x, y)`` over integer domains
(a bipartite graph: set-id ``x`` contains element ``y``, or author ``x`` wrote
paper ``y``).  :class:`Relation` stores such a relation as a lexicographically
sorted, deduplicated ``(n, 2)`` int64 array — built with one packed-int64
``np.sort`` — and lazily derives one :class:`CSRIndex` per column from it:

* ``csr_x()`` is a zero-sort view of the data (it is already grouped by ``x``
  with each group's ``y`` partners ascending);
* ``csr_y()`` costs the one ``(y, x)`` packed sort that the probe layout
  ``sorted_by_y()`` needs anyway.

A :class:`CSRIndex` is three int64 arrays ``(keys, offsets, values)`` plus
``degrees = np.diff(offsets)``; distinct values, degrees, full-join sizes,
light/heavy masks and adjacency matrices are all array expressions over it,
so the paper's "indexing relations" preprocessing step (Section 5) really is
a linear pass after the sort.  ``index_x()/index_y()/degrees_x()/degrees_y()``
are lazily materialised ``dict`` *views* of the same CSR for the per-key
baseline engines; nothing on the MMJoin path touches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.pairblock import KeyLayout, run_starts

Pair = Tuple[int, int]


class RelationError(ValueError):
    """Raised when a relation is constructed or used incorrectly."""


@dataclass(frozen=True)
class RelationStats:
    """Summary statistics of a binary relation.

    Mirrors the columns of Table 2 in the paper: number of tuples, number of
    distinct sets (``x`` values), domain size of the element column (``y``),
    and the average / min / max set size.
    """

    num_tuples: int
    num_sets: int
    domain_size: int
    avg_set_size: float
    min_set_size: int
    max_set_size: int

    def as_row(self) -> Dict[str, float]:
        """Return the statistics as a flat dict (one row of Table 2)."""
        return {
            "tuples": self.num_tuples,
            "sets": self.num_sets,
            "dom": self.domain_size,
            "avg_set_size": round(self.avg_set_size, 2),
            "min_set_size": self.min_set_size,
            "max_set_size": self.max_set_size,
        }


def _sorted_pairs(
    major: np.ndarray, minor: np.ndarray, dedup: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """The two columns ordered lexicographically by ``(major, minor)``.

    One ``np.sort`` over packed int64 keys (the blocks'
    :class:`~repro.data.pairblock.KeyLayout`) whenever the two value ranges
    fit a single key; ``np.lexsort`` only when they overflow it.  ``dedup``
    also drops repeated rows.
    """
    if major.size <= 1:
        return major, minor
    layout = KeyLayout.for_columns([(major, minor)])
    if layout is None:
        order = np.lexsort((minor, major))
        major, minor = major[order], minor[order]
        if dedup:
            keep = np.ones(major.size, dtype=bool)
            keep[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
            major, minor = major[keep], minor[keep]
        return major, minor
    keys = layout.pack((major, minor))
    keys.sort()
    if dedup:
        keys = keys[run_starts(keys)]
    return layout.unpack(keys)


def position_map(ids: Sequence[int], values: np.ndarray) -> np.ndarray:
    """Position of every value within ``ids`` (``-1`` where absent).

    ``ids`` name the rows (or columns) of a matrix, in any order, so they
    must be distinct: a repeated id would own two positions.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if sorted_ids.size > 1 and bool((sorted_ids[1:] == sorted_ids[:-1]).any()):
        raise RelationError("ids must be distinct")
    slots, hit = _lookup(sorted_ids, values)
    positions = np.full(values.shape, -1, dtype=np.int64)
    positions[hit] = order[slots[hit]]
    return positions


def _lookup(sorted_keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(slots, hit)``: each value's slot in ``sorted_keys`` and whether it is there."""
    if sorted_keys.size == 0:
        return np.zeros(values.shape, dtype=np.intp), np.zeros(values.shape, dtype=bool)
    slots = np.searchsorted(sorted_keys, values)
    slots[slots == sorted_keys.size] = 0
    return slots, sorted_keys[slots] == values


class CSRIndex:
    """CSR index of one column of a relation.

    ``keys`` holds the sorted distinct values of the indexed column and
    ``values[offsets[i]:offsets[i + 1]]`` the ascending partners of
    ``keys[i]``; ``degrees`` is ``np.diff(offsets)`` and ``column`` is the
    indexed column itself in index order (``np.repeat(keys, degrees)``).
    Built in one linear pass over the ``(column, values)`` pairs, which must
    already be sorted lexicographically.  Both arrays are frozen: the dict
    views and :meth:`Relation.sorted_by_y` hand out slices that alias them.
    """

    __slots__ = ("column", "values", "keys", "offsets", "degrees", "_index", "_degree_map")

    def __init__(self, column: np.ndarray, values: np.ndarray) -> None:
        self.column = column
        self.values = values
        column.flags.writeable = values.flags.writeable = False
        if column.size:
            starts = np.flatnonzero(column[1:] != column[:-1]) + 1
            self.offsets = np.concatenate(([0], starts, [column.size]))
        else:
            self.offsets = np.zeros(1, dtype=np.int64)
        self.keys = column[self.offsets[:-1]]
        self.degrees = np.diff(self.offsets)
        self._index: Optional[Dict[int, np.ndarray]] = None
        self._degree_map: Optional[Dict[int, int]] = None

    def ranges_of(self, values: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, degrees)``: every value's partner range in ``values``.

        ``self.values[start:start + degree]`` are the value's partners;
        the degree is 0 for values that are not keys.  One ``searchsorted``
        over the distinct keys.
        """
        values = np.asarray(values, dtype=np.int64)
        slots, hit = _lookup(self.keys, values)
        degrees = np.zeros(values.shape, dtype=np.int64)
        degrees[hit] = self.degrees[slots[hit]]
        return self.offsets[slots], degrees

    def degrees_of(self, values: Sequence[int]) -> np.ndarray:
        """Degree of every value (0 for values that are not keys)."""
        return self.ranges_of(values)[1]

    def neighbors(self, key: int) -> np.ndarray:
        """Ascending partners of ``key`` (empty array if it is not a key)."""
        slot = int(np.searchsorted(self.keys, key))
        if slot == self.keys.size or self.keys[slot] != key:
            return _EMPTY
        return self.values[self.offsets[slot] : self.offsets[slot + 1]]

    def index(self) -> Dict[int, np.ndarray]:
        """``{key: partners}`` dict view (slices of ``values``), built once."""
        if self._index is None:
            bounds = self.offsets.tolist()
            self._index = {
                key: self.values[lo:hi]
                for key, lo, hi in zip(self.keys.tolist(), bounds, bounds[1:])
            }
        return self._index

    def degree_map(self) -> Dict[int, int]:
        """``{key: degree}`` dict view, built once."""
        if self._degree_map is None:
            self._degree_map = dict(zip(self.keys.tolist(), self.degrees.tolist()))
        return self._degree_map


class Relation:
    """A deduplicated binary relation ``R(x, y)`` over integer values.

    Parameters
    ----------
    pairs:
        An ``(n, 2)`` integer array of tuples.  Duplicates are removed.
    name:
        Optional human-readable name used in plans and reports.
    sorted_dedup:
        Internal flag: set to ``True`` when the caller guarantees that
        ``pairs`` is already lexicographically sorted and deduplicated.
    """

    __slots__ = ("name", "_data", "_csr_x", "_csr_y", "__weakref__")

    def __init__(
        self,
        pairs: np.ndarray,
        name: str = "R",
        *,
        sorted_dedup: bool = False,
    ) -> None:
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise RelationError(
                f"relation data must be an (n, 2) array, got shape {arr.shape}"
            )
        if not sorted_dedup and len(arr):
            arr = np.column_stack(_sorted_pairs(arr[:, 0], arr[:, 1], dedup=True))
        self.name = name
        self._data = arr
        self._csr_x: Optional[CSRIndex] = None
        self._csr_y: Optional[CSRIndex] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair], name: str = "R") -> "Relation":
        """Build a relation from an iterable of ``(x, y)`` tuples."""
        data = list(pairs)
        if not data:
            return cls(np.empty((0, 2), dtype=np.int64), name=name)
        return cls(np.asarray(data, dtype=np.int64), name=name)

    @classmethod
    def from_arrays(
        cls, xs: Sequence[int], ys: Sequence[int], name: str = "R"
    ) -> "Relation":
        """Build a relation from two parallel columns."""
        xs_arr = np.asarray(xs, dtype=np.int64)
        ys_arr = np.asarray(ys, dtype=np.int64)
        if xs_arr.shape != ys_arr.shape:
            raise RelationError("column arrays must have the same length")
        return cls(np.column_stack([xs_arr, ys_arr]), name=name)

    @classmethod
    def from_set_family(
        cls, sets: Mapping[int, Iterable[int]], name: str = "R"
    ) -> "Relation":
        """Build a relation from a mapping ``set-id -> elements``."""
        xs: List[int] = []
        ys: List[int] = []
        for set_id, elements in sets.items():
            for element in elements:
                xs.append(set_id)
                ys.append(element)
        if not xs:
            return cls(np.empty((0, 2), dtype=np.int64), name=name)
        return cls.from_arrays(xs, ys, name=name)

    @classmethod
    def empty(cls, name: str = "R") -> "Relation":
        """Return an empty relation."""
        return cls(np.empty((0, 2), dtype=np.int64), name=name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._data.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Pair]:
        for x, y in self._data:
            yield int(x), int(y)

    def __contains__(self, pair: Pair) -> bool:
        x, y = pair
        ys = self.neighbors_x(int(x))
        if ys.size == 0:
            return False
        pos = np.searchsorted(ys, int(y))
        return pos < ys.size and ys[pos] == int(y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return np.array_equal(self._data, other._data)

    def __hash__(self) -> int:  # pragma: no cover - relations are mostly unhashed
        return hash((self.name, len(self)))

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, tuples={len(self)})"

    @property
    def data(self) -> np.ndarray:
        """The underlying ``(n, 2)`` sorted, deduplicated array (read-only view)."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    @property
    def xs(self) -> np.ndarray:
        """The x column."""
        return self._data[:, 0]

    @property
    def ys(self) -> np.ndarray:
        """The y column."""
        return self._data[:, 1]

    def pairs(self) -> List[Pair]:
        """Materialise the relation as a list of python tuples."""
        return [(int(x), int(y)) for x, y in self._data]

    # ------------------------------------------------------------------ #
    # Indexes
    # ------------------------------------------------------------------ #
    def csr_x(self) -> CSRIndex:
        """CSR index from every x value to its ascending y partners.

        The data is sorted by ``(x, y)``, so this is a view of its two
        columns plus one linear boundary scan — no sort.
        """
        if self._csr_x is None:
            data = self.data
            self._csr_x = CSRIndex(data[:, 0], data[:, 1])
        return self._csr_x

    def csr_y(self) -> CSRIndex:
        """CSR index from every y value to its ascending x partners.

        Costs the relation's one ``(y, x)`` sort; ``column`` / ``values``
        are the probe-side layout of the vectorized light join.
        """
        if self._csr_y is None:
            self._csr_y = CSRIndex(*_sorted_pairs(self._data[:, 1], self._data[:, 0]))
        return self._csr_y

    def index_x(self) -> Dict[int, np.ndarray]:
        """``dict`` view of :meth:`csr_x`: x value -> sorted array of y neighbours."""
        return self.csr_x().index()

    def index_y(self) -> Dict[int, np.ndarray]:
        """``dict`` view of :meth:`csr_y`: y value -> sorted array of x neighbours."""
        return self.csr_y().index()

    def sorted_by_y(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(ys, xs)`` columns sorted by y (built once, cached).

        This is the probe-side layout of the vectorized light join: a
        ``searchsorted`` over the sorted y column yields each witness's
        contiguous partner range, so the whole expansion is index gathers
        instead of per-tuple dictionary lookups.
        """
        index = self.csr_y()
        return index.column, index.values

    def neighbors_x(self, x: int) -> np.ndarray:
        """Sorted y values paired with ``x`` (empty array if none)."""
        return self.csr_x().neighbors(int(x))

    def neighbors_y(self, y: int) -> np.ndarray:
        """Sorted x values paired with ``y`` (empty array if none)."""
        return self.csr_y().neighbors(int(y))

    def x_values(self) -> np.ndarray:
        """Sorted distinct x values (``dom(x)`` restricted to the relation)."""
        return self.csr_x().keys

    def y_values(self) -> np.ndarray:
        """Sorted distinct y values."""
        return self.csr_y().keys

    def degree_x(self, x: int) -> int:
        """Degree of an x value, i.e. ``|sigma_{x=a} R|``."""
        return int(self.neighbors_x(x).size)

    def degree_y(self, y: int) -> int:
        """Degree of a y value, i.e. ``|sigma_{y=b} R|``."""
        return int(self.neighbors_y(y).size)

    def degrees_x(self) -> Dict[int, int]:
        """``dict`` view of :meth:`csr_x`: x value -> degree."""
        return self.csr_x().degree_map()

    def degrees_y(self) -> Dict[int, int]:
        """``dict`` view of :meth:`csr_y`: y value -> degree."""
        return self.csr_y().degree_map()

    # ------------------------------------------------------------------ #
    # Algebraic operations
    # ------------------------------------------------------------------ #
    def swap(self, name: Optional[str] = None) -> "Relation":
        """Return the relation with its columns swapped (graph transpose)."""
        swapped = self._data[:, ::-1]
        return Relation(swapped, name=name or f"{self.name}^T")

    def filter_pairs(self, mask: np.ndarray, name: Optional[str] = None) -> "Relation":
        """Return the sub-relation selected by a boolean mask over tuples."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise RelationError("mask length must equal the number of tuples")
        return Relation(
            self._data[mask], name=name or self.name, sorted_dedup=True
        )

    def restrict_x(self, values: Iterable[int], name: Optional[str] = None) -> "Relation":
        """Return the sub-relation whose x values belong to ``values``."""
        wanted = _as_values(values)
        if wanted.size == 0 or len(self) == 0:
            return Relation.empty(name or self.name)
        return self.filter_pairs(np.isin(self._data[:, 0], wanted), name=name)

    def restrict_y(self, values: Iterable[int], name: Optional[str] = None) -> "Relation":
        """Return the sub-relation whose y values belong to ``values``."""
        wanted = _as_values(values)
        if wanted.size == 0 or len(self) == 0:
            return Relation.empty(name or self.name)
        return self.filter_pairs(np.isin(self._data[:, 1], wanted), name=name)

    def union(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """Set union of two relations."""
        if len(self) == 0:
            return Relation(other._data, name=name or self.name, sorted_dedup=True)
        if len(other) == 0:
            return Relation(self._data, name=name or self.name, sorted_dedup=True)
        stacked = np.vstack([self._data, other._data])
        return Relation(stacked, name=name or self.name)

    def difference(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """Set difference ``self \\ other``."""
        if len(self) == 0 or len(other) == 0:
            return Relation(self._data, name=name or self.name, sorted_dedup=True)
        # Encode pairs into single integers for a vectorised membership test.
        shift = max(
            int(self._data[:, 1].max()), int(other._data[:, 1].max()), 0
        ) + 1
        mine = self._data[:, 0] * shift + self._data[:, 1]
        theirs = other._data[:, 0] * shift + other._data[:, 1]
        mask = ~np.isin(mine, theirs)
        return self.filter_pairs(mask, name=name)

    def intersection(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """Set intersection of two relations."""
        if len(self) == 0 or len(other) == 0:
            return Relation.empty(name or self.name)
        shift = max(
            int(self._data[:, 1].max()), int(other._data[:, 1].max()), 0
        ) + 1
        mine = self._data[:, 0] * shift + self._data[:, 1]
        theirs = other._data[:, 0] * shift + other._data[:, 1]
        mask = np.isin(mine, theirs)
        return self.filter_pairs(mask, name=name)

    def semijoin_y(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """Semijoin: keep tuples whose y value also appears in ``other``'s y column.

        This is the linear-time preprocessing the paper assumes ("we have
        removed any tuples that do not contribute to the query result").
        Whether anything dangles is decided on the two distinct-``y`` key
        arrays; when nothing does (always for a self-join) the result is
        this relation itself — no per-tuple pass, no copy, and its indexes
        stay warm.
        """
        if len(self) == 0:
            return Relation.empty(name or self.name)
        if other is self:
            return self
        mine = self.y_values()
        kept = np.isin(mine, other.y_values(), assume_unique=True)
        if kept.all():
            return self
        return self.restrict_y(mine[kept], name=name)

    def sample_tuples(self, k: int, seed: int = 0, name: Optional[str] = None) -> "Relation":
        """Uniform random sample (without replacement) of ``k`` tuples."""
        if k >= len(self):
            return Relation(self._data, name=name or self.name, sorted_dedup=True)
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=k, replace=False)
        return Relation(self._data[np.sort(idx)], name=name or self.name, sorted_dedup=True)

    # ------------------------------------------------------------------ #
    # Statistics and matrix views
    # ------------------------------------------------------------------ #
    def stats(self) -> RelationStats:
        """Compute Table-2-style statistics for this relation."""
        if len(self) == 0:
            return RelationStats(0, 0, 0, 0.0, 0, 0)
        degrees = self.csr_x().degrees
        return RelationStats(
            num_tuples=len(self),
            num_sets=int(self.x_values().size),
            domain_size=int(self.y_values().size),
            avg_set_size=float(degrees.mean()),
            min_set_size=int(degrees.min()),
            max_set_size=int(degrees.max()),
        )

    def full_join_size(self, other: "Relation") -> int:
        """Size of the full join ``R(x,y) |><| S(z,y)`` before projection.

        Exact, in linear time from the per-``y`` degrees of both relations
        (the paper computes this during the indexing pass).
        """
        return full_join_size([self, other])

    def adjacency_coords(
        self, row_ids: Sequence[int], col_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` matrix coordinates of the tuples inside ``row_ids`` x ``col_ids``.

        Row ``i`` stands for x value ``row_ids[i]`` and column ``j`` for y
        value ``col_ids[j]``; ids must be distinct (:func:`position_map`).
        Tuples with either value outside the id lists are dropped.
        """
        rows = position_map(row_ids, self._data[:, 0])
        cols = position_map(col_ids, self._data[:, 1])
        keep = (rows >= 0) & (cols >= 0)
        return rows[keep], cols[keep]

    def adjacency_matrix(
        self,
        row_ids: Sequence[int],
        col_ids: Sequence[int],
        dtype: np.dtype = np.float32,
    ) -> np.ndarray:
        """Materialise the relation restricted to ``row_ids`` x ``col_ids``.

        Rows are x values and columns are y values; the entry is 1.0 when the
        tuple is present.  This is the matrix-construction step of
        Algorithm 1 (``M1(x, y) <- R+ adj matrix``).
        """
        rows, cols = self.adjacency_coords(row_ids, col_ids)
        matrix = np.zeros((len(row_ids), len(col_ids)), dtype=dtype)
        matrix[rows, cols] = 1
        return matrix

    def to_set_dict(self) -> Dict[int, set]:
        """Return the relation as ``{x: set(y)}`` (the set-family view)."""
        return {x: set(ys.tolist()) for x, ys in self.index_x().items()}


def full_join_size(relations: Sequence[Relation]) -> int:
    """Exact size of the full join of ``R_i(x_i, y)`` on ``y``, before projection.

    The sum over shared ``y`` values of the product of their degrees.  It is
    at most the product of the relation sizes, so int64 arithmetic is exact
    whenever that bound fits; past it the sum runs over Python integers.
    """
    if not relations or any(len(rel) == 0 for rel in relations):
        return 0
    indexes = [rel.csr_y() for rel in relations]
    shared = min(indexes, key=lambda index: index.keys.size).keys
    degrees = [
        index.degrees if np.array_equal(index.keys, shared) else index.degrees_of(shared)
        for index in indexes
    ]
    if math.prod(len(rel) for rel in relations) < 2**63:
        return int(np.prod(degrees, axis=0).sum())
    return sum(math.prod(row) for row in zip(*(d.tolist() for d in degrees)))


def head_layout(relations: Sequence[Relation]) -> Optional[KeyLayout]:
    """Key layout of the head tuples ``(x_1, ..., x_k)`` of non-empty relations.

    Rows are sorted by ``x``, so each column's range is its first and last
    row — no scan.  ``None`` when the ranges do not fit one key.
    """
    return KeyLayout.for_ranges([(rel.xs[0], rel.xs[-1]) for rel in relations])


def _as_values(values: Iterable[int]) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=np.int64).reshape(-1)


_EMPTY = np.empty(0, dtype=np.int64)
