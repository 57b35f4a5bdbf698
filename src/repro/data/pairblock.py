"""Columnar result blocks for the join-project pipeline.

The physical operators used to hand results around as Python
``Set[Tuple[int, int]]`` — every probe, merge and set operation was a
per-tuple Python loop, which dominates real join-project runtimes long
before the matrix product does.  This module provides the representation
that replaces those sets *inside* the pipeline:

* :class:`KeyLayout` — a bit-field layout packing one arity-``k`` integer
  row into a single non-negative ``int64`` key (per column: subtract the
  minimum, shift into its field, OR).  Key order is lexicographic row
  order, so deduplicating rows is one plain ``np.sort`` of the keys plus a
  neighbour compare.
* :class:`PairBlock` — a block of arity-``k`` result tuples held *either* as
  ``k`` parallel ``int64`` columns *or* as packed keys under a layout (never
  both).  Producers that know the query-wide layout emit keys directly and
  the pipeline concatenates, sorts and merges keys; columns are decoded
  once, when the result leaves the pipeline.  Rows whose value ranges do
  not fit 62 key bits (astronomically large domains) stay in column form
  and deduplicate through an ``np.unique(axis=0)`` fallback.
* :class:`CountedPairBlock` — a :class:`PairBlock` plus a parallel ``int64``
  witness-count column (the MODE_COUNTS substrate for SSJ/SCJ).  Its
  :meth:`CountedPairBlock.dedup` sorts ``key << cbits | count`` composites
  and aggregates runs with ``ufunc.reduceat``; a raw expansion (every row
  one witness) never builds a count column — its counts are run lengths.
  Counts stay exact: the matmul layer already widens the accumulation to
  ``float64`` past the ``float32`` exact-integer range (see
  :func:`repro.matmul.dense.accumulation_dtype`), and extraction rounds the
  widened products straight into this block's ``int64`` column.

Python sets appear only at the API boundary: :meth:`PairBlock.to_set` /
:meth:`PairBlock.from_pairs` (and the counted dict equivalents) convert
where the CLI and the result objects need them, and every result
object declares those attributes with :class:`lazy_view`, so the conversion
runs on first read, once, and never inside a query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]
HeadTuple = Tuple[int, ...]

_EMPTY = np.empty(0, dtype=np.int64)

# Packed keys use at most this many bits, so a key (and a key/count
# composite) is a non-negative int64 whose order is the rows' order.
MAX_KEY_BITS = 62


@dataclass(frozen=True)
class KeyLayout:
    """Bit-field packing of arity-``k`` integer rows into one int64 key.

    Column ``j`` occupies ``shifts[j - 1] - shifts[j]`` bits starting at bit
    ``shifts[j]`` and stores ``value - mins[j]``; column 0 is the most
    significant field, so key order equals lexicographic row order.  Every
    packed value must lie inside the range its field was sized for.
    """

    mins: Tuple[int, ...]
    shifts: Tuple[int, ...]
    bits: int

    @classmethod
    def for_ranges(cls, ranges: Sequence[Tuple[int, int]]) -> Optional["KeyLayout"]:
        """Layout for per-column inclusive ``(lo, hi)`` value ranges.

        ``None`` when the fields need more than :data:`MAX_KEY_BITS` bits.
        """
        widths = [(int(hi) - int(lo)).bit_length() for lo, hi in ranges]
        bits = sum(widths)
        if bits > MAX_KEY_BITS:
            return None
        shifts = [bits - sum(widths[: j + 1]) for j in range(len(widths))]
        return cls(tuple(int(lo) for lo, _ in ranges), tuple(shifts), bits)

    @classmethod
    def for_columns(
        cls, column_groups: Sequence[Sequence[np.ndarray]]
    ) -> Optional["KeyLayout"]:
        """Layout covering the rows of every group (one min/max scan each)."""
        ranges = []
        for j in range(len(column_groups[0])):
            cols = [g[j] for g in column_groups if g[j].size]
            ranges.append(
                (min(int(c.min()) for c in cols), max(int(c.max()) for c in cols))
                if cols else (0, 0)
            )
        return cls.for_ranges(ranges)

    @property
    def arity(self) -> int:
        return len(self.mins)

    def column_key(self, j: int, values: np.ndarray) -> np.ndarray:
        """Column ``j``'s contribution to the key (a fresh array)."""
        return (values - self.mins[j]) << self.shifts[j]

    def pack(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        keys = self.column_key(0, columns[0])
        for j in range(1, len(columns)):
            keys |= self.column_key(j, columns[j])
        return keys

    def unpack(self, keys: np.ndarray) -> Tuple[np.ndarray, ...]:
        columns = []
        top = self.bits
        for j, (lo, shift) in enumerate(zip(self.mins, self.shifts)):
            col = keys >> shift if shift else keys
            if j:  # column 0 has no higher field to mask off
                col = col & ((1 << (top - shift)) - 1)
            columns.append(col + lo if lo else col)
            top = shift
        return tuple(columns)


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a sorted array."""
    change = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    return np.flatnonzero(change)


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether non-empty ``keys`` are already sorted and duplicate-free."""
    return bool((keys[1:] > keys[:-1]).all())


class lazy_view:
    """A Python-native view of one of its owner's blocks, built on first read.

    ``pairs = lazy_view("result_block", "to_set")`` in a class body makes
    ``obj.pairs`` the cached ``obj.result_block.to_set()`` — the single
    definition of the API-boundary conversion every result object shares.
    While the block is ``None`` the view reads as ``default()``, uncached;
    assigning stores a ready-made view (SizeAware++ finds part of its pairs
    in Python).  On the class it reads ``None``, which a dataclass
    takes as the field default: an annotated view is an optional init argument.
    """

    def __init__(self, source: str, convert: str, default=lambda: None) -> None:
        self._source, self._convert, self._default = source, convert, default

    def __set_name__(self, owner, name: str) -> None:
        self._slot = f"_{name}_view"

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        view = obj.__dict__.get(self._slot)
        if view is None:
            block = getattr(obj, self._source)
            if block is None:
                return self._default()
            view = obj.__dict__[self._slot] = getattr(block, self._convert)()
        return view

    def __set__(self, obj, view) -> None:
        obj.__dict__[self._slot] = view


def _as_columns(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    out = tuple(np.asarray(c, dtype=np.int64).reshape(-1) for c in columns)
    if not out:
        raise ValueError("a block needs at least one column")
    n = out[0].size
    if any(c.size != n for c in out):
        raise ValueError("block columns must have equal length")
    return out


class PairBlock:
    """A block of arity-``k`` integer result tuples.

    Held in exactly one of two forms: ``k`` parallel int64 ``columns`` (row
    ``i`` is ``(columns[0][i], ..., columns[k-1][i])``), or packed ``keys``
    under a :class:`KeyLayout` (:meth:`from_keys`).  Reading :attr:`columns`
    on a key-form block decodes it and drops the keys, so a finished result
    holds columns only.

    Parameters
    ----------
    columns:
        ``k`` parallel 1-D integer arrays.
    deduped:
        Caller-guaranteed hint that the rows are already distinct (e.g. the
        non-zero cells of a matrix product).  ``dedup()`` still canonicalises
        the order but the hint keeps ``distinct_size`` cheap.
    """

    # ``_packed`` is ``(keys, layout)`` or None; one slot so that a reader
    # racing the decode in ``columns`` sees both or neither.
    __slots__ = ("_columns", "_packed", "deduped")

    def __init__(self, columns: Sequence[np.ndarray], deduped: bool = False) -> None:
        self._columns = _as_columns(columns)
        self._packed = None
        self.deduped = bool(deduped) or self._columns[0].size <= 1

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_keys(cls, keys: np.ndarray, layout: KeyLayout,
                  deduped: bool = False) -> "PairBlock":
        """A block in key form: row ``i`` is ``layout.unpack(keys)[...][i]``."""
        block = cls.__new__(cls)
        block._columns = None
        block._packed = (keys, layout)
        block.deduped = bool(deduped) or keys.size <= 1
        return block

    @classmethod
    def from_gather(
        cls,
        values: Sequence[Sequence[int]],
        indices: Sequence[np.ndarray],
        layout: Optional[KeyLayout] = None,
        deduped: bool = False,
    ) -> "PairBlock":
        """Rows ``(values[0][indices[0][i]], ..., values[k-1][indices[k-1][i]])``.

        The shape of a matrix product's extraction (``values`` name the rows
        and columns, ``indices`` are the hit coordinates).  With a layout the
        per-value keys are built once and the block is born in key form:
        ``row_key[rows] | col_key[cols]``.
        """
        values = [np.asarray(v, dtype=np.int64) for v in values]
        if layout is None:
            return cls(tuple(v[i] for v, i in zip(values, indices)), deduped=deduped)
        keys = layout.column_key(0, values[0])[indices[0]]
        for j in range(1, len(values)):
            keys |= layout.column_key(j, values[j])[indices[j]]
        return cls.from_keys(keys, layout, deduped=deduped)

    @classmethod
    def empty(cls, arity: int = 2) -> "PairBlock":
        return cls(tuple(_EMPTY for _ in range(max(int(arity), 1))), deduped=True)

    @classmethod
    def from_array(cls, rows: np.ndarray, deduped: bool = False) -> "PairBlock":
        """Build a block from an ``(n, k)`` row-major array."""
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"expected an (n, k) array, got shape {arr.shape}")
        return cls(tuple(np.ascontiguousarray(arr[:, j]) for j in range(arr.shape[1])),
                   deduped=deduped)

    @classmethod
    def from_pairs(cls, pairs: Iterable[HeadTuple], arity: int = 2) -> "PairBlock":
        """Boundary conversion: build a block from an iterable of tuples."""
        rows = list(pairs)
        if not rows:
            return cls.empty(arity)
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        return cls.from_array(arr, deduped=isinstance(pairs, (set, frozenset, dict)))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def materialize(self) -> "PairBlock":
        """This block, switched to column form (no-op when it already is)."""
        packed = self._packed
        if packed is not None:
            keys, layout = packed
            self._columns = layout.unpack(keys)
            self._packed = None
        return self

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        """The column arrays (a key-form block decodes, once, on first read)."""
        return self.materialize()._columns

    @property
    def layout(self) -> Optional[KeyLayout]:
        """The key layout while the block is in key form, else ``None``."""
        packed = self._packed
        return None if packed is None else packed[1]

    @property
    def arity(self) -> int:
        packed = self._packed
        return len(self._columns) if packed is None else packed[1].arity

    @property
    def nbytes(self) -> int:
        """Footprint of the rows as int64 columns, in bytes.

        A block still in key form reports the size it decodes to, so the
        memory accounting in ``explain()`` does not depend on which form an
        intermediate happened to be in.
        """
        return 8 * self.arity * len(self)

    def __len__(self) -> int:
        packed = self._packed
        return int((self._columns[0] if packed is None else packed[0]).size)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[HeadTuple]:
        if self.arity == 2:
            return iter(zip(self.columns[0].tolist(), self.columns[1].tolist()))
        return iter(map(tuple, self.as_array().tolist()))

    def __contains__(self, row: HeadTuple) -> bool:
        mask = self.columns[0] == int(row[0])
        for col, value in zip(self.columns[1:], row[1:]):
            mask &= col == int(value)
        return bool(mask.any())

    def find(self, row: HeadTuple) -> int:
        """Position of ``row`` in a block in canonical order, ``-1`` if absent.

        One binary search per column, each inside the run the previous column
        left — valid on a :meth:`dedup` result and on any filter of one.
        """
        lo, hi = 0, len(self)
        for col, value in zip(self.columns, row):
            run = col[lo:hi]
            hi = lo + int(np.searchsorted(run, value, "right"))
            lo = lo + int(np.searchsorted(run, value, "left"))
            if lo == hi:
                return -1
        return lo

    def __repr__(self) -> str:
        return f"PairBlock(rows={len(self)}, arity={self.arity})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairBlock):
            if self.arity != other.arity:
                return False
            return np.array_equal(self.dedup().as_array(), other.dedup().as_array())
        if isinstance(other, (set, frozenset)):
            return self.to_set() == other
        return NotImplemented

    # Blocks compare by (deduplicated) content, so they are unhashable —
    # Python's default when __eq__ is defined without __hash__.
    __hash__ = None  # type: ignore[assignment]

    def as_array(self) -> np.ndarray:
        """The rows as an ``(n, k)`` array (a column-stacked copy)."""
        return np.column_stack(self.columns) if len(self) else np.empty(
            (0, self.arity), dtype=np.int64
        )

    # ------------------------------------------------------------------ #
    # Set algebra (NumPy-speed)
    # ------------------------------------------------------------------ #
    def _keys(self) -> Optional[Tuple[np.ndarray, KeyLayout]]:
        """``(keys, layout)`` of this block's rows.

        A key-form block hands out its own keys (read-only to the caller); a
        column-form block packs fresh ones under a layout sized from its own
        value ranges.  ``None`` when those ranges do not fit a key.
        """
        if self._packed is not None:
            return self._packed
        layout = KeyLayout.for_columns([self._columns])
        return None if layout is None else (layout.pack(self._columns), layout)

    def _as_deduped(self) -> "PairBlock":
        """This block's rows, untouched, flagged distinct."""
        if self._packed is None:
            return PairBlock(self._columns, deduped=True)
        return PairBlock.from_keys(*self._packed, deduped=True)

    def _rebuilt(self, keys: np.ndarray, layout: KeyLayout) -> "PairBlock":
        """The distinct rows ``keys``, in the form this block is in."""
        out = PairBlock.from_keys(keys, layout, deduped=True)
        return out if self._packed is not None else out.materialize()

    def dedup(self) -> "PairBlock":
        """Distinct rows in canonical (lexicographic) order.

        One plain sort of the packed keys plus a neighbour compare — or just
        the compare, when the rows turn out to be canonical already (a
        product's cells in row-major order, a filtered canonical block).
        The result comes back in the form the block was in: a key-form block
        stays keys (the pipeline keeps merging them), a column-form block is
        packed under a layout sized from its own value ranges and decoded
        once.  Ranges that do not fit a key take ``np.unique(axis=0)``.
        """
        if len(self) <= 1:
            return self
        found = self._keys()
        if found is None:
            return PairBlock.from_array(np.unique(self.as_array(), axis=0), deduped=True)
        keys, layout = found
        if _strictly_increasing(keys):
            return self._as_deduped()
        if self._packed is None:
            keys.sort()  # freshly packed: ours to reorder
        else:
            keys = np.sort(keys)
        return self._rebuilt(keys[run_starts(keys)], layout)

    def ranked(self) -> Tuple["PairBlock", np.ndarray]:
        """``(distinct rows in canonical order, every row's rank among them)``.

        The block-level ``np.unique(axis=0, return_inverse=True)``: one sort
        of the packed keys and one ``searchsorted`` back into them.
        """
        found = self._keys()
        if found is None:
            rows, ranks = np.unique(self.as_array(), axis=0, return_inverse=True)
            return PairBlock.from_array(rows, deduped=True), ranks.reshape(-1)
        keys, layout = found
        distinct = np.sort(keys)
        distinct = distinct[run_starts(distinct)]
        return self._rebuilt(distinct, layout), np.searchsorted(distinct, keys)

    def distinct_size(self) -> int:
        """Number of distinct rows (no-op when already deduped)."""
        return len(self) if self.deduped else len(self.dedup())

    def concat(self, other: "PairBlock") -> "PairBlock":
        """Row concatenation (duplicates preserved — dedup separately)."""
        return PairBlock.concat_all([self, other], arity=self.arity)

    @staticmethod
    def concat_all(blocks: Sequence["PairBlock"], arity: int = 2) -> "PairBlock":
        """Concatenate many blocks (the parallel executor's merge step).

        Key-form blocks under one layout concatenate their key arrays;
        anything else concatenates (decoded) columns.
        """
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return PairBlock.empty(arity)
        if any(b.arity != blocks[0].arity for b in blocks[1:]):
            raise ValueError("cannot concatenate blocks of different arity")
        if len(blocks) == 1:
            return blocks[0]
        layout = blocks[0].layout
        if layout is not None and all(b.layout == layout for b in blocks[1:]):
            return PairBlock.from_keys(
                np.concatenate([b._packed[0] for b in blocks]), layout
            )
        return PairBlock(
            tuple(
                np.concatenate([b.columns[j] for b in blocks])
                for j in range(blocks[0].arity)
            )
        )

    def _membership(self, other: "PairBlock") -> np.ndarray:
        """Boolean mask over this block's rows: present in ``other``?"""
        if self.arity != other.arity:
            raise ValueError("cannot compare blocks of different arity")
        layout = KeyLayout.for_columns([self.columns, other.columns])
        if layout is not None:
            return np.isin(layout.pack(self.columns), layout.pack(other.columns))
        # Fallback for domains too large to pack: one unique() over the
        # stacked rows labels every distinct row, membership is a gather.
        mine = self.as_array()
        theirs = other.as_array()
        _, inverse = np.unique(
            np.concatenate([mine, theirs]), axis=0, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        present = np.zeros(int(inverse.max()) + 1, dtype=bool)
        present[inverse[len(self):]] = True
        return present[inverse[: len(self)]]

    def difference(self, other: "PairBlock") -> "PairBlock":
        """Distinct rows of ``self`` that do not appear in ``other``."""
        if len(self) == 0 or len(other) == 0:
            return self.dedup()
        mask = ~self._membership(other)
        return PairBlock(tuple(c[mask] for c in self.columns), deduped=self.deduped).dedup()

    def intersection(self, other: "PairBlock") -> "PairBlock":
        """Distinct rows present in both blocks."""
        if len(self) == 0 or len(other) == 0:
            return PairBlock.empty(self.arity)
        mask = self._membership(other)
        return PairBlock(tuple(c[mask] for c in self.columns), deduped=self.deduped).dedup()

    def union(self, other: "PairBlock") -> "PairBlock":
        """Distinct rows present in either block (concat + dedup).

        The append half of the delta algebra: folding appended rows into a
        relation's block is one concatenation plus one packed-key sort, with
        the result back in canonical (lexicographic) order.
        """
        return self.concat(other).dedup()

    # ------------------------------------------------------------------ #
    # Boundary conversion
    # ------------------------------------------------------------------ #
    def to_set(self) -> set:
        """Materialise as a Python set of tuples (API boundary only)."""
        if self.arity == 2:
            return set(zip(self.columns[0].tolist(), self.columns[1].tolist()))
        return set(map(tuple, self.as_array().tolist()))


def _aggregate(
    keys: np.ndarray, counts: Optional[np.ndarray], key_bits: int, reduce: str
) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct keys ascending, their aggregated counts)``.

    ``counts`` of ``None`` means every row is one witness: the aggregate is
    the run length and no count column is ever built.  Otherwise the counts
    ride in the low bits of the sort key when ``key_bits`` leave room for
    their range (one plain sort orders keys and carries the counts along);
    past that the keys are argsorted — unstable, sums and maxima do not
    depend on the order within a run — and the counts gathered.
    """
    if counts is None:
        keys = np.sort(keys)
        starts = run_starts(keys)
        if reduce == "sum":
            return keys[starts], np.diff(starts, append=keys.size)
        return keys[starts], np.ones(starts.size, dtype=np.int64)
    cmin = int(counts.min())
    cbits = (int(counts.max()) - cmin).bit_length()
    if key_bits + cbits <= MAX_KEY_BITS:
        composite = (keys << cbits) | (counts - cmin)
        composite.sort()
        keys = composite >> cbits
        counts = (composite & ((1 << cbits) - 1)) + cmin
    else:
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
    starts = run_starts(keys)
    ufunc = np.add if reduce == "sum" else np.maximum
    return keys[starts], ufunc.reduceat(counts, starts)


class CountedPairBlock:
    """A :class:`PairBlock` with a parallel ``int64`` witness-count column.

    The key rows live in an inner :class:`PairBlock` (either form); a raw
    expansion (:meth:`from_expansion`) has no count column at all until
    someone reads :attr:`counts` — every row stands for one witness.
    """

    __slots__ = ("_block", "_counts")

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        counts: np.ndarray,
        deduped: bool = False,
    ) -> None:
        self._block = PairBlock(columns, deduped=deduped)
        self._counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if self._counts.size != len(self._block):
            raise ValueError("counts column must match the key columns in length")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, block: PairBlock, counts: Optional[np.ndarray]) -> "CountedPairBlock":
        """Attach a count column to ``block`` (``None``: one witness per row)."""
        if counts is not None and counts.size != len(block):
            raise ValueError("counts column must match the key columns in length")
        counted = cls.__new__(cls)
        counted._block = block
        counted._counts = counts
        return counted

    @classmethod
    def empty(cls, arity: int = 2) -> "CountedPairBlock":
        return cls.of(PairBlock.empty(arity), _EMPTY)

    @classmethod
    def from_expansion(cls, block: PairBlock) -> "CountedPairBlock":
        """Wrap a raw expansion block: every row is one witness (count 1)."""
        return cls.of(block, None)

    @classmethod
    def from_dict(cls, counts: Dict[HeadTuple, int], arity: int = 2) -> "CountedPairBlock":
        """Boundary conversion from a ``{tuple: count}`` mapping."""
        if not counts:
            return cls.empty(arity)
        keys = np.asarray(list(counts.keys()), dtype=np.int64)
        if keys.ndim == 1:
            keys = keys.reshape(-1, 1)
        values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        return cls.of(PairBlock.from_array(keys, deduped=True), values)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        return self._block.columns

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:
            self._counts = np.ones(len(self._block), dtype=np.int64)
        return self._counts

    @property
    def deduped(self) -> bool:
        return self._block.deduped

    @property
    def arity(self) -> int:
        return self._block.arity

    @property
    def nbytes(self) -> int:
        """Footprint as int64 key columns plus the count column, in bytes."""
        return self._block.nbytes + 8 * len(self)

    def __len__(self) -> int:
        return len(self._block)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return f"CountedPairBlock(rows={len(self)}, arity={self.arity})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CountedPairBlock):
            a, b = self.dedup(), other.dedup()
            return (
                a.arity == b.arity
                and np.array_equal(a.as_array(), b.as_array())
                and np.array_equal(a.counts, b.counts)
            )
        if isinstance(other, dict):
            return self.to_dict() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def pairs_block(self) -> PairBlock:
        """The key rows as a plain :class:`PairBlock` (counts dropped)."""
        return self._block

    def find(self, row: HeadTuple) -> int:
        """:meth:`PairBlock.find` over the key rows (``counts[i]`` is its count)."""
        return self._block.find(row)

    def materialize(self) -> "CountedPairBlock":
        """This block with its key rows switched to column form."""
        self._block.materialize()
        return self

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def concat(self, other: "CountedPairBlock") -> "CountedPairBlock":
        return CountedPairBlock.concat_all([self, other], arity=self.arity)

    @staticmethod
    def concat_all(blocks: Sequence["CountedPairBlock"],
                   arity: int = 2) -> "CountedPairBlock":
        """Concatenate many counted blocks (counts preserved — dedup separately)."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return CountedPairBlock.empty(arity)
        if len(blocks) == 1:
            return blocks[0]
        return CountedPairBlock.of(
            PairBlock.concat_all([b._block for b in blocks], arity=arity),
            np.concatenate([b.counts for b in blocks]),
        )

    def dedup(self, reduce: str = "sum") -> "CountedPairBlock":
        """Aggregate counts per distinct key row, in canonical order.

        ``reduce="sum"`` adds witness counts (the dedup-merge semantics:
        light and heavy witness populations are disjoint, so their counts add
        exactly); ``reduce="max"`` keeps the largest (used when duplicated
        rows are known to carry identical counts).  One plain sort of the
        packed keys — with the counts carried in their low bits whenever
        they fit — and a ``ufunc.reduceat`` over the runs; no Python dict is
        ever built.  Like :meth:`PairBlock.dedup`, rows that are canonical
        already are returned as they are, and the key rows come back in the
        form they were in.
        """
        if reduce not in ("sum", "max"):
            raise ValueError(f"unknown reduce mode {reduce!r}")
        if len(self) <= 1:
            return self
        block = self._block
        found = block._keys()
        if found is None:
            # Domains too large to pack: aggregate over the rows' ranks
            # among the distinct rows instead (every rank occurs, in order).
            distinct, ranks = block.ranked()
            _, counts = _aggregate(
                ranks, self._counts, (len(distinct) - 1).bit_length(), reduce
            )
            return CountedPairBlock.of(distinct, counts)
        keys, layout = found
        if _strictly_increasing(keys):
            return CountedPairBlock.of(block._as_deduped(), self.counts)
        keys, counts = _aggregate(keys, self._counts, layout.bits, reduce)
        return CountedPairBlock.of(block._rebuilt(keys, layout), counts)

    def filter(self, mask: np.ndarray) -> "CountedPairBlock":
        """Rows selected by a boolean mask (e.g. ``counts >= c``)."""
        rows = np.flatnonzero(mask)  # one scan of the mask, then plain takes
        return CountedPairBlock(
            tuple(c[rows] for c in self.columns), self.counts[rows], deduped=self.deduped
        )

    def as_array(self) -> np.ndarray:
        """Key rows as an ``(n, k)`` array (counts not included)."""
        return self._block.as_array()

    # ------------------------------------------------------------------ #
    # Boundary conversion
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[HeadTuple, int]:
        """Materialise as ``{tuple: count}`` (API boundary only).

        A block that is already aggregated (``deduped``) converts directly —
        no second dedup pass at the boundary.
        """
        block = self if self.deduped else self.dedup()
        if block.arity == 2:
            keys = zip(block.columns[0].tolist(), block.columns[1].tolist())
            return dict(zip(keys, block.counts.tolist()))
        return dict(zip(map(tuple, block.as_array().tolist()), block.counts.tolist()))

    def to_set(self) -> set:
        """Distinct key rows as a Python set of tuples (API boundary only)."""
        block = self._block
        return block.to_set() if self.deduped else block.dedup().to_set()
