"""Sharded containers: a relation hash-partitioned on the join attribute.

A :class:`ShardedRelation` holds one :class:`~repro.data.relation.Relation`
per shard of a :class:`~repro.shard.spec.ShardingSpec`, partitioned on the
``y`` column (the join/witness attribute).  Shard slices inherit the base
relation's lexicographic order, so each shard is constructed with
``sorted_dedup=True`` and builds its own lazy layouts (the per-column CSR
indexes) independently — which is exactly what the serving layer caches per
shard.

Set families shard through their backing relation: a sharded family is the
sharded membership relation, and the similarity/containment joins lower to
counting two-path queries over it.

``combined()`` re-materialises the full relation (needed by unsharded
fallback paths, statistics and the catalog) with a packed-key merge of the
already-sorted shard slices.  After a mutation it returns a **lazy view**
(:class:`LazyCombinedRelation`): the merge is deferred until something
actually reads the combined data, so the ``update_shard`` mutation path —
which only needs a catalog handle for the new version — no longer pays the
packed-key merge eagerly.

The same lazy view is the write-absorption buffer of the streaming path:
:meth:`ShardedRelation.apply_delta` stacks append/delete deltas on a shard
as ordered pending ``("+"/"-", rows)`` entries.  While the pending rows
stay within the session's lazy-merge threshold nothing is folded — a burst
of small writes costs one :class:`~repro.data.pairblock.PairBlock` replay
on the next read instead of one merge per write.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.pairblock import PairBlock
from repro.data.relation import Relation, _sorted_pairs
from repro.shard.spec import ShardingSpec

# One pending delta: ("+"/"-", (n, 2) int64 rows), replayed in order.
Delta = Tuple[str, np.ndarray]
# A lazy source: a raw data array, or a Relation resolved only at
# materialisation time (so building a combined view of shards with pending
# deltas does not force those shards to fold).
Source = Union[np.ndarray, Relation]


def _restore_relation(data: np.ndarray, name: str) -> Relation:
    """Pickle/deepcopy reconstruction target for :class:`LazyCombinedRelation`.

    The copy comes back as a plain (materialised) :class:`Relation`: the
    lazy view's source references are an in-process optimisation, not part
    of the relation's value.
    """
    return Relation(data, name=name, sorted_dedup=True)


class LazyCombinedRelation(Relation):
    """A :class:`Relation` whose data merges from shard slices on demand.

    Construction snapshots the (immutable) per-shard sources — data arrays
    or :class:`Relation` objects resolved at merge time — plus an ordered
    list of pending ``("+"/"-", rows)`` deltas, and defers the packed-key
    merge (and the delta replay) until the first access to any
    data-dependent attribute.  ``Relation`` stores everything in
    ``__slots__``, so an unset slot raises ``AttributeError`` and lands in
    ``__getattr__`` — which materialises once via ``Relation.__init__`` and
    then resolves normally.  Until then the view costs one list of
    references.

    Holding Relation sources keeps stacked laziness cheap: a combined view
    over shards with pending deltas folds each shard only when the combined
    data is actually read, not when the view is built.
    """

    __slots__ = ("_sources", "_deltas")

    def __init__(self, sources: Sequence[Source], name: str,
                 deltas: Optional[Sequence[Delta]] = None) -> None:
        self._sources = list(sources)
        self._deltas = list(deltas) if deltas else []
        self.name = name

    @property
    def materialized(self) -> bool:
        """Whether the merge has run (no data access has happened yet)."""
        try:
            object.__getattribute__(self, "_data")
            return True
        except AttributeError:
            return False

    @property
    def pending_rows(self) -> int:
        """Total rows across pending deltas (drives the lazy-merge threshold)."""
        return sum(int(rows.shape[0]) for _, rows in self._deltas)

    def _materialize(self) -> None:
        arrays: List[np.ndarray] = []
        for source in self._sources:
            data = source.data if isinstance(source, Relation) else source
            if data.shape[0]:
                arrays.append(np.asarray(data))
        if len(arrays) > 1:
            stacked = np.concatenate(arrays)
            merged = np.column_stack(_sorted_pairs(stacked[:, 0], stacked[:, 1]))
        elif arrays:
            merged = arrays[0]  # a single source is already sorted/deduped
        else:
            merged = np.empty((0, 2), dtype=np.int64)
        if self._deltas:
            block = PairBlock.from_array(merged, deduped=True)
            for op, rows in self._deltas:
                delta = PairBlock.from_array(rows)
                block = block.union(delta) if op == "+" else block.difference(delta)
            merged = block.as_array()  # union/difference are canonical-sorted
        # Relation.__init__ fills every slot (data + the lazy layout
        # caches), so subsequent attribute access never lands here again.
        Relation.__init__(self, merged, name=self.name, sorted_dedup=True)

    def __getattr__(self, attr: str):
        # Only reached for slots Relation.__init__ would have set; anything
        # else is a genuine miss.
        if attr in Relation.__slots__:
            self._materialize()
            return getattr(self, attr)
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {attr!r}"
        )

    def __reduce__(self):
        # Slot-based pickling of the unmaterialised view would ship the raw
        # source references (and fail to restore: __getattr__ recurses into
        # half-initialised state on load).  Materialise first and pickle the
        # merged value as a plain Relation.
        if not self.materialized:
            self._materialize()
        return (_restore_relation, (np.array(self._data), self.name))


class ShardedRelation:
    """A relation split into per-shard sub-relations on the join attribute."""

    def __init__(self, spec: ShardingSpec, shards: List[Relation], name: str,
                 base: Optional[Relation] = None) -> None:
        if len(shards) != spec.num_shards:
            raise ValueError(
                f"expected {spec.num_shards} shards, got {len(shards)}"
            )
        self.spec = spec
        self.name = name
        self._shards = list(shards)
        self._combined = base

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def partition(cls, relation: Relation, spec: ShardingSpec,
                  name: Optional[str] = None) -> "ShardedRelation":
        """Split a relation by the spec's key -> shard assignment.

        Boolean-mask slices of the (sorted, deduplicated) base data stay
        sorted and deduplicated, so every shard is built with
        ``sorted_dedup=True`` — no per-shard re-sorting.
        """
        name = name or relation.name
        owners = spec.shard_of_keys(relation.ys)
        shards: List[Relation] = []
        data = relation.data
        for shard in range(spec.num_shards):
            # Boolean indexing copies, so the slice is independent of the
            # (read-only) base view.
            shards.append(
                Relation(data[owners == shard], name=f"{name}#{shard}",
                         sorted_dedup=True)
            )
        return cls(spec=spec, shards=shards, name=name, base=relation)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.spec.num_shards

    @property
    def shards(self) -> List[Relation]:
        return list(self._shards)

    def shard(self, shard: int) -> Relation:
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        return self._shards[shard]

    def sizes(self) -> List[int]:
        """Tuples per shard."""
        return [len(s) for s in self._shards]

    def __len__(self) -> int:
        return sum(self.sizes())

    def __repr__(self) -> str:
        return (
            f"ShardedRelation({self.name!r}, shards={self.num_shards}, "
            f"tuples={len(self)})"
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def replace_shard(self, shard: int, relation: Relation) -> Relation:
        """Swap one shard's data; returns the stored (renamed) sub-relation.

        Every join key of the new rows must map to ``shard`` under the spec —
        a shard-local update must not silently move tuples into sibling
        shards (that would require invalidating them too).
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        if len(relation):
            owners = self.spec.shard_of_keys(relation.ys)
            if not bool((owners == shard).all()):
                foreign = np.unique(relation.ys[owners != shard])
                raise ValueError(
                    f"rows for shard {shard} of {self.name!r} carry join keys "
                    f"owned by other shards: {foreign[:8].tolist()}"
                )
        stored = Relation(relation.data, name=f"{self.name}#{shard}",
                          sorted_dedup=True)
        self._shards[shard] = stored
        self._combined = None
        return stored

    def apply_delta(self, shard: int, rows: np.ndarray, op: str,
                    lazy_rows: int = 0) -> Relation:
        """Fold an append (``"+"``) or delete (``"-"``) delta into one shard.

        ``rows`` is an ``(n, 2)`` array whose join keys must all map to
        ``shard`` under the spec — the session routes deltas before calling
        this, but the check keeps direct callers honest.  The delta stacks
        onto a lazy view of the shard: while the shard's total pending rows
        stay within ``lazy_rows`` the merge is deferred, so a burst of
        small writes pays one :class:`~repro.data.pairblock.PairBlock`
        replay on the next read instead of one merge per write.  Past the
        threshold the view folds eagerly.  Returns the stored sub-relation
        (always a fresh object, so session token bindings stay per-version).
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        if op not in ("+", "-"):
            raise ValueError(f"unknown delta op {op!r} (expected '+' or '-')")
        rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64).reshape(-1, 2))
        if rows.shape[0]:
            owners = self.spec.shard_of_keys(rows[:, 1])
            if not bool((owners == shard).all()):
                foreign = np.unique(rows[:, 1][owners != shard])
                raise ValueError(
                    f"delta rows for shard {shard} of {self.name!r} carry join "
                    f"keys owned by other shards: {foreign[:8].tolist()}"
                )
        current = self._shards[shard]
        if isinstance(current, LazyCombinedRelation) and not current.materialized:
            # Extend the unfolded predecessor's pending list instead of
            # nesting views (a chain of views would replay recursively).
            sources: List[Source] = list(current._sources)
            deltas = current._deltas + [(op, rows)]
        else:
            sources = [current] if len(current) else []
            deltas = [(op, rows)]
        stored = LazyCombinedRelation(sources, name=f"{self.name}#{shard}",
                                      deltas=deltas)
        if stored.pending_rows > max(int(lazy_rows), 0):
            stored._materialize()
        self._shards[shard] = stored
        self._combined = None
        return stored

    def combined(self) -> Relation:
        """The union of all shards as one relation (cached until mutated).

        Shards partition the key space, so the union has no cross-shard
        duplicates; the merge is a single packed-key sort of the
        concatenated (already sorted) slices — deferred behind a
        :class:`LazyCombinedRelation`, so calling this on the mutation path
        costs nothing until someone actually reads the combined data.  The
        view snapshots the current slice objects (not their data, so shards
        with pending deltas are not forced to fold here): a later
        :meth:`replace_shard` / :meth:`apply_delta` swaps in fresh slice
        objects and a fresh view, leaving an already-handed-out one
        describing the pre-mutation state.
        """
        if self._combined is None:
            self._combined = LazyCombinedRelation(list(self._shards),
                                                  name=self.name)
        return self._combined
