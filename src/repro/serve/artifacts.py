"""LRU artifact cache with byte budgeting for the serving layer.

A :class:`QuerySession <repro.serve.session.QuerySession>` amortises query
preprocessing by caching *derived artifacts* — semijoin-reduced relation
lists (whose lazy layouts, the per-column CSR indexes, stay warm with
them), light/heavy partitions, matmul operand matrices, and memoized plan
results.  All of them live in instances of one structure:

* entries are keyed by structured tuples whose leaves embed
  ``("rel", name, version)`` tokens, so a data mutation invalidates exactly
  the artifacts derived from the mutated relation;
* every entry carries its byte size; inserts evict least-recently-used
  entries until the configured budget is met (single entries larger than the
  whole budget are refused rather than thrashing the cache);
* hits, misses, evictions and current bytes are counted — the counters feed
  ``explain()`` details and the ``repro-cli session`` report.

The cache is thread-safe: ``submit_batch`` fans query evaluation out across
a thread pool and every worker consults the same caches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Collection, Dict, Optional, Tuple


def token_mentions(token: Any, name: str) -> bool:
    """Whether a (possibly nested) cache-key token references relation ``name``.

    Leaf tokens look like ``("rel", name, version)`` for whole relations and
    ``("shard", name, shard, shard_version)`` for one shard of a sharded
    registration; derived tokens nest their parents, e.g.
    ``("drv", "semijoin", (parent, parent), mode)``.
    """
    if isinstance(token, tuple):
        if len(token) == 3 and token[0] == "rel":
            return token[1] == name
        if len(token) == 4 and token[0] == "shard":
            return token[1] == name
        return any(token_mentions(part, name) for part in token)
    return False


def token_mentions_write(token: Any, name: str, shards: Collection[int]) -> bool:
    """Whether a token is stale after a write touching ``shards`` of ``name``.

    An append/delete batch hash-routes to several shards at once and
    ``update_shard`` replaces one; either way one invalidation pass covers
    them all.  Touched-shard leaves (``("shard", name, shard, v)``) match,
    and so does anything keyed on the whole relation (``("rel", name, v)``
    leaves — the plan memo and unsharded artifacts, whose results change
    whenever any shard does).  Sibling-shard leaves do **not** match: their
    derived state stays warm.
    """
    if isinstance(token, tuple):
        if len(token) == 3 and token[0] == "rel":
            return token[1] == name
        if len(token) == 4 and token[0] == "shard":
            return token[1] == name and token[2] in shards
        return any(token_mentions_write(part, name, shards) for part in token)
    return False


def token_mentions_any_shard(token: Any, name: str) -> bool:
    """Whether a token references *any* shard leaf of relation ``name``.

    Used when a relation is re-partitioned under a new spec: every shard
    artifact is stale, but entries keyed only on the whole relation (whose
    data did not change) survive.
    """
    if isinstance(token, tuple):
        if len(token) == 4 and token[0] == "shard":
            return token[1] == name
        if len(token) == 3 and token[0] == "rel":
            return False
        return any(token_mentions_any_shard(part, name) for part in token)
    return False


class ArtifactCache:
    """A byte-budgeted, thread-safe LRU mapping for session artifacts."""

    def __init__(self, max_bytes: Optional[int] = None, name: str = "artifacts") -> None:
        self.name = name
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.RLock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Per-artifact-kind hit/miss counts (kind = structured key's leading
        # tag, e.g. "semijoin" / "operands" / "shard_result").  Feeds the
        # metrics registry's per-kind hit-ratio gauges; the aggregate
        # stats() shape is unchanged.
        self._kind_hits: Dict[str, int] = {}
        self._kind_misses: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #
    def lookup(self, key: Any) -> Tuple[bool, Any]:
        """``(found, value)``; counts a hit or a miss and refreshes LRU order."""
        kind = key[0] if type(key) is tuple and key else "other"
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._kind_misses[kind] = self._kind_misses.get(kind, 0) + 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            self._kind_hits[kind] = self._kind_hits.get(kind, 0) + 1
            return True, entry[0]

    def put(self, key: Any, value: Any, nbytes: int) -> None:
        """Insert (or replace) an entry, evicting LRU entries over budget."""
        nbytes = max(int(nbytes), 0)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            if self.max_bytes is not None and nbytes > self.max_bytes:
                # One artifact larger than the whole budget would immediately
                # evict everything else and then itself; refuse instead.  The
                # old entry under this key must still go: the caller computed
                # a replacement, so the cached value is stale — leaving it
                # would keep serving outdated hits.
                if old is not None:
                    self.evictions += 1
                return
            self._entries[key] = (value, nbytes)
            self.current_bytes += nbytes
            if self.max_bytes is not None:
                while self.current_bytes > self.max_bytes and len(self._entries) > 1:
                    _, (_, evicted_bytes) = self._entries.popitem(last=False)
                    self.current_bytes -= evicted_bytes
                    self.evictions += 1

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def invalidate_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns count."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self.current_bytes -= nbytes
            self.invalidations += len(doomed)
            return len(doomed)

    def invalidate_relation(self, name: str) -> int:
        """Drop every artifact derived from relation ``name`` (any version)."""
        return self.invalidate_where(lambda key: token_mentions(key, name))

    def invalidate_write(self, name: str, shards: Collection[int]) -> int:
        """Drop artifacts stale after a write touching ``shards`` of ``name``.

        One pass over the cache covers every shard an append/delete batch
        routed rows to — or the one shard ``update_shard`` replaced — plus
        whole-relation entries; untouched shards' artifacts survive, which
        is what keeps warm serving warm across small writes.
        """
        return self.invalidate_where(
            lambda key: token_mentions_write(key, name, shards)
        )

    def invalidate_shards(self, name: str) -> int:
        """Drop every shard-derived artifact of ``name`` (re-partitioning)."""
        return self.invalidate_where(lambda key: token_mentions_any_shard(key, name))

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self.current_bytes = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Counter snapshot (feeds explain() details and the CLI report)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def kind_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-artifact-kind ``{"hits": n, "misses": n}`` rows.

        Kept separate from :meth:`stats` so the aggregate dict's shape (which
        golden explains embed) never changes.
        """
        with self._lock:
            kinds = sorted(set(self._kind_hits) | set(self._kind_misses))
            return {
                kind: {
                    "hits": self._kind_hits.get(kind, 0),
                    "misses": self._kind_misses.get(kind, 0),
                }
                for kind in kinds
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (f"ArtifactCache({self.name!r}, entries={s['entries']}, "
                f"bytes={s['bytes']}, hits={s['hits']}, misses={s['misses']})")
