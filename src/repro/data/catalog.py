"""A small catalog of named relations.

Query-level entry points (the serving session) operate over a
:class:`Catalog` so that a relation's lazily built
indexes are shared between repeated runs, mirroring how the paper's
prototype indexes every relation once during preprocessing.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.data.relation import Relation, RelationStats


class CatalogError(KeyError):
    """Raised when a relation is missing from the catalog."""


class Catalog:
    """A named collection of relations."""

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}

    def add(self, relation: Relation, name: Optional[str] = None) -> str:
        """Register a relation; returns the name under which it is stored."""
        key = name or relation.name
        self._relations[key] = relation
        return key

    def get(self, name: str) -> Relation:
        """Fetch a relation by name."""
        try:
            return self._relations[name]
        except KeyError as exc:
            raise CatalogError(f"unknown relation {name!r}") from exc

    def remove(self, name: str) -> None:
        """Drop a relation."""
        self._relations.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list:
        """Sorted list of relation names."""
        return sorted(self._relations)

    def stats_table(self) -> Dict[str, RelationStats]:
        """Table-2-style statistics for every relation in the catalog."""
        return {name: rel.stats() for name, rel in sorted(self._relations.items())}
