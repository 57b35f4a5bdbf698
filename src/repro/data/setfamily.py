"""Set-family view over a binary relation.

The set similarity / containment applications in the paper treat the relation
``R(x, y)`` as a family of sets: ``x`` is a set identifier and its set is the
collection of ``y`` values paired with it.  :class:`SetFamily` provides that
view together with the inverted index ``L[b] = {x | (x, b) in R}`` that every
SSJ/SCJ algorithm relies on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.data.relation import Relation


class SetFamily:
    """A family of integer sets backed by a :class:`Relation`."""

    def __init__(self, relation: Relation) -> None:
        self._relation = relation

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, sets: Mapping[int, Iterable[int]], name: str = "R") -> "SetFamily":
        """Build a set family from ``{set_id: iterable of elements}``."""
        return cls(Relation.from_set_family(sets, name=name))

    @classmethod
    def from_relation(cls, relation: Relation) -> "SetFamily":
        """Wrap an existing relation."""
        return cls(relation)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def relation(self) -> Relation:
        """The underlying binary relation."""
        return self._relation

    def set_ids(self) -> np.ndarray:
        """Sorted array of set identifiers."""
        return self._relation.x_values()

    def elements(self) -> np.ndarray:
        """Sorted array of all element values (the domain)."""
        return self._relation.y_values()

    def num_sets(self) -> int:
        """Number of sets in the family."""
        return int(self.set_ids().size)

    def num_tuples(self) -> int:
        """Total number of (set, element) pairs."""
        return len(self._relation)

    def __len__(self) -> int:
        return self.num_sets()

    def __iter__(self) -> Iterator[Tuple[int, np.ndarray]]:
        return iter(self.sets().items())

    def sets(self) -> Dict[int, np.ndarray]:
        """Mapping from set id to its sorted element array."""
        return self._relation.index_x()

    def get(self, set_id: int) -> np.ndarray:
        """Sorted element array of one set (empty array if absent)."""
        return self.sets().get(int(set_id), _EMPTY)

    def set_size(self, set_id: int) -> int:
        """Cardinality of one set."""
        return int(self.get(set_id).size)

    def sizes(self) -> Dict[int, int]:
        """Mapping from set id to its cardinality."""
        return dict(self._relation.degrees_x())

    def inverted_index(self) -> Dict[int, np.ndarray]:
        """Inverted index ``L[b]``: element -> sorted array of set ids."""
        return self._relation.index_y()

    def inverted_list(self, element: int) -> np.ndarray:
        """The inverted list of one element (empty array if absent)."""
        return self.inverted_index().get(int(element), _EMPTY)

    # ------------------------------------------------------------------ #
    # Set-level operations
    # ------------------------------------------------------------------ #
    def intersection_size(self, a: int, b: int) -> int:
        """Exact size of the intersection of two sets."""
        return int(np.intersect1d(self.get(a), self.get(b), assume_unique=True).size)

    def contains(self, a: int, b: int) -> bool:
        """True iff set ``a`` is a subset of set ``b``."""
        set_a = self.get(a)
        set_b = self.get(b)
        if set_a.size > set_b.size:
            return False
        return bool(np.isin(set_a, set_b, assume_unique=True).all()) if set_a.size else True

    def jaccard(self, a: int, b: int) -> float:
        """Jaccard similarity of two sets."""
        inter = self.intersection_size(a, b)
        union = self.set_size(a) + self.set_size(b) - inter
        return inter / union if union else 0.0

    def partition_by_size(self, threshold: int) -> Tuple[List[int], List[int]]:
        """Split set ids into (light, heavy) by set cardinality.

        This is the SizeAware partition: sets of size <= ``threshold`` are
        light, the rest are heavy.
        """
        light: List[int] = []
        heavy: List[int] = []
        for set_id, elems in self.sets().items():
            if elems.size <= threshold:
                light.append(set_id)
            else:
                heavy.append(set_id)
        return light, heavy

    def restrict(self, set_ids: Iterable[int], name: Optional[str] = None) -> "SetFamily":
        """Return the sub-family containing only the given sets."""
        return SetFamily(self._relation.restrict_x(set_ids, name=name))

    def stats_row(self) -> Dict[str, float]:
        """Table 2 style statistics row for this family."""
        return self._relation.stats().as_row()


_EMPTY = np.empty(0, dtype=np.int64)
