"""Unit tests for repro.data.catalog."""

import pytest

from repro.data.catalog import Catalog, CatalogError
from repro.data.relation import Relation


@pytest.fixture
def catalog(tiny_relation, tiny_relation_s):
    cat = Catalog()
    cat.add(tiny_relation)
    cat.add(tiny_relation_s)
    return cat


class TestCatalog:
    def test_add_and_get(self, catalog, tiny_relation):
        assert catalog.get("R") is tiny_relation

    def test_add_with_explicit_name(self, catalog, tiny_relation):
        catalog.add(tiny_relation, name="alias")
        assert catalog.get("alias") is tiny_relation

    def test_get_missing_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get("missing")

    def test_contains_and_len(self, catalog):
        assert "R" in catalog and "S" in catalog
        assert len(catalog) == 2

    def test_names_sorted(self, catalog):
        assert catalog.names() == ["R", "S"]

    def test_remove(self, catalog):
        catalog.remove("R")
        assert "R" not in catalog
        catalog.remove("R")  # removing twice is a no-op

    def test_stats_table(self, catalog, tiny_relation):
        table = catalog.stats_table()
        assert set(table) == {"R", "S"}
        assert table["R"].num_tuples == len(tiny_relation)

    def test_iteration(self, catalog):
        assert set(iter(catalog)) == {"R", "S"}
