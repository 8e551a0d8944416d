"""Tests for tables, indexes, and optimizer statistics."""

import pytest

from repro.database.schema import Index, Table, rubis_schema
from repro.database.statistics import StatisticsCatalog


class TestTable:
    def test_pages_computed_from_width(self):
        table = Table("t", rows=1000, row_bytes=8192)
        assert table.pages == 1000
        wide = Table("w", rows=10, row_bytes=100)
        assert wide.pages == 1  # 81 rows fit one page

    def test_grow_and_shrink(self):
        table = Table("t", rows=100, row_bytes=100)
        table.grow(50)
        assert table.rows == 150
        table.grow(-200)
        assert table.rows == 0

    def test_skew_shifts_actual_selectivity(self):
        table = Table("t", rows=1000, row_bytes=100)
        assert table.actual_selectivity(0.01, "col") == pytest.approx(0.01)
        table.set_skew("col", 10.0)
        assert table.actual_selectivity(0.01, "col") == pytest.approx(0.1)
        assert table.actual_selectivity(0.5, "col") == 1.0  # capped

    def test_clear_skew(self):
        table = Table("t", rows=10, row_bytes=10)
        table.set_skew("a", 2.0)
        table.set_skew("b", 3.0)
        table.clear_skew("a")
        assert "a" not in table.skew and "b" in table.skew
        table.clear_skew()
        assert not table.skew

    def test_validation(self):
        with pytest.raises(ValueError):
            Table("t", rows=-1, row_bytes=10)
        with pytest.raises(ValueError):
            Table("t", rows=1, row_bytes=0)
        with pytest.raises(ValueError):
            Table("t", rows=1, row_bytes=1, hot_fraction=0.0)
        with pytest.raises(ValueError):
            Table("t", rows=1, row_bytes=1).set_skew("c", 0.0)
        with pytest.raises(ValueError):
            Index("i", "c", selectivity=0.0)

    def test_duplicate_index_rejected(self):
        table = Table("t", rows=10, row_bytes=10)
        table.add_index(Index("i1", "c", 0.1))
        with pytest.raises(ValueError):
            table.add_index(Index("i2", "c", 0.2))


class TestRubisSchema:
    def test_contains_auction_tables(self):
        schema = rubis_schema()
        for name in ("users", "items", "bids", "comments", "buy_now"):
            assert name in schema
        assert schema["bids"].rows > schema["items"].rows

    def test_indexes_present(self):
        schema = rubis_schema()
        assert "item_id" in schema["bids"].indexes
        assert "category_id" in schema["items"].indexes


class TestStatisticsCatalog:
    def test_fresh_statistics_have_unit_staleness(self):
        catalog = StatisticsCatalog(rubis_schema())
        assert catalog.staleness("bids") == pytest.approx(1.0)
        assert catalog.max_staleness() == pytest.approx(1.0)

    def test_growth_raises_staleness_until_analyze(self):
        schema = rubis_schema()
        catalog = StatisticsCatalog(schema)
        schema["items"].grow(schema["items"].rows)  # double it
        assert catalog.staleness("items") == pytest.approx(2.0)
        catalog.analyze("items", now=5)
        assert catalog.staleness("items") == pytest.approx(1.0)
        assert catalog.statistics_for("items").analyzed_at == 5

    def test_analyze_captures_skew(self):
        schema = rubis_schema()
        catalog = StatisticsCatalog(schema)
        schema["bids"].set_skew("item_id", 40.0)
        stats = catalog.statistics_for("bids")
        assert stats.estimated_skew("item_id") == 1.0  # not yet seen
        catalog.analyze("bids", now=1)
        assert stats.estimated_skew("item_id") == pytest.approx(40.0)

    def test_auto_analyze_triggers_on_row_growth(self):
        schema = rubis_schema()
        catalog = StatisticsCatalog(schema, auto_analyze_threshold=1.3)
        schema["items"].grow(int(schema["items"].rows * 0.5))
        catalog.auto_analyze_and_max_staleness(now=2)
        assert catalog.statistics_for("items").analyzed_at == 2
        assert catalog.analyze_count == 1

    def test_auto_analyze_blind_to_skew_drift(self):
        """The realistic gap that lets stale-stats failures persist."""
        schema = rubis_schema()
        catalog = StatisticsCatalog(schema)
        stats = catalog.statistics_for("bids")
        stats.recorded_skew["item_id"] = 800.0  # phantom skew
        catalog.auto_analyze_and_max_staleness(now=3)
        assert catalog.analyze_count == 0
        assert stats.estimated_skew("item_id") == 800.0

    def test_auto_analyze_disabled(self):
        schema = rubis_schema()
        catalog = StatisticsCatalog(schema)
        catalog.auto_analyze_enabled = False
        schema["items"].grow(schema["items"].rows * 5)
        catalog.auto_analyze_and_max_staleness(now=1)
        assert catalog.analyze_count == 0
        assert catalog.statistics_for("items").analyzed_at == 0

    def test_unknown_table_rejected(self):
        catalog = StatisticsCatalog(rubis_schema())
        with pytest.raises(KeyError):
            catalog.statistics_for("nope")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            StatisticsCatalog(rubis_schema(), auto_analyze_threshold=1.0)
