"""Tests for the cost-based optimizer and plan-quality signals."""

import pytest

from repro.database.optimizer import Optimizer
from repro.database.queries import rubis_query_templates
from repro.database.schema import rubis_schema
from repro.database.statistics import StatisticsCatalog


@pytest.fixture
def setup():
    schema = rubis_schema()
    catalog = StatisticsCatalog(schema)
    optimizer = Optimizer(catalog)
    templates = rubis_query_templates()
    return schema, catalog, optimizer, templates


def _plan(optimizer, template, table, data_miss_ratio, index_miss_ratio):
    """``plan_numbers`` at the actual selectivity, as the engine calls it.

    Returns ``(is_index_scan, est_rows, act_rows, est_cost_ms,
    act_cost_ms, optimal_cost_ms)``.
    """
    act_selectivity = table.actual_selectivity(
        template.selectivity, template.column
    )
    return optimizer.plan_numbers(
        template, table, act_selectivity, data_miss_ratio, index_miss_ratio
    )


class TestPlanChoice:
    def test_selective_query_uses_index(self, setup):
        schema, _, optimizer, templates = setup
        is_index, est_rows, act_rows, _, act_cost, optimal = _plan(
            optimizer, templates["select_bids_by_item"], schema["bids"],
            0.01, 0.01,
        )
        assert is_index
        assert act_cost - optimal == pytest.approx(0.0)
        assert act_rows / est_rows == pytest.approx(1.0)

    def test_unselective_query_scans(self, setup):
        schema, _, optimizer, templates = setup
        # A fifth of the small items table: scanning beats per-row probes.
        is_index, *_ = _plan(
            optimizer, templates["select_items_by_category"],
            schema["items"], 0.3, 0.3,
        )
        assert not is_index

    def test_phantom_skew_flips_to_full_scan_with_regret(self, setup):
        """Example 5: Xest >> Xact drives a suboptimal plan."""
        schema, catalog, optimizer, templates = setup
        catalog.statistics_for("bids").recorded_skew["item_id"] = 800.0
        is_index, est_rows, act_rows, _, act_cost, optimal = _plan(
            optimizer, templates["select_bids_by_item"], schema["bids"],
            0.01, 0.01,
        )
        assert not is_index
        assert est_rows > 100 * act_rows
        assert act_cost - optimal > 10.0
        assert act_cost > optimal

    def test_real_skew_with_fresh_stats_is_planned_correctly(self, setup):
        schema, catalog, optimizer, templates = setup
        schema["bids"].set_skew("item_id", 800.0)
        catalog.analyze("bids", now=1)
        _, est_rows, act_rows, _, act_cost, optimal = _plan(
            optimizer, templates["select_bids_by_item"], schema["bids"],
            0.01, 0.01,
        )
        # The optimizer knows about the hot item and picks the true
        # optimum, whatever it is: no regret.
        assert act_cost - optimal == pytest.approx(0.0, abs=1e-6)
        assert act_rows / est_rows == pytest.approx(1.0)

    def test_misses_raise_costs(self, setup):
        schema, _, optimizer, templates = setup
        template = templates["select_bids_by_item"]
        cheap = _plan(optimizer, template, schema["bids"], 0.0, 0.0)
        expensive = _plan(optimizer, template, schema["bids"], 0.9, 0.9)
        assert expensive[4] > cheap[4]

    def test_non_indexed_template_never_index_scans(self, setup):
        schema, catalog, optimizer, _ = setup
        from repro.database.queries import QueryTemplate

        template = QueryTemplate(
            "adhoc", "items", 0.001, "item_id", indexed=False
        )
        is_index, *_ = _plan(optimizer, template, schema["items"], 0.01, 0.01)
        assert not is_index
