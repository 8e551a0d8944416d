"""Tests for the wide-mix pack: universe shape, width, determinism.

The wide mix exists to give a *single* service a long-tail query mix,
so beyond the usual pack contracts (deterministic schedules,
record/replay) these tests pin the width the database engine actually
prices per tick.
"""

from __future__ import annotations

from repro.database.queries import rubis_query_templates
from repro.database.schema import rubis_schema
from repro.scenarios.packs import build_scenario_service, get_scenario
from repro.scenarios.wide import (
    WIDE_TEMPLATE_COUNT,
    wide_entry_points,
    wide_query_templates,
    wide_tiers,
)
from repro.simulator.config import ServiceConfig
from repro.simulator.ejb import rubis_entry_points


class TestWideUniverse:
    def test_universe_is_wide_and_unique(self):
        templates = wide_query_templates()
        assert len(templates) >= 128
        schema = rubis_schema()
        stock = rubis_query_templates()
        for name, template in templates.items():
            assert name == template.name
            assert name not in stock
            assert template.table in schema
            assert 0.0 < template.selectivity <= 1.0
            if template.indexed:
                # Big-table classes stay short: the tail loads the
                # engine by aggregate volume, not monster scans.
                assert template.selectivity < 1e-3
        # The tail carries writes too — statistics keep aging.
        writes = [t for t in templates.values() if t.is_write]
        assert len(writes) >= WIDE_TEMPLATE_COUNT // 10
        # And unindexed classes — the optimizer must full-scan some.
        assert any(not t.indexed for t in templates.values())

    def test_universe_is_deterministic(self):
        a = wide_query_templates()
        b = wide_query_templates()
        assert list(a) == list(b)
        assert a == b

    def test_blueprints_reference_known_templates(self):
        known = set(rubis_query_templates()) | set(wide_query_templates())
        for blueprint in wide_entry_points().values():
            assert set(blueprint.queries) <= known

    def test_blueprints_keep_stock_call_graph(self):
        stock = rubis_entry_points()
        widened = wide_entry_points()
        assert list(widened) == list(stock)
        for request_type, blueprint in widened.items():
            assert blueprint.edges == stock[request_type].edges
            # Stock query classes survive alongside the tail.
            for query, rate in stock[request_type].queries.items():
                assert blueprint.queries[query] == rate

    def test_every_template_is_dealt_to_a_blueprint(self):
        dealt: set[str] = set()
        for blueprint in wide_entry_points().values():
            dealt.update(blueprint.queries)
        assert set(wide_query_templates()) <= dealt


class TestWideMixPack:
    def test_registered_with_wide_tiers(self):
        pack = get_scenario("wide_mix")
        service = build_scenario_service(pack, ServiceConfig(seed=3))
        assert len(service.db.engine.templates) >= 128 + 14
        queries = set()
        for blueprint in service.app.container.blueprints.values():
            queries.update(blueprint.queries)
        assert len(queries) >= 128

    def test_tier_factory_honors_config_sizing(self):
        config = ServiceConfig(seed=1)
        _, engine = wide_tiers(config)
        assert engine.buffers.total_pages == config.db_buffer_pages
        assert engine.max_connections == config.db_max_connections

    def test_active_width_crosses_min_batch(self, monkeypatch):
        """One service's engine prices 90+ active classes per tick."""
        pack = get_scenario("wide_mix")
        service = build_scenario_service(pack, ServiceConfig(seed=5))
        for _ in range(20):  # warm up past initial transients
            service.step()
        engine = service.db.engine
        process_tick = engine.process_tick
        widths = []

        def capture(query_counts, now):
            widths.append(sum(1 for c in query_counts.values() if c > 0))
            return process_tick(query_counts, now)

        monkeypatch.setattr(engine, "process_tick", capture)
        for _ in range(10):
            assert service.step().available
        assert len(widths) == 10
        # The stock RUBiS mix is 14 classes wide.
        assert min(widths) >= 90

    def test_schedule_is_deterministic(self):
        pack = get_scenario("wide_mix")
        a = pack.build_faults(21, 8)
        b = pack.build_faults(21, 8)
        assert [f.kind for f in a] == [f.kind for f in b]
        kinds = {f.kind for f in a}
        assert kinds <= {
            "stale_statistics",
            "buffer_contention",
            "table_contention",
            "hung_query",
        }


class TestWideMixFleet:
    def test_record_replay_round_trip(self, tmp_path):
        from repro.scenarios.runner import replay_campaign, run_scenario

        trace = str(tmp_path / "wide.jsonl")
        run = run_scenario(
            "wide_mix", seed=9, n_episodes=2, record_path=trace
        )
        replayed = replay_campaign(trace)
        assert replayed.result.injected == run.result.injected
        assert replayed.result.undetected == run.result.undetected
        assert len(replayed.result.reports) == len(run.result.reports)
        for a, b in zip(run.result.reports, replayed.result.reports):
            assert a.detected_at == b.detected_at
            assert a.recovered_at == b.recovered_at
            assert a.successful_fix == b.successful_fix

    def test_deterministic_trace_hash(self, tmp_path):
        from repro.scenarios.runner import run_scenario

        hashes = []
        for name in ("a.jsonl", "b.jsonl"):
            run = run_scenario(
                "wide_mix",
                seed=9,
                n_episodes=2,
                record_path=str(tmp_path / name),
            )
            hashes.append(run.trace_sha256)
        assert hashes[0] == hashes[1]
