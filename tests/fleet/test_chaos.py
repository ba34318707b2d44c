"""Tests for chaos events, windows, and bundled scenarios."""

import pytest

from repro.errors import ConfigError
from repro.fleet.chaos import (
    CHAOS_KINDS,
    SCENARIOS,
    ChaosEvent,
    scenario_schedule,
)
from repro.fleet.sim import FleetConfig, FleetSimulation
from repro.fleet.tenant import TenantSpec
from repro.units import HUGE_PAGE_SIZE


def make_fleet(events=(), names=("a", "b")):
    specs = [
        TenantSpec(name=n, workload="web-search", scale=0.01, seed=3 + i)
        for i, n in enumerate(names)
    ]
    return FleetSimulation(
        specs, list(events), FleetConfig(duration=300.0, epoch=30.0, seed=7)
    )


class TestEvent:
    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown chaos kind"):
            ChaosEvent("meteor-strike", 0.0, 10.0)
        with pytest.raises(ConfigError):
            ChaosEvent("noisy-neighbor", -1.0, 10.0)
        with pytest.raises(ConfigError):
            ChaosEvent("noisy-neighbor", 0.0, 0.0)
        with pytest.raises(ConfigError, match="removed"):
            ChaosEvent("dram-shrink", 0.0, 10.0, magnitude=1.0)

    def test_end(self):
        event = ChaosEvent("latency-spike", 30.0, 60.0, magnitude=2.0)
        assert event.end == 90.0


class TestWindows:
    def test_noisy_neighbor_applies_and_restores(self):
        event = ChaosEvent("noisy-neighbor", 30.0, 30.0, target="a", magnitude=3.0)
        fleet = make_fleet([event])
        engine = fleet.chaos
        tenant = fleet.tenants["a"]
        tenant.admitted = True  # window targeting needs an active tenant
        assert not engine.apply(0.0, fleet)
        assert tenant.interference_factor == 1.0
        engine.apply(30.0, fleet)
        assert tenant.interference_factor == 3.0
        assert fleet.tenants["b"].interference_factor == 1.0
        engine.apply(60.0, fleet)
        assert tenant.interference_factor == 1.0

    def test_dram_shrink_flags_budget_change_and_restores(self):
        event = ChaosEvent("dram-shrink", 30.0, 30.0, magnitude=0.5)
        fleet = make_fleet([event])
        base = fleet.arbiter.base_host_dram_bytes
        assert fleet.chaos.apply(30.0, fleet)
        shrunk = fleet.arbiter.host_dram_bytes
        assert shrunk <= int(base * 0.5)
        assert shrunk % HUGE_PAGE_SIZE == 0
        assert fleet.chaos.apply(60.0, fleet)
        assert fleet.arbiter.host_dram_bytes == base

    def test_migration_storm_scales_all_models(self):
        event = ChaosEvent("migration-storm", 0.0, 30.0, magnitude=0.7)
        fleet = make_fleet([event])
        fleet.chaos.apply(0.0, fleet)
        assert all(
            m.failure_rate == 0.7 for m in fleet.chaos_models.values()
        )
        fleet.chaos.apply(30.0, fleet)
        assert all(
            m.failure_rate == 0.0 for m in fleet.chaos_models.values()
        )

    def test_latency_spike_restores_base_latency(self):
        event = ChaosEvent("latency-spike", 0.0, 30.0, magnitude=4.0)
        fleet = make_fleet([event])
        tenant = fleet.tenants["a"]
        tenant.admitted = True
        base = tenant.base_slow_latency
        fleet.chaos.apply(0.0, fleet)
        assert tenant.engine.topology.slow.tier.spec.access_latency == 4.0 * base
        fleet.chaos.apply(30.0, fleet)
        assert tenant.engine.topology.slow.tier.spec.access_latency == base

    def test_sync_tenant_replays_open_windows(self):
        event = ChaosEvent("noisy-neighbor", 0.0, 60.0, magnitude=2.0)
        fleet = make_fleet([event])
        fleet.chaos.apply(0.0, fleet)  # no tenant active yet
        tenant = fleet.tenants["a"]
        assert tenant.interference_factor == 1.0
        fleet.chaos.sync_tenant(tenant, 0.0)
        assert tenant.interference_factor == 2.0


class TestScenarios:
    def test_registry_covers_all_kinds(self):
        assert set(SCENARIOS) >= {"baseline", "adversarial", "churn"}
        for kind in CHAOS_KINDS:
            if kind == "tenant-resize":
                continue  # exercised inside the churn scenario
            assert kind in SCENARIOS

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown chaos scenario"):
            scenario_schedule("nope", ["a"], 600.0, 0.02)

    def test_builders_are_deterministic(self):
        for name in SCENARIOS:
            first = scenario_schedule(name, ["a", "b"], 600.0, 0.02)
            second = scenario_schedule(name, ["a", "b"], 600.0, 0.02)
            assert first == second, name

    def test_adversarial_adds_impossible_tenant(self):
        extra, events = scenario_schedule("adversarial", ["a"], 600.0, 0.02)
        assert [spec.name for spec in extra] == ["impossible"]
        assert extra[0].slo_slowdown < 0.001
        assert events == []

    def test_churn_adds_visitor_with_departure(self):
        extra, events = scenario_schedule("churn", ["a"], 600.0, 0.02)
        (visitor,) = extra
        assert visitor.arrival_time > 0
        assert visitor.departure_time is not None
        assert any(e.kind == "tenant-resize" for e in events)
