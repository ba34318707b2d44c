"""End-to-end fleet simulation behavior (small fleets, short runs)."""

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    FleetConfig,
    FleetSimulation,
    LadderLevel,
    TenantSpec,
    arbiter,
    scenario_schedule,
)
from repro.units import HUGE_PAGE_SIZE

SCALE = 0.01
DURATION = 300.0


def make_specs(n=2):
    workloads = ("web-search", "redis", "cassandra", "mysql-tpcc")
    return [
        TenantSpec(
            name=f"t{i}",
            workload=workloads[i % len(workloads)],
            scale=SCALE,
            seed=20 + i,
        )
        for i in range(n)
    ]


def run_fleet(specs, events=(), **config_kwargs):
    defaults = dict(duration=DURATION, epoch=30.0, seed=9)
    defaults.update(config_kwargs)
    sim = FleetSimulation(specs, list(events), FleetConfig(**defaults))
    return sim.run()


class TestConstruction:
    def test_duplicate_names_rejected(self):
        spec = make_specs(1)[0]
        with pytest.raises(ConfigError, match="unique"):
            FleetSimulation([spec, spec])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError):
            FleetSimulation([])

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            TenantSpec(name="x", workload="nope")
        with pytest.raises(ConfigError, match="slo_slowdown"):
            TenantSpec(name="x", workload="redis", slo_slowdown=2.0)
        with pytest.raises(ConfigError, match="departure_time"):
            TenantSpec(
                name="x", workload="redis", arrival_time=10.0, departure_time=5.0
            )


class TestRun:
    def test_invariants_hold_and_scorecard_is_complete(self):
        result = run_fleet(make_specs(2))
        scorecard = result.scorecard
        assert scorecard["invariants"]["violations"] == 0
        assert scorecard["invariants"]["checked_epochs"] == 10
        assert set(scorecard["tenants"]) == {"t0", "t1"}
        for card in scorecard["tenants"].values():
            assert card["final_grant_bytes"] % HUGE_PAGE_SIZE == 0
            assert 0.0 <= card["slo_attainment"] <= 1.0
        granted = sum(
            c["final_grant_bytes"] for c in scorecard["tenants"].values()
        )
        assert granted <= scorecard["config"]["host_dram_bytes"]

    def test_every_violation_draws_a_response(self):
        # A tight host budget forces sustained violations.
        result = run_fleet(make_specs(3), host_dram_fraction=0.4)
        slo = result.scorecard["slo"]
        assert slo["violations_total"] > 0
        assert slo["violations_with_response"] == slo["violations_total"]

    def test_adversarial_tenant_is_quarantined_not_crashed(self, monkeypatch):
        specs = make_specs(2)
        extra, events = scenario_schedule(
            "adversarial", [s.name for s in specs], DURATION, SCALE
        )
        # A fast ladder so the 10-epoch run can reach quarantine.
        for rung in ("THROTTLE_AFTER", "SHRINK_AFTER", "QUARANTINE_AFTER"):
            monkeypatch.setattr(arbiter, rung, 1)
        result = run_fleet(specs + list(extra), events)
        card = result.scorecard["tenants"]["impossible"]
        assert card["quarantined"]
        assert card["ladder_level"] == "quarantined"
        assert card["final_grant_bytes"] == 0
        assert result.scorecard["arbiter"]["quarantines"] >= 1
        # The impossible tenant still produced a finished result.
        assert "impossible" in result.results

    def test_noisy_neighbor_raises_target_slowdown(self):
        specs = make_specs(1)
        quiet = run_fleet(specs, host_dram_fraction=1.0)
        noisy = run_fleet(
            specs,
            [
                event
                for event in scenario_schedule(
                    "noisy-neighbor", ["t0"], DURATION, SCALE
                )[1]
            ],
            host_dram_fraction=1.0,
        )
        assert (
            noisy.results["t0"].average_slowdown
            > quiet.results["t0"].average_slowdown
        )

    def test_churn_visitor_departs_and_releases_grant(self):
        specs = make_specs(2)
        extra, events = scenario_schedule(
            "churn", [s.name for s in specs], DURATION, SCALE
        )
        result = run_fleet(specs + list(extra), events)
        visitor = result.tenants["churn-visitor"]
        card = result.scorecard["tenants"]["churn-visitor"]
        if card["admitted"]:
            assert visitor.departed
            assert visitor.grant_bytes == 0
            assert card["active_epochs"] < 10
        else:
            assert card["rejected"]

    def test_dram_shrink_keeps_ledger_conserved(self):
        specs = make_specs(2)
        _, events = scenario_schedule(
            "dram-shrink", [s.name for s in specs], DURATION, SCALE
        )
        result = run_fleet(specs, events)
        # The auditor ran every epoch (it raises on any ledger breach,
        # including during the shrink window).
        assert result.scorecard["invariants"]["checked_epochs"] == 10
        assert result.scorecard["invariants"]["violations"] == 0

    def test_quarantined_tenants_stop_stepping(self):
        specs = make_specs(2)
        extra, _ = scenario_schedule(
            "adversarial", [s.name for s in specs], DURATION, SCALE
        )
        result = run_fleet(specs + list(extra), [])
        impossible = result.tenants["impossible"]
        if impossible.level is LadderLevel.QUARANTINED:
            assert impossible.active_epochs < 10
