"""Fleet arbitration under injected faults.

These tests drive the fleet through its two nastiest mid-arbitration
faults — a migration storm (transient migration failures while the
arbiter is actively moving grants) and a tier shrink (the host DRAM
budget collapsing under open grants) — and assert the two safety nets
the scorecard rests on: the starvation ladder answers every sustained
violation one rung at a time, and the shared-ledger invariant auditor
stays clean through every epoch of the disturbance.
"""

from repro.fleet import (
    ChaosEvent,
    FleetConfig,
    FleetSimulation,
    LadderLevel,
    TenantSpec,
    arbiter,
)
from repro.units import HUGE_PAGE_SIZE

SCALE = 0.01
DURATION = 300.0
EPOCH = 30.0


def make_specs(n=3):
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
    defaults = dict(duration=DURATION, epoch=EPOCH, seed=9)
    defaults.update(config_kwargs)
    sim = FleetSimulation(specs, list(events), FleetConfig(**defaults))
    return sim.run()


class TestMigrationStormMidArbitration:
    """Transient migration failures while grants are being rebalanced."""

    EVENTS = [
        ChaosEvent(
            "migration-storm", start=EPOCH * 2, duration=EPOCH * 4,
            magnitude=0.7,
        )
    ]

    def test_auditor_clean_and_every_violation_answered(self):
        # A tight budget keeps the arbiter busy for the storm to disturb.
        result = run_fleet(
            make_specs(3), self.EVENTS, host_dram_fraction=0.5
        )
        invariants = result.scorecard["invariants"]
        assert invariants["checked_epochs"] == 10
        assert invariants["violations"] == 0
        slo = result.scorecard["slo"]
        assert slo["violations_total"] > 0
        assert slo["violations_with_response"] == slo["violations_total"]

    def test_storm_is_deterministic(self):
        first = run_fleet(make_specs(2), self.EVENTS, host_dram_fraction=0.6)
        second = run_fleet(make_specs(2), self.EVENTS, host_dram_fraction=0.6)
        assert first.scorecard_digest == second.scorecard_digest

    def test_storm_recovery_leaves_models_quiet(self):
        stormy = run_fleet(make_specs(2), self.EVENTS, host_dram_fraction=1.0)
        for card in stormy.scorecard["chaos"]:
            assert card["kind"] == "migration-storm"
        # After the window every chaos model is back at rate 0 — a run
        # whose storm window closed matches a run that never had one
        # *after* the window (same final grants, conserved ledger).
        granted = sum(
            c["final_grant_bytes"]
            for c in stormy.scorecard["tenants"].values()
        )
        assert granted <= stormy.scorecard["config"]["host_dram_bytes"]


class TestTierShrinkMidArbitration:
    """The host DRAM tier shrinks while grants and violations are live."""

    EVENTS = [
        ChaosEvent(
            "dram-shrink", start=EPOCH * 3, duration=EPOCH * 3,
            magnitude=0.5,
        )
    ]

    def test_shrink_forces_reclaim_and_ledger_survives(self):
        result = run_fleet(make_specs(3), self.EVENTS, host_dram_fraction=0.9)
        invariants = result.scorecard["invariants"]
        assert invariants["checked_epochs"] == 10
        assert invariants["violations"] == 0
        # The shrink reclaimed/regranted someone's DRAM mid-flight.
        assert result.scorecard["arbiter"]["reallocations"] > 0
        # Budget restored after the window: final grants are quantized
        # and fit the *hardware* budget again.
        for card in result.scorecard["tenants"].values():
            assert card["final_grant_bytes"] % HUGE_PAGE_SIZE == 0

    def test_combined_storm_and_shrink_walks_the_ladder(self, monkeypatch):
        """The compound fault (storm + shrink overlapping) must degrade
        tenants via the ladder, never corrupt the ledger."""
        events = [
            ChaosEvent(
                "migration-storm", start=EPOCH * 2, duration=EPOCH * 5,
                magnitude=0.8,
            ),
            ChaosEvent(
                "dram-shrink", start=EPOCH * 3, duration=EPOCH * 4,
                magnitude=0.6,
            ),
        ]
        monkeypatch.setattr(arbiter, "THROTTLE_AFTER", 1)
        monkeypatch.setattr(arbiter, "SHRINK_AFTER", 1)
        monkeypatch.setattr(arbiter, "QUARANTINE_AFTER", 2)
        result = run_fleet(make_specs(3), events, host_dram_fraction=0.6)
        invariants = result.scorecard["invariants"]
        assert invariants["checked_epochs"] == 10
        assert invariants["violations"] == 0
        assert result.scorecard["slo"]["violations_with_response"] == (
            result.scorecard["slo"]["violations_total"]
        )
        # Under this much pressure the ladder must actually move: at
        # least one tenant left HEALTHY, and any quarantined tenant's
        # grant went back to the ledger.
        levels = {
            name: card["ladder_level"]
            for name, card in result.scorecard["tenants"].items()
        }
        assert any(level != "healthy" for level in levels.values()), levels
        for name, tenant in result.tenants.items():
            if tenant.level is LadderLevel.QUARANTINED:
                assert tenant.grant_bytes == 0

    def test_compound_fault_is_deterministic(self):
        events = [
            ChaosEvent(
                "migration-storm", start=EPOCH * 2, duration=EPOCH * 5,
                magnitude=0.8,
            ),
            ChaosEvent(
                "dram-shrink", start=EPOCH * 3, duration=EPOCH * 4,
                magnitude=0.6,
            ),
        ]

        def run():
            return run_fleet(
                make_specs(2), events, host_dram_fraction=0.6
            ).scorecard_digest

        assert run() == run()
