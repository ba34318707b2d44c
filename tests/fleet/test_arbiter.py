"""Tests for the SLO-guarded DRAM arbiter (ledger math + ladder)."""

import pytest

from repro.errors import ConfigError
from repro.fleet import arbiter as arbiter_module
from repro.fleet.arbiter import Arbiter
from repro.fleet.sim import FleetConfig
from repro.fleet.tenant import LadderLevel, Tenant, TenantSpec
from repro.units import HUGE_PAGE_SIZE, MB


def make_tenant(name="a", scale=0.01, **spec_kwargs) -> Tenant:
    spec = TenantSpec(name=name, workload="web-search", scale=scale, **spec_kwargs)
    return Tenant(spec, FleetConfig(duration=300.0, epoch=30.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Arbiter(host_dram_bytes=0)


class TestAdmission:
    def test_admit_when_floor_fits(self):
        tenant = make_tenant()
        arbiter = Arbiter(tenant.footprint_bytes)
        assert arbiter.admit(tenant, [tenant], 0.0)
        assert tenant.admitted
        assert tenant.grant_bytes >= tenant.floor_bytes
        assert tenant.grant_bytes % HUGE_PAGE_SIZE == 0
        assert tenant.policy.dram_budget_bytes == tenant.grant_bytes

    def test_reject_when_floor_does_not_fit(self):
        tenant = make_tenant()
        arbiter = Arbiter(max(HUGE_PAGE_SIZE, tenant.floor_bytes - HUGE_PAGE_SIZE))
        assert not arbiter.admit(tenant, [tenant], 0.0)
        assert not tenant.admitted
        assert tenant.grant_bytes == 0
        assert arbiter.rejected_admissions == 1
        assert arbiter.decisions[-1]["action"] == "admission_rejected"

    def test_batch_shares_pool_instead_of_first_takes_all(self):
        a = make_tenant("a")
        b = make_tenant("b")
        # Enough for both floors plus some extra, far less than 2 footprints.
        host = a.floor_bytes + b.floor_bytes + 4 * HUGE_PAGE_SIZE
        arbiter = Arbiter(host)
        verdicts = arbiter.admit_batch([a, b], [a, b], 0.0)
        assert verdicts == [True, True]
        assert a.grant_bytes >= a.floor_bytes
        assert b.grant_bytes >= b.floor_bytes
        assert a.grant_bytes + b.grant_bytes <= host


class TestRebalance:
    def test_violating_tenant_gets_grant_from_free_pool(self):
        tenant = make_tenant()
        arbiter = Arbiter(tenant.footprint_bytes + 64 * MB)
        arbiter.admit(tenant, [tenant], 0.0)
        before = tenant.grant_bytes
        # Pretend the grant is partial and the tenant is violating.
        arbiter._set_grant(tenant, tenant.floor_bytes)
        tenant.violation_streak = 1
        responded = arbiter.rebalance([tenant], 30.0)
        assert responded == {"a"}
        assert tenant.grant_bytes > tenant.floor_bytes
        assert tenant.grant_bytes <= max(before, tenant.footprint_bytes)
        assert any(d["action"] == "grant" for d in arbiter.decisions)

    def test_donor_reclaim_respects_floor(self):
        needy = make_tenant("needy")
        donor = make_tenant("donor")
        host = needy.footprint_bytes + donor.footprint_bytes
        arbiter = Arbiter(host)
        arbiter.admit_batch([needy, donor], [needy, donor], 0.0)
        # Drain the free pool so the only source is the donor.
        sink = make_tenant("sink")
        arbiter.admit(sink, [needy, donor, sink], 0.0)
        free = arbiter.free_bytes([needy, donor, sink])
        if free > 0:
            arbiter._set_grant(sink, sink.grant_bytes + free)
        needy.violation_streak = 1
        arbiter._set_grant(needy, needy.floor_bytes)
        arbiter._set_grant(donor, donor.grant_bytes + needy.grant_bytes)
        donor_before = donor.grant_bytes
        arbiter.rebalance([needy, donor, sink], 30.0)
        assert donor.grant_bytes >= donor.floor_bytes
        assert donor.grant_bytes <= donor_before
        total = needy.grant_bytes + donor.grant_bytes + sink.grant_bytes
        assert total <= arbiter.host_dram_bytes

    def test_starved_tenant_walks_the_ladder_to_quarantine(self, monkeypatch):
        for rung in ("THROTTLE_AFTER", "SHRINK_AFTER", "QUARANTINE_AFTER"):
            monkeypatch.setattr(arbiter_module, rung, 2)
        tenant = make_tenant()
        arbiter = Arbiter(tenant.footprint_bytes)
        arbiter.admit(tenant, [tenant], 0.0)
        # Footprint fully granted, so the arbiter can never help: at_cap
        # decisions accumulate starvation and escalate rung by rung.
        arbiter._set_grant(tenant, tenant.footprint_bytes)
        levels = []
        for step in range(7):
            tenant.violation_streak = 1 + step
            arbiter.rebalance([tenant], 30.0 * step)
            levels.append(tenant.level)
        assert LadderLevel.THROTTLED in levels
        assert LadderLevel.SHRUNK in levels
        assert tenant.level is LadderLevel.QUARANTINED
        assert tenant.grant_bytes == 0
        assert tenant.throttle_factor == arbiter_module.THROTTLE_FACTOR
        assert arbiter.quarantines == 1
        # Quarantined tenants drop out of later passes entirely.
        assert arbiter.rebalance([tenant], 999.0) == set()

    def test_clean_streak_deescalates(self):
        tenant = make_tenant()
        arbiter = Arbiter(tenant.footprint_bytes)
        arbiter.admit(tenant, [tenant], 0.0)
        tenant.level = LadderLevel.THROTTLED
        tenant.throttle_factor = arbiter_module.THROTTLE_FACTOR
        tenant.clean_streak = arbiter_module.RECOVER_EPOCHS
        arbiter.rebalance([tenant], 30.0)
        assert tenant.level is LadderLevel.HEALTHY
        assert tenant.throttle_factor == 1.0


class TestEnforceBudget:
    def test_shrink_reclaims_above_floor_first(self):
        a = make_tenant("a")
        b = make_tenant("b")
        host = a.footprint_bytes + b.footprint_bytes
        arbiter = Arbiter(host)
        arbiter.admit_batch([a, b], [a, b], 0.0)
        arbiter._set_grant(a, a.footprint_bytes)
        arbiter._set_grant(b, b.footprint_bytes)
        arbiter.host_dram_bytes = a.floor_bytes + b.floor_bytes
        arbiter.enforce_budget([a, b], 60.0)
        assert a.grant_bytes >= a.floor_bytes
        assert b.grant_bytes >= b.floor_bytes
        assert a.grant_bytes + b.grant_bytes <= arbiter.host_dram_bytes
        assert a.level is not LadderLevel.QUARANTINED
        assert b.level is not LadderLevel.QUARANTINED

    def test_shrink_below_floors_quarantines_lightest(self):
        heavy = make_tenant("heavy", weight=2.0)
        light = make_tenant("light", weight=0.5)
        host = heavy.footprint_bytes + light.footprint_bytes
        arbiter = Arbiter(host)
        arbiter.admit_batch([heavy, light], [heavy, light], 0.0)
        arbiter.host_dram_bytes = heavy.floor_bytes
        arbiter.enforce_budget([heavy, light], 60.0)
        assert light.level is LadderLevel.QUARANTINED
        assert light.grant_bytes == 0
        assert heavy.level is not LadderLevel.QUARANTINED
        granted = heavy.grant_bytes + light.grant_bytes
        assert granted <= arbiter.host_dram_bytes
