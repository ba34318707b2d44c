"""SLO-guarded arbitration of the host's shared DRAM budget.

The arbiter owns the fleet's fast-memory ledger: every admitted tenant
holds a huge-page-quantized *grant*, the sum of grants never exceeds the
host budget, and no admitted tenant sits below its guaranteed floor.
Enforcement is by directive, not force: a grant change becomes
``ThermostatPolicy.set_dram_budget`` on the tenant's policy, and the
policy's budget-forced demotions drain the excess within its migration
rate limit over the next epochs.

Every decision — admission, rejection, grant change, starvation, ladder
move — is appended to :attr:`Arbiter.decisions` and emitted as a
``fleet``-category trace event, so the resilience scorecard can prove
that each SLO violation was met with a response.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.fleet.tenant import LadderLevel, Tenant, quantize_down, quantize_up
from repro.obs import NULL_OBSERVER


#: Consecutive violating epochs before the arbiter responds.
VIOLATE_EPOCHS = 1
#: Consecutive clean epochs before de-escalating one ladder rung.
RECOVER_EPOCHS = 3
#: Grant increment offered to a violating tenant, as a fraction of its
#: footprint (huge-page quantized).
GRANT_STEP_FRACTION = 0.25
#: Offered-load multiplier applied at the THROTTLED rung.
THROTTLE_FACTOR = 0.5
#: Starved passes (violating, but no bytes to give) before each rung.
#: Thresholds are cumulative: throttle at ``THROTTLE_AFTER``, shrink at
#: ``THROTTLE_AFTER + SHRINK_AFTER``, quarantine after all three.
THROTTLE_AFTER = 4
SHRINK_AFTER = 4
QUARANTINE_AFTER = 4
#: Headroom kept above a donor's current usage when reclaiming from it.
HEADROOM_FRACTION = 0.10


class Arbiter:
    """Redistributes the host DRAM budget between tenants each epoch."""

    def __init__(self, host_dram_bytes: int, observer=None) -> None:
        if host_dram_bytes <= 0:
            raise ConfigError(
                f"host DRAM budget must be positive: {host_dram_bytes}"
            )
        #: The hardware's budget; chaos shrinks :attr:`host_dram_bytes`
        #: below it and restores it afterwards.
        self.base_host_dram_bytes = quantize_down(host_dram_bytes)
        self.host_dram_bytes = self.base_host_dram_bytes
        self.observer = observer if observer is not None else NULL_OBSERVER
        #: Chronological decision log (dicts; JSON-able).
        self.decisions: list[dict] = []
        self.rejected_admissions = 0
        self.reallocations = 0
        self.quarantines = 0

    # ------------------------------------------------------------------
    # Ledger arithmetic
    # ------------------------------------------------------------------

    def granted_bytes(self, tenants: list[Tenant]) -> int:
        return sum(t.grant_bytes for t in tenants)

    def free_bytes(self, tenants: list[Tenant]) -> int:
        return self.host_dram_bytes - self.granted_bytes(tenants)

    def _decide(
        self, action: str, tenant: str | None, now: float, **details
    ) -> dict:
        decision = {"time": now, "action": action, "tenant": tenant, **details}
        self.decisions.append(decision)
        obs = self.observer
        if obs.active:
            obs.emit("fleet", action, now, tenant=tenant, **details)
            obs.inc("repro_fleet_decisions_total")
            obs.inc(f"repro_fleet_{action}_total")
        return decision

    def _set_grant(self, tenant: Tenant, nbytes: int) -> None:
        tenant.grant_bytes = int(nbytes)
        tenant.policy.set_dram_budget(int(nbytes))

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def admit(self, tenant: Tenant, tenants: list[Tenant], now: float) -> bool:
        """Admit one arriving tenant (see :meth:`admit_batch`)."""
        return self.admit_batch([tenant], tenants, now) == [True]

    def admit_batch(
        self, arrivals: list[Tenant], tenants: list[Tenant], now: float
    ) -> list[bool]:
        """Admit a cohort of arriving tenants against the free pool.

        Floors are reserved first, in name order — a tenant whose floor
        does not fit is rejected.  The pool left after every floor is
        covered is then shared among the admitted cohort in proportion to
        their remaining appetite (footprint minus floor), so simultaneous
        arrivals cannot starve each other the way strict first-come
        whole-footprint grants would.  Returns one verdict per arrival,
        in the order given.
        """
        free = self.free_bytes(tenants)
        accepted: list[Tenant] = []
        verdicts: dict[str, bool] = {}
        for tenant in sorted(arrivals, key=lambda t: t.spec.name):
            floor = tenant.floor_bytes
            if floor > free:
                self.rejected_admissions += 1
                verdicts[tenant.spec.name] = False
                self._decide(
                    "admission_rejected",
                    tenant.spec.name,
                    now,
                    floor_bytes=floor,
                    free_bytes=free,
                )
                continue
            free -= floor
            verdicts[tenant.spec.name] = True
            accepted.append(tenant)
        appetite = {
            t.spec.name: t.footprint_bytes - t.floor_bytes for t in accepted
        }
        total_appetite = sum(appetite.values())
        for tenant in accepted:
            extra = 0
            if total_appetite > 0:
                share = free * appetite[tenant.spec.name] / total_appetite
                extra = min(appetite[tenant.spec.name], quantize_down(int(share)))
            grant = tenant.floor_bytes + extra
            tenant.admitted = True
            self._set_grant(tenant, grant)
            self._decide(
                "admit",
                tenant.spec.name,
                now,
                grant_bytes=grant,
                floor_bytes=tenant.floor_bytes,
                free_bytes=self.free_bytes(tenants),
            )
        return [verdicts[t.spec.name] for t in arrivals]

    def release(self, tenant: Tenant, now: float, reason: str) -> None:
        """Return a tenant's whole grant to the pool (departure/quarantine)."""
        released = tenant.grant_bytes
        tenant.grant_bytes = 0
        tenant.policy.set_dram_budget(None)
        self._decide(
            "release",
            tenant.spec.name,
            now,
            released_bytes=released,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Budget enforcement (chaos shrink)
    # ------------------------------------------------------------------

    def enforce_budget(self, tenants: list[Tenant], now: float) -> None:
        """Shrink grants until they fit a reduced host budget.

        Reclaims above-floor grants first (largest excess first, then name
        for determinism); if the sum of floors itself exceeds the budget,
        quarantines tenants by ascending weight until the rest fit.
        """
        active = [t for t in tenants if t.active]
        over = self.granted_bytes(active) - self.host_dram_bytes
        if over <= 0:
            return
        by_excess = sorted(
            active,
            key=lambda t: (-(t.grant_bytes - t.floor_bytes), t.spec.name),
        )
        for tenant in by_excess:
            if over <= 0:
                break
            spare = tenant.grant_bytes - tenant.floor_bytes
            if spare <= 0:
                continue
            take = min(spare, quantize_up(over))
            self._set_grant(tenant, tenant.grant_bytes - take)
            over -= take
            self.reallocations += 1
            self._decide(
                "reclaim",
                tenant.spec.name,
                now,
                reclaimed_bytes=take,
                grant_bytes=tenant.grant_bytes,
                reason="host_budget_shrink",
            )
        # Floors alone exceed the shrunk host: shed tenants, lightest first.
        by_weight = sorted(
            active, key=lambda t: (t.spec.weight, t.spec.name)
        )
        while over > 0 and by_weight:
            victim = by_weight.pop(0)
            if victim.level is LadderLevel.QUARANTINED:
                continue
            over -= victim.grant_bytes
            self._quarantine(victim, now, reason="host_budget_shrink")

    # ------------------------------------------------------------------
    # Rebalancing + degradation ladder
    # ------------------------------------------------------------------

    def rebalance(self, tenants: list[Tenant], now: float) -> set[str]:
        """One arbiter pass; returns the names of tenants responded to.

        Every tenant whose violation streak has reached ``VIOLATE_EPOCHS``
        receives exactly one recorded decision this pass (grant, at-cap,
        starved, or a ladder move) — the scorecard's guarantee that no SLO
        violation goes unanswered.
        """
        responded: set[str] = set()
        active = [t for t in tenants if t.active]
        for tenant in sorted(active, key=lambda t: t.spec.name):
            if tenant.violation_streak >= VIOLATE_EPOCHS:
                responded.add(tenant.spec.name)
                self._respond(tenant, active, now)
            elif tenant.clean_streak >= RECOVER_EPOCHS:
                self._deescalate(tenant, now)
        return responded

    def _respond(self, tenant: Tenant, active: list[Tenant], now: float) -> None:
        # A shrunk tenant stays confined to its floor until it de-escalates;
        # re-granting the memory the shrink just freed would reset the ladder.
        cap = (
            tenant.floor_bytes
            if tenant.level >= LadderLevel.SHRUNK
            else tenant.footprint_bytes
        )
        room = cap - tenant.grant_bytes
        if room <= 0:
            # Granted up to its cap and still violating: more DRAM cannot
            # help (or is forbidden by the ladder) — keep walking it.
            tenant.starved_streak += 1
            self._decide(
                "at_cap",
                tenant.spec.name,
                now,
                grant_bytes=tenant.grant_bytes,
                slowdown=tenant.last_slowdown,
                slo=tenant.slo_slowdown,
            )
            self._escalate(tenant, now)
            return
        want = min(
            quantize_up(GRANT_STEP_FRACTION * tenant.footprint_bytes), room
        )
        got = min(want, max(0, quantize_down(self.free_bytes(active))))
        if got < want:
            got += self._reclaim_from_donors(tenant, active, want - got, now)
        got = quantize_down(got)
        if got > 0:
            self._set_grant(tenant, tenant.grant_bytes + got)
            self.reallocations += 1
            tenant.starved_streak = 0
            self._decide(
                "grant",
                tenant.spec.name,
                now,
                granted_bytes=got,
                grant_bytes=tenant.grant_bytes,
                slowdown=tenant.last_slowdown,
                slo=tenant.slo_slowdown,
            )
        else:
            tenant.starved_streak += 1
            self._decide(
                "starved",
                tenant.spec.name,
                now,
                grant_bytes=tenant.grant_bytes,
                slowdown=tenant.last_slowdown,
                slo=tenant.slo_slowdown,
            )
            self._escalate(tenant, now)

    def _reclaim_from_donors(
        self, needy: Tenant, active: list[Tenant], want: int, now: float
    ) -> int:
        """Take spare grant from non-violating tenants, largest spare first."""
        spares: list[tuple[int, Tenant]] = []
        for t in active:
            if t is needy or t.violation_streak >= VIOLATE_EPOCHS:
                continue
            keep = max(
                t.floor_bytes,
                quantize_up(t.fast_usage_bytes * (1.0 + HEADROOM_FRACTION)),
            )
            spare = t.grant_bytes - keep
            if spare > 0:
                spares.append((spare, t))
        spares.sort(key=lambda pair: (-pair[0], pair[1].spec.name))
        got = 0
        for spare, donor in spares:
            if got >= want:
                break
            take = min(spare, want - got)
            self._set_grant(donor, donor.grant_bytes - take)
            got += take
            self._decide(
                "reclaim",
                donor.spec.name,
                now,
                reclaimed_bytes=take,
                grant_bytes=donor.grant_bytes,
                reason=f"rebalance_to:{needy.spec.name}",
            )
        return got

    # -- ladder ----------------------------------------------------------

    def _escalate(self, tenant: Tenant, now: float) -> None:
        streak = tenant.starved_streak
        if tenant.level is LadderLevel.HEALTHY and streak >= THROTTLE_AFTER:
            tenant.level = LadderLevel.THROTTLED
            tenant.throttle_factor = THROTTLE_FACTOR
            self._decide(
                "ladder_throttle",
                tenant.spec.name,
                now,
                throttle_factor=THROTTLE_FACTOR,
                starved_streak=streak,
            )
        elif (
            tenant.level is LadderLevel.THROTTLED
            and streak >= THROTTLE_AFTER + SHRINK_AFTER
        ):
            tenant.level = LadderLevel.SHRUNK
            released = tenant.grant_bytes - tenant.floor_bytes
            self._set_grant(tenant, tenant.floor_bytes)
            self._decide(
                "ladder_shrink",
                tenant.spec.name,
                now,
                released_bytes=max(0, released),
                grant_bytes=tenant.grant_bytes,
                starved_streak=streak,
            )
        elif (
            tenant.level is LadderLevel.SHRUNK
            and streak >= THROTTLE_AFTER + SHRINK_AFTER + QUARANTINE_AFTER
        ):
            self._quarantine(tenant, now, reason="unrecoverable_slo")

    def _quarantine(self, tenant: Tenant, now: float, reason: str) -> None:
        tenant.level = LadderLevel.QUARANTINED
        self.quarantines += 1
        self.release(tenant, now, reason=f"quarantine:{reason}")
        self._decide(
            "ladder_quarantine",
            tenant.spec.name,
            now,
            reason=reason,
            starved_streak=tenant.starved_streak,
        )

    def _deescalate(self, tenant: Tenant, now: float) -> None:
        if tenant.level is LadderLevel.SHRUNK:
            tenant.level = LadderLevel.THROTTLED
        elif tenant.level is LadderLevel.THROTTLED:
            tenant.level = LadderLevel.HEALTHY
            tenant.throttle_factor = 1.0
        else:
            return
        tenant.starved_streak = 0
        tenant.clean_streak = 0
        self._decide(
            "ladder_recover",
            tenant.spec.name,
            now,
            level=tenant.level.name.lower(),
        )
