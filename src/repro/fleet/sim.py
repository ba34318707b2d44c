"""The fleet simulation: N tenant engines in lockstep under one arbiter.

Each fleet epoch: open/close chaos windows, process departures and
arrivals (admission control), step every active tenant's engine one
epoch, account SLO violations, run the arbiter (budget enforcement,
rebalancing, the degradation ladder), and audit the shared-ledger
invariants.  Tenants step in name order and the arbiter's passes are
fully sorted, so the whole fleet is deterministic: one seed, one tenant
list, one chaos schedule → one bit-identical resilience scorecard.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.config import FaultConfig
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.models import MigrationFaultModel
from repro.fleet.arbiter import Arbiter
from repro.fleet.chaos import ChaosEngine, ChaosEvent
from repro.fleet.invariants import FleetInvariantAuditor
from repro.fleet.tenant import LadderLevel, Tenant, TenantSpec, quantize_down
from repro.obs import NULL_OBSERVER
from repro.rng import child_rng, make_rng
from repro.sim.engine import SimulationResult

#: Scorecard schema version (bump on incompatible layout changes).
SCORECARD_VERSION = 1


@dataclass(frozen=True)
class FleetConfig:
    """Host- and run-level knobs of a fleet simulation."""

    duration: float = 1800.0
    epoch: float = 30.0
    seed: int = 1
    #: Host DRAM budget as a fraction of the sum of tenant footprints
    #: (deliberately < 1: a fleet without DRAM pressure needs no arbiter).
    host_dram_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive: {self.duration}")
        if self.epoch <= 0 or self.epoch > self.duration:
            raise ConfigError(
                f"epoch must be in (0, duration]: {self.epoch}"
            )
        if not 0.0 < self.host_dram_fraction <= 1.0:
            raise ConfigError(
                f"host_dram_fraction must be in (0, 1]: {self.host_dram_fraction}"
            )

    @property
    def num_epochs(self) -> int:
        return int(self.duration / self.epoch + 1e-9)


@dataclass
class FleetResult:
    """Everything the resilience experiments need from one fleet run."""

    config: FleetConfig
    tenants: dict[str, Tenant]
    results: dict[str, SimulationResult]
    scorecard: dict

    @property
    def scorecard_digest(self) -> str:
        """Canonical content hash; bit-identical runs share it."""
        payload = json.dumps(
            self.scorecard, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


class FleetSimulation:
    """Drives a tenant fleet through chaos under SLO-guarded arbitration."""

    def __init__(
        self,
        tenant_specs: list[TenantSpec],
        chaos_events: list[ChaosEvent] | tuple = (),
        config: FleetConfig | None = None,
        observer=None,
    ) -> None:
        if not tenant_specs:
            raise ConfigError("a fleet needs at least one tenant")
        names = [spec.name for spec in tenant_specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"tenant names must be unique: {names}")
        self.config = config or FleetConfig()
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.tenants: dict[str, Tenant] = {
            spec.name: Tenant(spec, self.config, self.observer)
            for spec in tenant_specs
        }
        total = sum(t.footprint_bytes for t in self.tenants.values())
        host_dram = quantize_down(int(self.config.host_dram_fraction * total))
        self.arbiter = Arbiter(host_dram, self.observer)
        self.chaos = ChaosEngine(chaos_events, self.observer)
        self.auditor = FleetInvariantAuditor(self.arbiter)
        #: Per-tenant chaos fault models (migration-storm scaling);
        #: each bound to its own named child stream so storms in one
        #: tenant never shift another tenant's draws.
        self.chaos_models: dict[str, MigrationFaultModel] = {}
        self._injectors: dict[str, FaultInjector] = {}
        fleet_rng = make_rng(self.config.seed)
        for name in sorted(self.tenants):
            model = MigrationFaultModel(0.0)
            self.chaos_models[name] = model
            self._injectors[name] = FaultInjector(
                FaultConfig(),
                child_rng(fleet_rng, f"chaos:faults:{name}"),
                migration=model,
            )
        self._rejected: set[str] = set()
        self._violations_total = 0
        self._violations_with_response = 0

    # ------------------------------------------------------------------

    def run(self) -> FleetResult:
        cfg = self.config
        obs = self.observer
        tenant_list = [self.tenants[name] for name in sorted(self.tenants)]
        for epoch_index in range(cfg.num_epochs):
            now = epoch_index * cfg.epoch

            budget_changed = self.chaos.apply(now, self)

            # Departures release their grant before anyone else plans.
            for tenant in tenant_list:
                spec = tenant.spec
                if (
                    tenant.active
                    and spec.departure_time is not None
                    and spec.departure_time <= now
                ):
                    tenant.departed = True
                    tenant.finish()
                    self.arbiter.release(tenant, now, reason="departure")
                    if obs.active:
                        obs.emit(
                            "fleet", "depart", now, tenant=spec.name
                        )

            # Arrivals get exactly one admission attempt, as a cohort —
            # floors first, then the pool shared by appetite.
            arrivals = [
                t
                for t in tenant_list
                if not t.admitted
                and t.spec.name not in self._rejected
                and t.spec.arrival_time <= now
            ]
            if arrivals:
                verdicts = self.arbiter.admit_batch(arrivals, tenant_list, now)
                for tenant, admitted in zip(arrivals, verdicts, strict=True):
                    if admitted:
                        tenant.start(injector=self._injectors[tenant.spec.name])
                        self.chaos.sync_tenant(tenant, now)
                    else:
                        self._rejected.add(tenant.spec.name)

            if budget_changed:
                self.arbiter.enforce_budget(tenant_list, now)
                for tenant in tenant_list:
                    if (
                        tenant.level is LadderLevel.QUARANTINED
                        and tenant.result is None
                    ):
                        tenant.finish()

            violated: set[str] = set()
            for tenant in tenant_list:
                if not tenant.active:
                    continue
                if tenant.step(now):
                    violated.add(tenant.spec.name)
                    if obs.active:
                        obs.emit(
                            "fleet",
                            "slo_violation",
                            now,
                            tenant=tenant.spec.name,
                            slowdown=tenant.last_slowdown,
                            slo=tenant.slo_slowdown,
                            streak=tenant.violation_streak,
                        )
                        obs.inc("repro_fleet_slo_violations_total")

            responded = self.arbiter.rebalance(tenant_list, now)
            for tenant in tenant_list:
                if (
                    tenant.level is LadderLevel.QUARANTINED
                    and tenant.result is None
                ):
                    tenant.finish()
            self._violations_total += len(violated)
            self._violations_with_response += len(violated & responded)

            self.auditor.check_epoch(tenant_list, epoch_index)
            if obs.active:
                obs.set_gauge(
                    "repro_fleet_free_bytes",
                    float(self.arbiter.free_bytes(tenant_list)),
                )
                obs.set_gauge(
                    "repro_fleet_active_tenants",
                    float(sum(t.active for t in tenant_list)),
                )

        results = {
            name: tenant.finish()
            for name, tenant in self.tenants.items()
            if tenant.admitted
        }
        scorecard = self._build_scorecard(tenant_list)
        return FleetResult(
            config=cfg,
            tenants=dict(self.tenants),
            results=results,
            scorecard=scorecard,
        )

    # ------------------------------------------------------------------

    def _build_scorecard(self, tenant_list: list[Tenant]) -> dict:
        cfg = self.config
        tenants_card = {}
        for tenant in tenant_list:
            spec = tenant.spec
            avg_slowdown = (
                tenant.result.average_slowdown
                if tenant.result is not None
                else 0.0
            )
            tenants_card[spec.name] = {
                "workload": spec.workload,
                "slo_slowdown": float(spec.slo_slowdown),
                "admitted": bool(tenant.admitted),
                "rejected": spec.name in self._rejected,
                "departed": bool(tenant.departed),
                "ladder_level": tenant.level.name.lower(),
                "quarantined": tenant.level is LadderLevel.QUARANTINED,
                "active_epochs": int(tenant.active_epochs),
                "violation_epochs": int(tenant.violation_epochs),
                "violation_episodes": int(tenant.violation_episodes),
                "violation_minutes": float(
                    tenant.violation_epochs * cfg.epoch / 60.0
                ),
                "slo_attainment": float(tenant.slo_attainment),
                "arbiter_responses": sum(
                    1
                    for d in self.arbiter.decisions
                    if d["tenant"] == spec.name
                    and d["action"]
                    in ("grant", "starved", "at_cap", "ladder_quarantine")
                ),
                "final_grant_bytes": int(tenant.grant_bytes),
                "average_slowdown": float(avg_slowdown),
            }
        chaos_card = []
        for event in self.chaos.events:
            affected = (
                [event.target]
                if event.target is not None
                else sorted(self.tenants)
            )
            recovery = {
                name: self._recovery_seconds(self.tenants[name], event.end)
                for name in affected
            }
            chaos_card.append(
                {
                    "kind": event.kind,
                    "start": float(event.start),
                    "duration": float(event.duration),
                    "target": event.target,
                    "magnitude": float(event.magnitude),
                    "recovery_seconds": recovery,
                }
            )
        return {
            "version": SCORECARD_VERSION,
            "config": {
                "duration": float(cfg.duration),
                "epoch": float(cfg.epoch),
                "seed": int(cfg.seed),
                # Tenant engines always draw Poisson epoch counts.
                "stochastic": True,
                "host_dram_bytes": int(self.arbiter.base_host_dram_bytes),
                "tenants": len(self.tenants),
            },
            "tenants": tenants_card,
            "chaos": chaos_card,
            "arbiter": {
                "decisions": len(self.arbiter.decisions),
                "reallocations": int(self.arbiter.reallocations),
                "rejected_admissions": int(self.arbiter.rejected_admissions),
                "quarantines": int(self.arbiter.quarantines),
            },
            "invariants": {
                "checked_epochs": int(self.auditor.checked_epochs),
                "violations": 0,
            },
            "slo": {
                "violations_total": int(self._violations_total),
                "violations_with_response": int(
                    self._violations_with_response
                ),
            },
        }

    @staticmethod
    def _recovery_seconds(tenant: Tenant, after: float) -> float | None:
        """Seconds from ``after`` until the tenant's first clean epoch.

        ``None`` when the tenant never ran (or never recovered) after the
        window closed.
        """
        for time, violated in tenant.violation_timeline:
            if time >= after and not violated:
                return float(time - after)
        return None
