"""Multi-tenant fleet simulation with SLO-guarded DRAM arbitration.

A *fleet* is N tenants — each a full workload + Thermostat instance with
its own epoch engine — sharing one host's DRAM.  A host-level arbiter
redistributes the fast-memory budget between tenants under per-tenant
slowdown SLOs, admits or rejects arriving tenants, and walks an
unrecoverable tenant down a throttle → shrink → quarantine ladder instead
of letting it starve the rest.  A seeded chaos engine composes the
:mod:`repro.faults` models into timed interference scenarios (noisy
neighbors, DRAM shrink, migration storms, latency spikes, churn).

Everything is deterministic: the same tenant specs, chaos schedule, and
seed replay bit-identically, and the fleet-level invariant auditor
(:mod:`repro.fleet.invariants`) checks conservation of the shared DRAM
ledger every epoch.
"""

from repro.fleet.arbiter import Arbiter
from repro.fleet.chaos import SCENARIOS, ChaosEngine, ChaosEvent, scenario_schedule
from repro.fleet.invariants import FleetInvariantAuditor
from repro.fleet.sim import FleetConfig, FleetResult, FleetSimulation
from repro.fleet.tenant import LadderLevel, Tenant, TenantSpec

__all__ = [
    "Arbiter",
    "ChaosEngine",
    "ChaosEvent",
    "FleetConfig",
    "FleetInvariantAuditor",
    "FleetResult",
    "FleetSimulation",
    "LadderLevel",
    "SCENARIOS",
    "Tenant",
    "TenantSpec",
    "scenario_schedule",
]
