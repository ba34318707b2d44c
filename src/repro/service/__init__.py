"""Crash-safe online placement service for streamed access telemetry.

The offline experiments replay whole workloads; this package serves
Thermostat placement decisions *online*: access events and metrics
snapshots stream in (stdin JSONL or a UNIX socket), are batched per
tenant behind a bounded ingress queue, and each placement request runs
one reentrant engine epoch (``EpochSimulation.step(profile=...)``) over
the tenant's accumulated profile.

Robustness stack (see DESIGN.md "Online placement service"):

* backpressure + priority-aware load shedding
  (:mod:`repro.service.queue`);
* circuit breaker around the policy engine
  (:mod:`repro.service.breaker`);
* per-request deadlines with seeded-jitter retries and degraded
  last-known-good serving (:mod:`repro.service.core`);
* write-ahead durability of acked decisions — ``kill -9`` plus
  ``--resume`` loses nothing acked and never double-acks
  (:mod:`repro.service.wal`);
* a deterministic synthetic-traffic driver for soaks and decisions/sec
  benchmarking (:mod:`repro.service.traffic`).

Entry point: ``python -m repro.service`` (see
:mod:`repro.service.__main__`).
"""

from repro.service.breaker import CircuitBreaker
from repro.service.core import PlacementService, ServiceConfig
from repro.service.events import (
    AccessEvent,
    DecideEvent,
    DecisionResponse,
    IngressEvent,
    SnapshotEvent,
    parse_event,
)
from repro.service.queue import BoundedIngressQueue
from repro.service.traffic import TrafficConfig, TrafficReport, drive
from repro.service.wal import (
    CachedDecision,
    Checkpoint,
    DecisionLog,
    recover,
    verify_log,
)

__all__ = [
    "AccessEvent",
    "BoundedIngressQueue",
    "CachedDecision",
    "Checkpoint",
    "CircuitBreaker",
    "DecideEvent",
    "DecisionLog",
    "DecisionResponse",
    "IngressEvent",
    "PlacementService",
    "ServiceConfig",
    "SnapshotEvent",
    "TrafficConfig",
    "TrafficReport",
    "drive",
    "parse_event",
    "recover",
    "verify_log",
]
