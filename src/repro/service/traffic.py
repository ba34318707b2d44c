"""Deterministic synthetic traffic for the placement service.

Generates a seeded stream of wire lines (access events, snapshots,
placement requests across a priority mix), optionally mangled and
stalled by the pinned chaos mix of
:class:`~repro.faults.service.ServiceFaultInjector`, and
drives a :class:`~repro.service.core.PlacementService` through it on a
virtual clock.  Same seed, same config → byte-identical line stream and
identical responses, which is what lets the chaos soak assert exact
robustness properties and the benchmark quote decisions/sec on a pinned
workload.

The driver is also the crash-survival harness: ``drive`` can stop after
N decisions (simulating a kill) and a rerun over the same stream against
a ``--resume`` service exercises the idempotent-ack path end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.faults.service import ServiceFaultInjector
from repro.rng import child_rng, make_rng
from repro.service.core import PlacementService

#: Wire-stream shape: every ``EVENTS_PER_DECISION``-th line is a decide.
EVENTS_PER_DECISION = 8
#: Mean accesses per touched huge page per access event.
MEAN_ACCESSES = 2000
#: Fraction of each tenant's pages that are hot (heavily accessed).
HOT_FRACTION = 0.25


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of the synthetic stream."""

    seed: int = 0
    tenants: int = 2
    huge_pages: int = 16
    decisions: int = 100
    #: Virtual seconds between consecutive wire lines.
    inter_arrival_seconds: float = 0.002
    #: Mangle and stall the stream with the pinned chaos mix.
    chaos: bool = False

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigError(f"tenants must be >= 1: {self.tenants}")
        if self.huge_pages < 1:
            raise ConfigError(f"huge_pages must be >= 1: {self.huge_pages}")
        if self.decisions < 1:
            raise ConfigError(f"decisions must be >= 1: {self.decisions}")
        if self.inter_arrival_seconds <= 0:
            raise ConfigError(
                f"inter_arrival_seconds must be positive: "
                f"{self.inter_arrival_seconds}"
            )


@dataclass
class TrafficReport:
    """What one drive produced (all deterministic under a fixed seed)."""

    lines: int = 0
    corrupt_sent: int = 0
    decisions: int = 0
    fresh: int = 0
    degraded: int = 0
    degraded_by_reason: dict[str, int] = field(default_factory=dict)
    shed: int = 0
    rejected: int = 0
    breaker_trips: int = 0
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    virtual_seconds: float = 0.0
    responses: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "lines": self.lines,
            "corrupt_sent": self.corrupt_sent,
            "decisions": self.decisions,
            "fresh": self.fresh,
            "degraded": self.degraded,
            "degraded_by_reason": dict(sorted(self.degraded_by_reason.items())),
            "shed": self.shed,
            "rejected": self.rejected,
            "breaker_trips": self.breaker_trips,
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "virtual_seconds": self.virtual_seconds,
        }


def generate_lines(config: TrafficConfig):
    """Yield the seeded wire stream: ``(line, is_decide)`` tuples.

    Pure generation — fault mangling happens in :func:`drive` so the
    clean stream is reusable for replay-after-crash runs.
    """
    rng = child_rng(make_rng(config.seed), "service-traffic")
    hot_pages = max(1, int(config.huge_pages * HOT_FRACTION))
    decision_counter = 0
    line_index = 0
    while decision_counter < config.decisions:
        tenant = f"tenant-{line_index % config.tenants}"
        if (line_index + 1) % EVENTS_PER_DECISION == 0:
            decision_counter += 1
            payload = {
                "kind": "decide",
                "tenant": tenant,
                "request_id": f"req-{decision_counter:06d}",
                "priority": int(rng.integers(1, 4)),
            }
            yield json.dumps(payload, sort_keys=True), True
        else:
            page = (
                int(rng.integers(0, hot_pages))
                if rng.random() < 0.8
                else int(rng.integers(0, config.huge_pages))
            )
            count = int(rng.poisson(MEAN_ACCESSES))
            payload = {
                "kind": "access",
                "tenant": tenant,
                "page": page,
                "count": count,
                "priority": int(rng.integers(0, 3)),
            }
            yield json.dumps(payload, sort_keys=True), False
        line_index += 1


def drive(
    service: PlacementService,
    config: TrafficConfig,
    stop_after_decisions: int | None = None,
    emit=None,
) -> TrafficReport:
    """Push the seeded stream through ``service`` on a virtual clock.

    ``stop_after_decisions`` cuts the drive short (the in-process stand-in
    for a crash); ``emit`` is an optional callable receiving each
    :class:`~repro.service.events.DecisionResponse` (the CLI streams them
    to stdout).
    """
    rng = make_rng(config.seed)
    injector = (
        ServiceFaultInjector.chaos(rng) if config.chaos else ServiceFaultInjector(rng)
    )
    injector.observer = service.observer
    report = TrafficReport()
    trips_before = service.breaker.trips_total
    now = 0.0
    for line, is_decide in generate_lines(config):
        now += config.inter_arrival_seconds
        # Clock-stall fault: the observed clock freezes, so the service
        # sees the same ``now`` for a while and then a forward jump.
        now += injector.clock_stall_seconds(now)
        report.lines += 1
        sent, corrupted = injector.maybe_corrupt(line, now)
        if corrupted:
            report.corrupt_sent += 1
        result = service.ingest_line(sent, source="traffic", now=now)
        if result.status == "shed":
            pass  # counted below from the queue's own ledger
        elif result.status in ("rejected", "quarantined-source"):
            report.rejected += 1
        stall = injector.consumer_stall_seconds(now)
        for response in service.drain(now, stall_seconds=stall):
            report.decisions += 1
            report.responses.append(response)
            if emit is not None:
                emit(response)
            if response.degraded:
                report.degraded += 1
                report.degraded_by_reason[response.reason] = (
                    report.degraded_by_reason.get(response.reason, 0) + 1
                )
            else:
                report.fresh += 1
            if (
                stop_after_decisions is not None
                and report.decisions >= stop_after_decisions
            ):
                report.virtual_seconds = now
                _finalize(report, service, trips_before)
                return report
    report.virtual_seconds = now
    _finalize(report, service, trips_before)
    return report


def _finalize(
    report: TrafficReport, service: PlacementService, trips_before: int
) -> None:
    report.shed = service.queue.shed_total
    report.breaker_trips = service.breaker.trips_total - trips_before
    latencies = [r.latency_seconds for r in report.responses]
    if latencies:
        arr = np.asarray(latencies)
        report.p50_latency = float(np.percentile(arr, 50))
        report.p99_latency = float(np.percentile(arr, 99))
