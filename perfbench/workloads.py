"""The benchmark's four workloads.

Each workload is a frozen dataclass whose fields are its size, so tests
can run it small through arguments alone.  The harness drives every
workload through the same four calls:

* ``prepare(seed)`` generates the inputs (untimed; the program only ever
  receives what this returns);
* ``setup(inputs)`` builds what one pass needs (timed as ``setup_s``);
* ``run(state)`` executes one pass and returns a :class:`Pass`;
* ``discard(state)`` releases it.

A run prepares ``seeds_per_run`` inputs, one per seed from
:func:`harness.run_seeds`, and cycles its passes through them.

A pass times its *requests*, the unit a user waits for: the whole run
for the two batch simulations (paper-redis, fleet-noisy), one grid cell
from the sweep's start until its result lands in the store
(fig11-sweep), one decide from its due time (service-wal).  Per-epoch
times of the batch runs are not requests: their epochs fall into phases
of very different cost, and a percentile over a few dozen of them jumps
with the host's speed from second to second.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.experiments.ext_fleet import build_fleet
from repro.experiments.fig11_slowdown_sweep import SLOWDOWN_TARGETS
from repro.experiments.parallel import ResultStore, RunSpec, run_many
from repro.service.core import PlacementService, ServiceConfig
from repro.service.traffic import EVENTS_PER_DECISION, TrafficConfig, generate_lines
from repro.service.wal import LOG_NAME, scan_log
from repro.sim.engine import EpochSimulation
from repro.workloads import WORKLOAD_NAMES, make_workload

#: Where runs keep their scratch files (WAL directories, span files).
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass
class Pass:
    """What one measured pass produced."""

    #: Host seconds of the pass's back-to-back work (for service-wal, its
    #: closed-loop bursts; its open loop is paced and lasts a fixed time).
    wall: float
    #: Host seconds of each timed request.
    latencies: list[float]
    #: sha256 of the simulated statistics (service-wal: of the WAL bytes).
    digest: str
    #: Modelled outcomes: time-averaged cold fraction and mean slowdown.
    cold_fraction: float
    slowdown: float
    attempted: int
    failed: int = 0
    #: Output checks that failed.
    problems: list[str] = field(default_factory=list)
    #: Workload-specific numbers the traced run reports.
    extra: dict = field(default_factory=dict)


def _digest_result(digest, result) -> None:
    """Fold a simulation's statistics and final placement into ``digest``."""
    stats = result.stats
    for name in sorted(stats.series):
        series = stats.series[name]
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(series.times, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(series.values, dtype=np.float64).tobytes())
    for name in sorted(stats.counters):
        digest.update(f"{name}={stats.counters[name].value!r};".encode())
    digest.update(result.state.tier.tobytes())
    digest.update(result.state.split.tobytes())


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values))


@dataclass(frozen=True)
class PaperRedis:
    """Redis at paper scale under the default engine configuration."""

    name: ClassVar[str] = "paper-redis"
    scale: float = 1.0
    epochs: int = 60
    #: One pass fills a run, and its cost hardly depends on the seed.
    seeds_per_run: int = 1

    def prepare(self, seed: int) -> int:
        return seed

    def setup(self, seed: int) -> EpochSimulation:
        workload = make_workload("redis", scale=self.scale)
        # Default config apart from length and seed: whatever profile path
        # the engine uses by default is the one measured.
        config = SimulationConfig(duration=self.epochs * 30.0, seed=seed)
        return EpochSimulation(workload, ThermostatPolicy(), config)

    def run(self, sim: EpochSimulation) -> Pass:
        begin = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - begin
        digest = hashlib.sha256()
        _digest_result(digest, result)
        problems = []
        if result.stats.counter("epochs").value != self.epochs:
            problems.append(f"ran {result.stats.counter('epochs').value} of {self.epochs} epochs")
        return Pass(
            wall=wall,
            latencies=[wall],
            digest=digest.hexdigest(),
            cold_fraction=result.average_cold_fraction,
            slowdown=result.average_slowdown,
            attempted=1,
            problems=problems,
        )

    def discard(self, sim: EpochSimulation) -> None:
        pass


class _StampedStore(ResultStore):
    """A fresh in-memory store that notes when each result lands."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def put_payload(self, key, payload) -> None:
        self.stamps.append(time.perf_counter())
        super().put_payload(key, payload)


@dataclass(frozen=True)
class Fig11Sweep:
    """The Figure 11 grid through the parallel runner, every run a miss."""

    name: ClassVar[str] = "fig11-sweep"
    scale: float = 0.1
    duration: float = 1200.0
    targets: tuple[float, ...] = SLOWDOWN_TARGETS
    workloads: tuple[str, ...] = WORKLOAD_NAMES
    jobs: int = 2
    #: A pass already averages 18 runs.
    seeds_per_run: int = 1

    def prepare(self, seed: int) -> int:
        return seed

    def setup(self, seed: int) -> tuple[list[RunSpec], _StampedStore]:
        specs = [
            RunSpec(
                workload=name,
                tolerable_slowdown=target,
                scale=self.scale,
                duration=self.duration,
                seed=seed,
            )
            for name in self.workloads
            for target in self.targets
        ]
        return specs, _StampedStore()

    def run(self, state) -> Pass:
        specs, store = state
        begin = time.perf_counter()
        results = run_many(specs, jobs=self.jobs, store=store)
        wall = time.perf_counter() - begin
        digest = hashlib.sha256()
        problems = []
        if store.misses != len(specs):
            problems.append(f"{store.misses} of {len(specs)} runs missed the fresh store")
        for spec, result in zip(specs, results, strict=True):
            _digest_result(digest, result)
            if result.stats.counter("epochs").value != spec.simulation_config().num_epochs:
                problems.append(f"{spec.workload}@{spec.tolerable_slowdown}: short run")
        return Pass(
            wall=wall,
            latencies=[stamp - begin for stamp in store.stamps],
            digest=digest.hexdigest(),
            cold_fraction=_mean(r.average_cold_fraction for r in results),
            slowdown=_mean(r.average_slowdown for r in results),
            attempted=len(specs),
            problems=problems,
        )

    def discard(self, state) -> None:
        pass


@dataclass(frozen=True)
class FleetNoisy:
    """The noisy-neighbor chaos fleet: tenants in lockstep under the arbiter."""

    name: ClassVar[str] = "fleet-noisy"
    scale: float = 0.2
    tenants: int = 6
    #: A fleet's cost varies by about ±12 % from seed to seed (its
    #: arbiter's and tenants' dynamics), so a run averages three fleets.
    seeds_per_run: int = 3

    def prepare(self, seed: int) -> int:
        return seed

    def setup(self, seed: int):
        return build_fleet("noisy-neighbor", scale=self.scale, seed=seed, tenants=self.tenants)

    def run(self, fleet) -> Pass:
        begin = time.perf_counter()
        outcome = fleet.run()
        wall = time.perf_counter() - begin
        digest = hashlib.sha256(outcome.scorecard_digest.encode())
        for name in sorted(outcome.results):
            _digest_result(digest, outcome.results[name])
        scorecard = outcome.scorecard
        problems = []
        if scorecard["invariants"]["violations"]:
            problems.append("fleet invariant violations")
        slo = scorecard["slo"]
        if slo["violations_with_response"] != slo["violations_total"]:
            problems.append("an SLO violation drew no arbiter response")
        results = [outcome.results[name] for name in sorted(outcome.results)]
        return Pass(
            wall=wall,
            latencies=[wall],
            digest=digest.hexdigest(),
            cold_fraction=_mean(r.average_cold_fraction for r in results),
            slowdown=_mean(r.average_slowdown for r in results),
            attempted=1,
            problems=problems,
            extra={"arbiter_actions": scorecard["arbiter"]["decisions"]},
        )

    def discard(self, fleet) -> None:
        pass


#: service-wal alternates this many open-loop phases with as many
#: closed-loop bursts, so that both sample the whole pass rather than one
#: end of it (the host's speed drifts from second to second), and reports
#: the median burst times their count as its closed-loop wall time.
ROUNDS = 10


def _wait_until(due: float) -> float:
    """Sleep, then spin, until ``perf_counter() >= due``; returns the time."""
    while True:
        now = time.perf_counter()
        remaining = due - now
        if remaining <= 0:
            return now
        if remaining > 2e-4:
            time.sleep(remaining - 1e-4)


@dataclass(frozen=True)
class ServiceWal:
    """The placement service with fsync-before-ack on, open and closed loop."""

    name: ClassVar[str] = "service-wal"
    tenants: int = 3
    #: Per tenant.  The engine sizes its tiers once, at a tenant's first
    #: decide; 512 pages fit the 1 GB floor of that sizing (README).
    huge_pages: int = 512
    #: Open-loop decides per second (each decide follows seven accesses).
    rate: float = 200.0
    #: 5 s of open loop and about 2.5 s of closed loop, so that a 25 s run
    #: holds three passes rather than one.
    open_decides: int = 1000
    closed_decides: int = 2000
    #: Its cost hardly depends on the seed.
    seeds_per_run: int = 1

    def __post_init__(self) -> None:
        if self.open_decides % ROUNDS or self.closed_decides % ROUNDS:
            raise ValueError(f"open and closed decides must be multiples of {ROUNDS}")

    def traffic(self, seed: int) -> TrafficConfig:
        return TrafficConfig(
            seed=seed,
            tenants=self.tenants,
            huge_pages=self.huge_pages,
            decisions=self.open_decides + self.closed_decides,
            inter_arrival_seconds=1.0 / (self.rate * EVENTS_PER_DECISION),
        )

    def prepare(self, seed: int):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        return seed, list(generate_lines(self.traffic(seed)))

    def setup(self, inputs):
        seed, lines = inputs
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=SCRATCH)
        return PlacementService(ServiceConfig(seed=seed), wal_dir=wal_dir), lines

    def run(self, state) -> Pass:
        service, lines = state
        period = 1.0 / (self.rate * EVENTS_PER_DECISION)
        paced_lines = self.open_decides // ROUNDS * EVENTS_PER_DECISION
        cycle = paced_lines + self.closed_decides // ROUNDS * EVENTS_PER_DECISION
        latencies, lags, dues, bursts = [], [], [], []
        decides = responses = degraded = rejected = 0
        now = 0.0
        for index, (line, is_decide) in enumerate(lines):
            # ``now`` advances exactly as in traffic.drive(), so the service
            # sees the same virtual clock and writes the same WAL.
            now += period
            position = index % cycle
            paced = position < paced_lines
            if position == 0:
                round_begin = time.perf_counter()
            if paced:
                due = round_begin + (position + 1) * period
                lags.append(_wait_until(due) - due)
            elif position == paced_lines:
                burst_begin = time.perf_counter()
            result = service.ingest_line(line, source="traffic", now=now)
            if result.status in ("rejected", "quarantined-source"):
                rejected += 1
            for response in service.drain(now):
                responses += 1
                degraded += response.degraded
            if is_decide:
                decides += 1
                dues.append(due if paced else None)
                if paced:
                    latencies.append(time.perf_counter() - due)
            if position == cycle - 1:
                bursts.append(time.perf_counter() - burst_begin)
        service.close()
        log_path = Path(service.wal_dir) / LOG_NAME
        scan = scan_log(log_path)
        fresh = responses - degraded
        problems = []
        if scan.torn_tail:
            problems.append("torn WAL tail after a clean close")
        if [record["seq"] for record in scan.records] != list(range(1, fresh + 1)):
            problems.append(f"WAL holds {len(scan.records)} records for {fresh} acks")
        engines = [
            service.tenants[name].engine
            for name in sorted(service.tenants)
            if service.tenants[name].engine is not None
        ]
        shed = service.queue.shed_total
        return Pass(
            wall=float(np.median(bursts)) * len(bursts),
            latencies=latencies,
            digest=hashlib.sha256(log_path.read_bytes()).hexdigest(),
            cold_fraction=_mean(e.stats.timeseries("cold_fraction").mean() for e in engines),
            slowdown=_mean(e.stats.timeseries("slowdown").mean() for e in engines),
            attempted=decides,
            failed=degraded + (decides - responses) + rejected,
            problems=problems,
            extra={
                "send_lags": lags,
                "decide_dues": dues,
                "degraded": degraded,
                "shed": shed,
                "rejected": rejected,
            },
        )

    def discard(self, state) -> None:
        service, _ = state
        # A pass closes the service itself; a set-up that never ran only
        # needs its log handle released.
        if service.log is not None:
            service.log.close()
        shutil.rmtree(service.wal_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperRedis(), Fig11Sweep(), FleetNoisy(), ServiceWal())}
