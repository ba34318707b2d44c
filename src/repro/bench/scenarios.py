"""The pinned benchmark scenarios behind the ``BENCH_*.json`` trajectory.

Each scenario runs one deterministic simulation and reports two metric
families:

* **semantic** — seed-pinned simulation outputs (slowdowns, cold
  fractions, migration counters).  These must be bit-stable across
  commits, so the compare gate holds them to a near-exact relative
  tolerance; any drift means a behavior change that belongs in the PR
  description, not in the noise.
* **perf** — wall-clock seconds of the fastest of
  :data:`TIMING_REPEATS` runs, reported raw (informational) and
  normalized by :func:`calibration_seconds`, a fixed numpy kernel timed
  on the same host.  The normalized ratio is what the gate checks, so a
  slower CI machine does not read as a regression.  The repeats must
  agree on every semantic metric, or the run fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.errors import SimulationError
from repro.fleet.sim import FleetConfig, FleetSimulation
from repro.fleet.tenant import TenantSpec
from repro.sim.engine import run_simulation
from repro.workloads.registry import make_workload

#: Runs per scenario; its perf metrics come from the fastest, the same
#: noise filter :func:`calibration_seconds` applies to the host unit.
TIMING_REPEATS = 3


def calibration_seconds(repeats: int = 3) -> float:
    """Time a fixed numpy kernel; the host-speed unit for perf metrics.

    The kernel mirrors the simulation's dominant primitives (argsort and
    Poisson draws over a few-million-element array) so the normalization
    tracks the hardware the benchmarks actually stress.  Returns the
    fastest of ``repeats`` runs to shed scheduler noise.
    """
    best = float("inf")
    for _ in range(repeats):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        data = rng.random(2_000_000)
        order = np.argsort(data)
        draws = rng.poisson(data * 10.0)
        sink = float(draws[order[:1000]].sum())
        elapsed = time.perf_counter() - start
        assert sink >= 0.0
        best = min(best, elapsed)
    return best


@dataclass(frozen=True)
class Scenario:
    """One pinned benchmark: a name, a story, and a runner."""

    name: str
    description: str
    #: Returns the scenario's semantic metrics (flat name -> float).
    run: Callable[[], dict[str, float]]


def _engine_metrics(result) -> dict[str, float]:
    counters = result.stats.snapshot()
    return {
        "average_slowdown": result.average_slowdown,
        "final_cold_fraction": result.final_cold_fraction,
        "average_cold_fraction": result.average_cold_fraction,
        "migration_rate_mbps": result.migration_rate_mbps(),
        "correction_rate_mbps": result.correction_rate_mbps(),
        "total_slow_accesses": counters.get("total_slow_accesses", 0.0),
        "epochs": counters.get("epochs", 0.0),
    }


def _run_redis(scale: float, duration: float) -> dict[str, float]:
    workload = make_workload("redis", scale=scale)
    config = SimulationConfig(duration=duration, epoch=30.0, seed=1)
    return _engine_metrics(run_simulation(workload, ThermostatPolicy(), config))


def _run_engine_small() -> dict[str, float]:
    return _run_redis(scale=0.02, duration=300.0)


def _run_paper_scale() -> dict[str, float]:
    return _run_redis(scale=1.0, duration=150.0)


def _run_fleet_small() -> dict[str, float]:
    specs = [
        TenantSpec(name=f"t{i}", workload=w, scale=0.01, seed=11 + i)
        for i, w in enumerate(["redis", "web-search", "mysql-tpcc"])
    ]
    fleet = FleetSimulation(
        specs, config=FleetConfig(duration=300.0, epoch=30.0, seed=7)
    )
    outcome = fleet.run()
    slowdowns = [r.average_slowdown for r in outcome.results.values()]
    # The digest pins the whole scorecard bit-for-bit in one number; the
    # scalar metrics make a drift's direction readable in the diff.
    digest_prefix = int(outcome.scorecard_digest[:12], 16)
    return {
        "mean_tenant_slowdown": float(np.mean(slowdowns)),
        "max_tenant_slowdown": float(np.max(slowdowns)),
        "scorecard_digest_prefix": float(digest_prefix),
    }


def _run_service_decisions() -> dict[str, float]:
    from repro.service.core import PlacementService, ServiceConfig
    from repro.service.traffic import TrafficConfig, drive

    service = PlacementService(config=ServiceConfig(seed=3))
    report = drive(
        service, TrafficConfig(seed=3, tenants=3, decisions=400)
    )
    service.close()
    # decisions/sec is wall-clock and lands in the perf family via the
    # scenario timer; the semantic metrics pin the decision *contents*.
    return {
        "decisions": float(report.decisions),
        "fresh": float(report.fresh),
        "degraded": float(report.degraded),
        "shed": float(report.shed),
        "p99_latency": float(report.p99_latency),
    }


#: The pinned suite, in run order.  Append scenarios; never repurpose a
#: name — the trajectory across BENCH_*.json files assumes a name always
#: means the same workload.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="engine-small-redis",
        description="redis @ 2% scale, 10 epochs",
        run=_run_engine_small,
    ),
    # ``paper-redis-subpage`` (BENCH_8/9) timed the per-4KB sampler, which
    # no longer exists.  This name predates the one sampler (one draw per
    # 2MB page, 4KB rows for split pages) and is kept for the trajectory.
    Scenario(
        name="paper-redis-hierarchical",
        description="redis @ paper scale, 5 epochs, 4KB rows for split pages only",
        run=_run_paper_scale,
    ),
    Scenario(
        name="fleet-small",
        description="3-tenant fleet @ 1% scale, 10 epochs, SLO arbitration",
        run=_run_fleet_small,
    ),
    Scenario(
        name="service-decisions",
        description="online placement service, 400 decisions @ 3 tenants, "
        "no faults (wall seconds ≈ decisions/sec denominator)",
        run=_run_service_decisions,
    ),
)


def run_suite(names: list[str] | None = None) -> dict[str, dict]:
    """Run the suite (or a named subset); returns the snapshot payload body.

    Wall-clock timing wraps each scenario's runner, which runs
    :data:`TIMING_REPEATS` times and keeps its fastest time, so one
    descheduled run cannot read as a regression.  The calibration kernel
    is timed once, first, so every scenario in one invocation shares the
    same host-speed unit.  The body records numpy's version, since a numpy
    release can move semantic metrics with no code change.  Raises
    :class:`SimulationError` when a scenario's repeats disagree on a
    semantic metric: its outputs are not seed-pinned, so none of them can
    be pinned.
    """
    selected = [s for s in SCENARIOS if names is None or s.name in names]
    if names is not None:
        unknown = set(names) - {s.name for s in selected}
        if unknown:
            known = ", ".join(s.name for s in SCENARIOS)
            raise KeyError(
                f"unknown scenario(s) {sorted(unknown)}; choose from: {known}"
            )
    calibration = calibration_seconds()
    scenarios: dict[str, dict] = {}
    for scenario in selected:
        wall = float("inf")
        runs = []
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            runs.append(scenario.run())
            wall = min(wall, time.perf_counter() - start)
        semantic = runs[0]
        differing = sorted(
            {
                metric
                for run in runs[1:]
                for metric in run.keys() | semantic.keys()
                if run.get(metric) != semantic.get(metric)
            }
        )
        if differing:
            raise SimulationError(
                f"{scenario.name}: {TIMING_REPEATS} identical runs disagree "
                f"on semantic metrics {differing}"
            )
        scenarios[scenario.name] = {
            "description": scenario.description,
            "semantic": semantic,
            "perf": {
                "wall_seconds": wall,
                "normalized": wall / calibration,
            },
        }
    return {
        "calibration_seconds": calibration,
        "numpy": np.__version__,
        "scenarios": scenarios,
    }
