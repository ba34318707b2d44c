"""Extension experiment: graceful degradation under injected faults.

The paper's deployability argument (Section 3.5, Table 3) implicitly
assumes migrations succeed and tiers have headroom.  This experiment
stresses that assumption: a sweep of transient migration-failure rates
(with bounded retry + exponential backoff) plus background capacity
exhaustion, asking two questions the happy path cannot answer:

1. does the pipeline *complete* under adversity (no unhandled
   ``MigrationError``/``CapacityError``), merely reporting degraded-mode
   epochs instead of crashing?
2. how does the achieved slowdown degrade as migrations get flakier —
   i.e. how much of Thermostat's benefit survives an unreliable
   migration substrate?

Faults are injected from seeded child RNG streams
(:mod:`repro.faults`), so every row is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import FaultConfig
from repro.experiments.common import DEFAULT_SCALE, DEFAULT_SEED, run_batch
from repro.experiments.parallel import RunSpec
from repro.metrics.report import format_table

#: Transient migration-failure probabilities swept per batch attempt.
FAILURE_RATES = (0.0, 0.1, 0.3, 0.5, 0.7)
#: Workload the sweep runs on (hotspot-skewed, lots of demotion work).
WORKLOAD = "redis"
#: Simulated duration per run, seconds.
DURATION = 600.0


@dataclass(frozen=True)
class FaultSweepRow:
    """One fault-rate point of the sweep."""

    failure_rate: float
    average_slowdown: float
    final_cold_fraction: float
    degraded_epochs: float
    migration_retries: float
    retry_overhead_seconds: float
    deferred_demotions: float
    retry_exhausted_batches: float


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    failure_rates: tuple[float, ...] = FAILURE_RATES,
    jobs: int = 1,
) -> list[FaultSweepRow]:
    """Sweep migration failure rate; every run must complete."""
    specs = [
        RunSpec(
            workload=WORKLOAD,
            scale=scale,
            duration=DURATION,
            epoch=30.0,
            seed=seed,
            faults=FaultConfig(
                enabled=True,
                migration_failure_rate=rate,
                max_migration_retries=3,
                retry_backoff_seconds=1e-3,
                capacity_exhaustion_rate=0.1,
            ),
        )
        for rate in failure_rates
    ]
    results = run_batch(specs, jobs=jobs)
    rows = []
    for rate, result in zip(failure_rates, results, strict=True):
        summary = result.fault_summary()
        rows.append(
            FaultSweepRow(
                failure_rate=rate,
                average_slowdown=result.average_slowdown,
                final_cold_fraction=result.final_cold_fraction,
                degraded_epochs=summary["degraded_epochs"],
                migration_retries=summary["migration_retries"],
                retry_overhead_seconds=summary["retry_overhead_seconds"],
                deferred_demotions=summary["deferred_demotions"],
                retry_exhausted_batches=summary["retry_exhausted_batches"],
            )
        )
    return rows


def render(rows: list[FaultSweepRow]) -> str:
    """The sweep as a text table."""
    table = format_table(
        f"Graceful degradation: migration-failure sweep ({WORKLOAD}, "
        "10% capacity-exhaustion epochs)",
        [
            "failure rate",
            "avg slowdown",
            "cold frac",
            "degraded epochs",
            "retries",
            "retry overhead",
            "deferred",
            "exhausted",
        ],
        [
            (
                f"{r.failure_rate:.0%}",
                f"{100 * r.average_slowdown:.2f}%",
                f"{100 * r.final_cold_fraction:.1f}%",
                f"{r.degraded_epochs:.0f}",
                f"{r.migration_retries:.0f}",
                f"{r.retry_overhead_seconds * 1e3:.1f}ms",
                f"{r.deferred_demotions:.0f}",
                f"{r.retry_exhausted_batches:.0f}",
            )
            for r in rows
        ],
    )
    return (
        f"{table}\n(every run completed; failures surface as degraded epochs "
        "and deferred work, never as crashes)"
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
