"""Extension experiment: Thermostat's optimality gap vs an oracle.

The oracle sees ground-truth per-page rates every interval and solves the
same budgeted selection.  The gap between its cold fraction and
Thermostat's measures what 5% sampling, 50-subpage estimation, and
rate-limited migration leave on the table — and the gap in achieved
slowdown measures how much of Thermostat's overshoot is estimation error
versus intrinsic workload burstiness (the oracle churns too).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    run_batch,
    suite_spec,
)
from repro.metrics.report import format_table
from repro.workloads import WORKLOAD_NAMES


@dataclass(frozen=True)
class OracleGapRow:
    """Thermostat vs oracle for one workload."""

    workload: str
    thermostat_cold: float
    oracle_cold: float
    thermostat_slowdown: float
    oracle_slowdown: float

    @property
    def coverage(self) -> float:
        """Fraction of the oracle's cold set Thermostat achieves."""
        if self.oracle_cold <= 0:
            return 1.0
        return self.thermostat_cold / self.oracle_cold


def run(
    scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED, jobs: int = 1
) -> list[OracleGapRow]:
    """Run Thermostat and the oracle on every suite workload."""
    results = run_batch(
        [
            suite_spec(name, scale=scale, seed=seed, policy=policy)
            for name in WORKLOAD_NAMES
            for policy in ("thermostat", "oracle")
        ],
        jobs=jobs,
    )
    return [
        OracleGapRow(
            workload=name,
            thermostat_cold=thermostat.final_cold_fraction,
            oracle_cold=oracle.final_cold_fraction,
            thermostat_slowdown=thermostat.average_slowdown,
            oracle_slowdown=oracle.average_slowdown,
        )
        for name, thermostat, oracle in zip(
            WORKLOAD_NAMES, results[::2], results[1::2], strict=True
        )
    ]


def render(rows: list[OracleGapRow]) -> str:
    """Gap rows."""
    return format_table(
        "Optimality gap: Thermostat vs ground-truth oracle",
        ["workload", "thermostat cold", "oracle cold", "coverage",
         "thermostat slowdown", "oracle slowdown"],
        [
            (
                r.workload,
                f"{100 * r.thermostat_cold:.1f}%",
                f"{100 * r.oracle_cold:.1f}%",
                f"{100 * r.coverage:.0f}%",
                f"{100 * r.thermostat_slowdown:.2f}%",
                f"{100 * r.oracle_slowdown:.2f}%",
            )
            for r in rows
        ],
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
