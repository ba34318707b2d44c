"""Figure 3: slow-memory access rate over time vs the 30K acc/s target.

The paper's control-loop validation: with a 3% tolerable slowdown and 1us
slow memory, the budget is 30,000 accesses/sec; Figure 3 shows each
application's slow-memory access rate (averaged over 30s) tracking that
line, with transient overshoots for Aerospike and Cassandra that the
Section 3.5 correction pulls back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ThermostatConfig
from repro.experiments.common import DEFAULT_SCALE, DEFAULT_SEED, run_suite
from repro.metrics.report import format_table, sparkline
from repro.sim.stats import TimeSeries


@dataclass(frozen=True)
class SlowRateResult:
    """Figure 3 data for one workload."""

    workload: str
    series: TimeSeries
    target_rate: float

    def peak_rate(self) -> float:
        return self.series.max()

    def settled_mean(self, tail_fraction: float = 0.25) -> float:
        """Mean over the last ``tail_fraction`` of the run (post-ramp)."""
        values = self.series.values
        tail = max(1, int(tail_fraction * len(values)))
        return float(np.mean(values[-tail:]))


def run(
    tolerable_slowdown: float = 0.03,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> list[SlowRateResult]:
    """Run the suite and extract the slow-access-rate series."""
    target = ThermostatConfig(
        tolerable_slowdown=tolerable_slowdown
    ).slow_access_rate_budget
    results = []
    for name, sim in run_suite(tolerable_slowdown, scale, seed, jobs=jobs).items():
        results.append(
            SlowRateResult(
                workload=name,
                series=sim.series("slow_access_rate").windowed_mean(30.0),
                target_rate=target,
            )
        )
    return results


def render(results: list[SlowRateResult]) -> str:
    """Summary rows plus a sparkline per workload."""
    target = results[0].target_rate if results else 0.0
    lines = [
        format_table(
            f"Figure 3: slow-memory access rate (target {target:.0f} acc/s)",
            ["workload", "settled mean", "peak", "peak/target"],
            [
                (
                    r.workload,
                    f"{r.settled_mean():.0f}",
                    f"{r.peak_rate():.0f}",
                    f"{r.peak_rate() / r.target_rate:.2f}x",
                )
                for r in results
            ],
        )
    ]
    for r in results:
        lines.append(f"{r.workload:22s} {sparkline(r.series.values)}")
    return "\n".join(lines)


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
