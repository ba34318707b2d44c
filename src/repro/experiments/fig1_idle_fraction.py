"""Figure 1: fraction of 2MB pages idle for 10 seconds (Accessed bits).

The paper's motivating measurement: an existing kstaled-style scanner can
find substantial 10-second-idle data application-transparently (over 50%
for MySQL), **but** — the caption's point — idleness says nothing about
access *rate*, so this mechanism cannot bound the slowdown of demoting
those pages (which "exceeds 10% for Redis").

We reproduce both halves: the idle fraction per workload, and the
slowdown that placing exactly the idle pages in slow memory would incur
(computed from the pages' true long-run rates — information the
Accessed-bit mechanism does not have).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import DEFAULT_SCALE, DEFAULT_SEED
from repro.metrics.report import format_table
from repro.rng import child_rng, make_rng
from repro.units import SLOW_MEMORY_LATENCY, SUBPAGES_PER_HUGE_PAGE
from repro.workloads import WORKLOAD_NAMES, make_workload

#: The idle window of the paper's measurement.
IDLE_WINDOW = 10.0


@dataclass(frozen=True)
class IdleResult:
    """Figure 1 data for one workload."""

    workload: str
    idle_fraction: float
    #: Slowdown if every currently-idle page were placed in slow memory.
    placement_slowdown: float


def measure_idle(
    name: str,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    windows: int = 20,
    warmup: float = 300.0,
) -> IdleResult:
    """Scan one workload with 10s Accessed-bit windows.

    A huge page is idle in a window when none of its subpages were
    accessed — exactly what clearing and re-reading the Accessed bits
    observes.  The placement slowdown uses the idle pages' *true* rates:
    the quantity the paper's Figure 1 caption warns is invisible to this
    mechanism.
    """
    workload = make_workload(name, scale=scale)
    rng = child_rng(make_rng(seed), f"fig1:{name}")
    idle_fractions = []
    placement_rates = []
    time = warmup
    for _ in range(windows):
        # Idleness is a 2MB-grain question: no 4KB rows needed.
        profile = workload.epoch_profile(
            time, IDLE_WINDOW, rng, resolve=np.empty(0, dtype=np.int64)
        )
        huge_counts = profile.huge_counts()
        idle_mask = huge_counts == 0
        idle_fractions.append(float(idle_mask.mean()))
        true_rates = (
            workload.rates_at(time)
            .reshape(-1, SUBPAGES_PER_HUGE_PAGE)
            .sum(axis=1)
        )
        placement_rates.append(float(true_rates[idle_mask].sum()))
        time += IDLE_WINDOW
    return IdleResult(
        workload=name,
        idle_fraction=float(np.mean(idle_fractions)),
        placement_slowdown=float(np.mean(placement_rates)) * SLOW_MEMORY_LATENCY,
    )


def run(
    scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED, windows: int = 20
) -> list[IdleResult]:
    """Figure 1 across the whole suite."""
    return [measure_idle(name, scale, seed, windows) for name in WORKLOAD_NAMES]


def render(results: list[IdleResult]) -> str:
    """Paper-comparable rows."""
    return format_table(
        "Figure 1: 2MB pages idle for 10s (Accessed-bit scan)",
        ["workload", "idle fraction (%)", "slowdown if placed (%)"],
        [
            (r.workload, f"{100 * r.idle_fraction:.1f}", f"{100 * r.placement_slowdown:.1f}")
            for r in results
        ],
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
