"""Figure 2: Accessed-bit spatial frequency vs true access rate (Redis).

The paper splits 2MB pages, monitors the 512 subpage Accessed bits at the
highest frequency compatible with the 3% overhead target, counts how many
4KB regions were "hot" (accessed in three consecutive scan intervals), and
plots that against the page's ground-truth access rate.  The scatter is
"highly dispersed" — the key negative result motivating fault-based rate
estimation.

We reproduce the methodology: three consecutive Accessed-bit windows per
huge page, hot-subpage counting, and a rank-correlation measure of how
(un)informative the count is about the true rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import DEFAULT_SCALE, DEFAULT_SEED
from repro.metrics.report import format_table
from repro.rng import child_rng, make_rng
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads import make_workload

#: Scan interval of the Figure 2 measurement (the maximum frequency the
#: paper could afford within its slowdown target).
SCAN_INTERVAL = 10.0
#: A subpage is "hot" when accessed in this many consecutive scans.
CONSECUTIVE_SCANS = 3


@dataclass(frozen=True)
class ScatterResult:
    """Figure 2 data: one point per monitored huge page."""

    workload: str
    hot_subpage_counts: np.ndarray
    true_rates: np.ndarray

    def pearson_r(self) -> float:
        """Linear correlation between hot-count and true rate."""
        if self.hot_subpage_counts.size < 2:
            return float("nan")
        if np.std(self.hot_subpage_counts) == 0 or np.std(self.true_rates) == 0:
            return 0.0
        return float(
            np.corrcoef(self.hot_subpage_counts, self.true_rates)[0, 1]
        )

    def spearman_r(self) -> float:
        """Rank correlation between hot-count and true rate."""
        if self.hot_subpage_counts.size < 2:
            return float("nan")
        x = np.argsort(np.argsort(self.hot_subpage_counts)).astype(float)
        y = np.argsort(np.argsort(self.true_rates)).astype(float)
        if np.std(x) == 0 or np.std(y) == 0:
            return 0.0
        return float(np.corrcoef(x, y)[0, 1])

    def dispersion(self) -> float:
        """Mean coefficient of variation of true rate within hot-count bins.

        High dispersion = pages with the same Accessed-bit signature have
        wildly different rates — the paper's visual point, quantified.
        """
        bins: dict[int, list[float]] = {}
        for count, rate in zip(self.hot_subpage_counts, self.true_rates, strict=True):
            bins.setdefault(int(count) // 32, []).append(rate)
        cvs = []
        for rates in bins.values():
            rates_arr = np.asarray(rates)
            if len(rates_arr) >= 3 and rates_arr.mean() > 0:
                cvs.append(rates_arr.std() / rates_arr.mean())
        return float(np.mean(cvs)) if cvs else 0.0


def run(
    workload_name: str = "redis",
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    monitored_pages: int = 300,
    warmup: float = 120.0,
) -> ScatterResult:
    """Monitor a sample of huge pages with Accessed-bit scans only."""
    workload = make_workload(workload_name, scale=scale)
    rng = child_rng(make_rng(seed), f"fig2:{workload_name}")
    num_huge = workload.num_huge_pages_at(warmup)
    chosen = rng.choice(num_huge, size=min(monitored_pages, num_huge), replace=False)
    chosen = np.sort(chosen)

    # Three consecutive Accessed-bit windows: a subpage's bit is "set" in a
    # window when it received any access.
    accessed_windows = []
    time = warmup
    for _ in range(CONSECUTIVE_SCANS):
        profile = workload.epoch_profile(time, SCAN_INTERVAL, rng, resolve=chosen)
        sub = profile.subpage_rows(chosen)
        accessed_windows.append(sub > 0)
        time += SCAN_INTERVAL
    hot_subpages = np.logical_and.reduce(accessed_windows).sum(axis=1)

    true_rates = (
        workload.rates_at(warmup)
        .reshape(-1, SUBPAGES_PER_HUGE_PAGE)
        .sum(axis=1)[chosen]
    )
    return ScatterResult(
        workload=workload_name,
        hot_subpage_counts=hot_subpages.astype(np.int64),
        true_rates=true_rates,
    )


def run_all(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    monitored_pages: int = 200,
) -> list[ScatterResult]:
    """Figure 2's measurement for every suite workload (paper: Redis only).

    An extension: the Accessed-bit signal is a poor rate predictor across
    the whole suite, not just for Redis.
    """
    from repro.workloads import WORKLOAD_NAMES

    return [
        run(name, scale=scale, seed=seed, monitored_pages=monitored_pages)
        for name in WORKLOAD_NAMES
    ]


def render_all(results: list[ScatterResult]) -> str:
    """Correlation summary across the suite."""
    return format_table(
        "Figure 2 (extended): Accessed-bit signal vs true rate, all workloads",
        ["workload", "pearson r", "spearman r", "dispersion (CV)"],
        [
            (
                r.workload,
                f"{r.pearson_r():.3f}",
                f"{r.spearman_r():.3f}",
                f"{r.dispersion():.2f}",
            )
            for r in results
        ],
    )


def render(result: ScatterResult) -> str:
    """Summary rows for the scatter."""
    return format_table(
        f"Figure 2: Accessed-bit hot-subpage count vs true rate ({result.workload})",
        ["metric", "value"],
        [
            ("monitored 2MB pages", result.hot_subpage_counts.size),
            ("pearson r", f"{result.pearson_r():.3f}"),
            ("spearman r", f"{result.spearman_r():.3f}"),
            ("within-bin dispersion (CV)", f"{result.dispersion():.2f}"),
            (
                "hot-count range",
                f"{result.hot_subpage_counts.min()}..{result.hot_subpage_counts.max()}",
            ),
            (
                "true-rate range (acc/s)",
                f"{result.true_rates.min():.1f}..{result.true_rates.max():.1f}",
            ),
        ],
    )


def main() -> None:
    print(render(run()))
    print()
    print(render_all(run_all()))


if __name__ == "__main__":
    main()
