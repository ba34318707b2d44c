"""Figures 5-10: hot/cold footprint breakdown over time, per application.

Each paper figure stacks four series — cold 2MB data, cold 4KB data
(transiently split pages), hot 2MB data, hot 4KB data — over the run,
with the measured throughput degradation in the caption:

* Fig 5  Cassandra (write-heavy): 40-50% cold at 2% degradation;
* Fig 6  MySQL-TPCC: 40-50% cold at 1.3%;
* Fig 7  Aerospike (read-heavy): ~15% cold at 1%;
* Fig 8  Redis: ~10% cold at 2%;
* Fig 9  in-memory analytics: 15-20% cold, growing footprint, 3%;
* Fig 10 web search: ~40% cold, <1% and no p99 impact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    run_batch,
    suite_spec,
)
from repro.metrics.report import format_figure_series, format_table
from repro.sim.engine import SimulationResult

#: Figure number per workload, and the paper's caption numbers.
FIGURES = {
    "cassandra": ("Figure 5", (0.40, 0.50), 0.02),
    "mysql-tpcc": ("Figure 6", (0.40, 0.50), 0.013),
    "aerospike": ("Figure 7", (0.10, 0.20), 0.01),
    "redis": ("Figure 8", (0.07, 0.15), 0.02),
    "in-memory-analytics": ("Figure 9", (0.15, 0.25), 0.03),
    "web-search": ("Figure 10", (0.30, 0.45), 0.01),
}


@dataclass(frozen=True)
class FootprintFigure:
    """One reproduced footprint figure."""

    workload: str
    figure: str
    result: SimulationResult
    paper_cold_range: tuple[float, float]
    paper_degradation: float

    @property
    def final_cold_fraction(self) -> float:
        return self.result.final_cold_fraction

    @property
    def degradation(self) -> float:
        return self.result.throughput_degradation

    def cold_4kb_share(self) -> float:
        """Fraction of cold data that is (transiently) 4KB-mapped.

        The paper notes ~5% for Cassandra — the pages currently split by
        the sampling pipeline.
        """
        ts4k = self.result.series("cold_4kb_bytes").values
        ts2m = self.result.series("cold_2mb_bytes").values
        total = ts4k + ts2m
        mask = total > 0
        if not mask.any():
            return 0.0
        return float((ts4k[mask] / total[mask]).mean())


def run(
    scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED, jobs: int = 1
) -> list[FootprintFigure]:
    """All six footprint figures (``jobs > 1`` simulates them in parallel)."""
    results = run_batch(
        [suite_spec(name, scale=scale, seed=seed) for name in FIGURES], jobs=jobs
    )
    return [
        FootprintFigure(
            workload=name,
            figure=figure,
            result=result,
            paper_cold_range=cold_range,
            paper_degradation=degradation,
        )
        for (name, (figure, cold_range, degradation)), result in zip(
            FIGURES.items(), results, strict=True
        )
    ]


def render(fig: FootprintFigure) -> str:
    """One figure: the four stacked series plus caption numbers."""
    series = {
        key: fig.result.series(key)
        for key in ("cold_2mb_bytes", "cold_4kb_bytes", "hot_2mb_bytes", "hot_4kb_bytes")
    }
    body = format_figure_series(
        f"{fig.figure}: {fig.workload} footprint breakdown (bytes)", series
    )
    lo, hi = fig.paper_cold_range
    caption = (
        f"cold fraction: {100 * fig.final_cold_fraction:.1f}% final "
        f"(paper {100 * lo:.0f}-{100 * hi:.0f}%); "
        f"throughput degradation {100 * fig.degradation:.1f}% "
        f"(paper {100 * fig.paper_degradation:.1f}%); "
        f"cold data 4KB-mapped: {100 * fig.cold_4kb_share():.1f}%"
    )
    return f"{body}\n{caption}"


def summary_table(figures: list[FootprintFigure]) -> str:
    """All six captions in one table."""
    return format_table(
        "Figures 5-10: cold fraction and degradation summary",
        ["figure", "workload", "cold final", "paper range", "degradation", "paper"],
        [
            (
                f.figure,
                f.workload,
                f"{100 * f.final_cold_fraction:.1f}%",
                f"{100 * f.paper_cold_range[0]:.0f}-{100 * f.paper_cold_range[1]:.0f}%",
                f"{100 * f.degradation:.1f}%",
                f"{100 * f.paper_degradation:.1f}%",
            )
            for f in figures
        ],
    )


def main() -> None:
    figures = run()
    for fig in figures:
        print(render(fig))
        print()
    print(summary_table(figures))


if __name__ == "__main__":
    main()
