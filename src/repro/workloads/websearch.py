"""Web search (Cloudsuite's Apache Solr index node).

Figure 10 / Table 1 of the paper: web search is the outlier in both
directions —

* ~40% of its (comparatively small, 2.28GB) footprint is cold with *no*
  observable latency degradation, because the cold index segments are
  almost never consulted by the query mix; and
* it gains nothing from huge pages (Table 1: "No difference"), because it
  is CPU-bound: its memory access rate is far too low for translation
  overhead to matter.

The model: posting lists with a steep popularity curve (queries hit a
small set of common terms), a large tail of rarely-queried segments, and a
low total access rate.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import RateModelWorkload
from repro.workloads.distributions import tiered_rates


def websearch_rates(
    num_pages: int, total_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-4KB-page rates of the index, laid out in address order."""
    # Bands: 40% of the index is dead segments (essentially no accesses);
    # the remaining 60% (dictionary, caches, common posting lists) is hot
    # enough that any single 2MB page of it busts the per-sample demotion
    # budget — which is why web search demotes its dead 40% with almost
    # no slow-memory traffic and then stops (Figure 10: <1% degradation).
    return tiered_rates(
        num_pages,
        total_rate,
        bands=[(0.40, 0.000001), (0.60, 0.999999)],
        rng=rng,
        shuffle=True,
    )


class WebSearchWorkload(RateModelWorkload):
    """Solr-like index serving a skewed query term distribution.

    ``rates`` come from :func:`websearch_rates`.
    """

    def __init__(
        self,
        name: str,
        rates: np.ndarray,
        file_mapped_bytes: int = 0,
        baseline_ops_per_second: float = 50.0,
        write_fraction: float = 0.02,
        burstiness: float = 0.0,
        duty_threshold: float | None = None,
        duty_floor: float = 0.05,
        duty_persistence: float = 4.0,
        num_pages: int | None = None,
    ) -> None:
        super().__init__(
            name,
            rates,
            file_mapped_bytes=file_mapped_bytes,
            baseline_ops_per_second=baseline_ops_per_second,
            write_fraction=write_fraction,
            burstiness=burstiness,
            duty_threshold=duty_threshold,
            duty_floor=duty_floor,
            duty_persistence=duty_persistence,
            num_pages=num_pages,
        )
