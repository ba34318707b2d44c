"""Cassandra: a wide-column store with growing memtables and cold SSTables.

The paper's Figure 5 behaviour comes from Cassandra's storage engine:

* writes land in in-memory **memtables**, so the resident footprint grows
  over the run (the paper: "memory consumption of Cassandra grows due to
  in-memory Memtables filling up");
* flushed **SSTables** are file-mapped (4GB of Cassandra's 12GB footprint
  in Table 2) and mostly cold — read-path bloom filters and index summaries
  stay hot, data blocks cool quickly;
* the result is 40-50% of the footprint classified cold at a 2%
  throughput cost.

The model: a base keyspace under YCSB-like Zipfian skew, a file-mapped
region that is almost entirely cold, and a growth region whose pages are
hot while recent (the active memtable) and decay to cold as they age into
flushed segments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.units import GB, SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import Workload, pad_to_huge, static_rates


class CassandraWorkload(Workload):
    """Growing-footprint wide-column store."""

    def __init__(
        self,
        name: str,
        base_rates: np.ndarray,
        growth_bytes: int,
        growth_duration: float,
        file_mapped_bytes: int = 4 * GB,
        baseline_ops_per_second: float = 45_000.0,
        write_fraction: float = 0.5,
        burstiness: float = 0.0,
        duty_threshold: float | None = None,
        duty_floor: float = 0.05,
        duty_persistence: float = 4.0,
        fresh_page_rate: float = 400.0,
        decay_time: float = 120.0,
        floor_page_rate: float = 0.05,
        churn_interval: float | None = 180.0,
        churn_fraction: float = 0.001,
        churn_page_rate: float = 4.0,
        num_pages: int | None = None,
    ) -> None:
        """
        Parameters
        ----------
        base_rates / num_pages:
            Per-4KB-page rates of the initial (pre-growth) footprint,
            including the file-mapped SSTable region (kept read-only, see
            :func:`~repro.workloads.base.static_rates`); ``num_pages`` is
            that footprint when ``base_rates`` comes already padded past it.
        growth_bytes / growth_duration:
            How much the resident set grows and over how long (linear).
        fresh_page_rate:
            Access rate (per 4KB page) of just-written memtable pages.
        decay_time:
            e-folding time for a grown page's rate to cool after being
            written.
        floor_page_rate:
            Residual rate of fully-cooled grown pages (flushed segments
            still see read traffic), per 4KB page.
        churn_interval / churn_fraction / churn_page_rate:
            Compaction-style churn: every ``churn_interval`` seconds a
            rotating window of ``churn_fraction`` of the base footprint is
            re-read at ``churn_page_rate`` per page for one interval —
            turning demoted-cold pages temporarily hot, which is what makes
            Figure 3's slow-access rate overshoot and exercises the
            Section 3.5 correction path.
        """
        self._base_rates, num_pages = static_rates(name, base_rates, num_pages)
        if growth_bytes < 0 or growth_duration <= 0:
            raise WorkloadError(f"{name}: bad growth parameters")
        resident = num_pages * 4096 - file_mapped_bytes
        if resident <= 0:
            raise WorkloadError(f"{name}: file_mapped_bytes exceeds base footprint")
        super().__init__(
            name,
            resident,
            file_mapped_bytes=file_mapped_bytes,
            baseline_ops_per_second=baseline_ops_per_second,
            write_fraction=write_fraction,
            burstiness=burstiness,
            duty_threshold=duty_threshold,
            duty_floor=duty_floor,
            duty_persistence=duty_persistence,
        )
        self._base_pages = self._base_rates.size
        self._growth_pages = pad_to_huge(growth_bytes // 4096)
        self.growth_duration = growth_duration
        self.fresh_page_rate = fresh_page_rate
        self.decay_time = decay_time
        self.floor_page_rate = floor_page_rate
        self.churn_interval = churn_interval
        self.churn_fraction = churn_fraction
        self.churn_page_rate = churn_page_rate

    # ------------------------------------------------------------------

    @property
    def total_base_pages(self) -> int:
        return self._base_pages + self._growth_pages

    def _grown_pages_at(self, time: float) -> int:
        if self.growth_duration <= 0:
            return self._growth_pages
        fraction = min(1.0, max(0.0, time / self.growth_duration))
        grown = int(fraction * self._growth_pages)
        # Whole huge pages only.
        return (grown // SUBPAGES_PER_HUGE_PAGE) * SUBPAGES_PER_HUGE_PAGE

    def num_huge_pages_at(self, time: float) -> int:
        return (self._base_pages + self._grown_pages_at(time)) // SUBPAGES_PER_HUGE_PAGE

    def _birth_time(self, page_offsets: np.ndarray) -> np.ndarray:
        """When each grown page was written (inverse of the growth ramp)."""
        return (page_offsets / max(self._growth_pages, 1)) * self.growth_duration

    def rates_at(self, time: float) -> np.ndarray:
        grown = self._grown_pages_at(time)
        rates = np.empty(self._base_pages + grown)
        rates[: self._base_pages] = self._base_rates
        if grown:
            offsets = np.arange(grown, dtype=float)
            age = np.maximum(0.0, time - self._birth_time(offsets))
            rates[self._base_pages :] = self.floor_page_rate + (
                self.fresh_page_rate - self.floor_page_rate
            ) * np.exp(-age / self.decay_time)
        if self.churn_interval and self.churn_fraction > 0:
            window = max(1, int(self.churn_fraction * self._base_pages))
            event = int(time // self.churn_interval)
            start = (event * window) % self._base_pages
            end = min(start + window, self._base_pages)
            rates[start:end] += self.churn_page_rate
        return rates
