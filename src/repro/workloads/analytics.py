"""In-memory analytics (Cloudsuite's Spark collaborative filtering).

Figure 9 of the paper: the benchmark runs a short (317s) iterative ALS
computation whose footprint *grows* as the Spark executor materializes
RDDs; Thermostat identifies 15-20% of the data as cold, and "as
application footprint grows, Thermostat scans more pages and thus the cold
page fraction also grows with time".

The model: a training dataset region that is scanned during ingest and
then mostly cools (older RDD partitions are no longer needed), a working
region that stays hot through the iterations, and linear footprint growth
over the first portion of the run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import Workload, pad_to_huge, static_rates
from repro.workloads.distributions import layout_order


def analytics_template(
    final_footprint_pages: int,
    total_rate: float,
    rng: np.random.Generator,
    cold_fraction_of_dataset: float = 0.2,
    dataset_fraction: float = 0.6,
    band_masses: tuple[float, float, float] = (0.005, 0.395, 0.60),
) -> np.ndarray:
    """Static popularity template over the *final*, 2MB-padded footprint.

    Parameters
    ----------
    final_footprint_pages:
        Footprint (4KB pages) once all RDDs are materialized.
    dataset_fraction:
        Fraction of the footprint holding input/intermediate RDDs (the
        region that cools); the rest is the hot working set (factor
        matrices, shuffle buffers).
    cold_fraction_of_dataset:
        Fraction of the dataset region that goes nearly idle after
        ingest.
    band_masses:
        Traffic shares of the (cold-dataset, warm-dataset, working-set)
        regions; must sum to 1.
    """
    if final_footprint_pages <= 0:
        raise WorkloadError(f"footprint must be positive: {final_footprint_pages}")
    if not 0.0 < dataset_fraction < 1.0:
        raise WorkloadError(f"dataset_fraction must be in (0,1): {dataset_fraction}")
    if not 0.0 <= cold_fraction_of_dataset <= 1.0:
        raise WorkloadError(
            f"cold_fraction_of_dataset must be in [0,1]: {cold_fraction_of_dataset}"
        )
    if abs(sum(band_masses) - 1.0) > 1e-6:
        raise WorkloadError(f"band_masses must sum to 1: {band_masses}")
    padded = pad_to_huge(final_footprint_pages)
    dataset_pages = int(dataset_fraction * padded)
    cold_pages = int(cold_fraction_of_dataset * dataset_pages)
    # The cold tail of the dataset gets a token rate, the warm dataset a
    # modest one, the working set the bulk.
    cold_mass, warm_mass, hot_mass = band_masses
    order = layout_order(padded, rng)
    template = np.empty(padded)
    template[:cold_pages] = cold_mass / max(cold_pages, 1)
    template[cold_pages:dataset_pages] = warm_mass / max(dataset_pages - cold_pages, 1)
    template[dataset_pages:] = hot_mass / max(padded - dataset_pages, 1)
    laid = template[order]
    laid *= total_rate
    return laid


class AnalyticsWorkload(Workload):
    """Iterative in-memory analytics with a growing, phase-shifting footprint.

    ``template`` is the final footprint's rate vector from
    :func:`analytics_template` (kept read-only, see
    :func:`~repro.workloads.base.static_rates`); ``total_rate`` is the
    application's access rate, held constant as the resident prefix of
    the template grows.
    """

    def __init__(
        self,
        name: str,
        template: np.ndarray,
        total_rate: float,
        growth_duration: float = 150.0,
        baseline_ops_per_second: float = 10_000.0,
        write_fraction: float = 0.3,
        burstiness: float = 0.0,
        duty_threshold: float | None = None,
        duty_floor: float = 0.05,
        duty_persistence: float = 4.0,
    ) -> None:
        self._template, _ = static_rates(name, template)
        self._final_pages = self._template.size
        super().__init__(
            name,
            self._final_pages * 4096,
            file_mapped_bytes=0,
            baseline_ops_per_second=baseline_ops_per_second,
            write_fraction=write_fraction,
            burstiness=burstiness,
            duty_threshold=duty_threshold,
            duty_floor=duty_floor,
            duty_persistence=duty_persistence,
        )
        self.growth_duration = growth_duration
        self.total_rate = total_rate

    @property
    def total_base_pages(self) -> int:
        return self._final_pages

    def num_huge_pages_at(self, time: float) -> int:
        if self.growth_duration <= 0:
            fraction = 1.0
        else:
            fraction = min(1.0, max(0.0, time / self.growth_duration))
        start_fraction = 0.45  # the executor starts with ~45% materialized
        fraction = start_fraction + (1.0 - start_fraction) * fraction
        pages = int(fraction * self._final_pages)
        pages = max(pages, SUBPAGES_PER_HUGE_PAGE)
        return (pages // SUBPAGES_PER_HUGE_PAGE) or 1

    def rates_at(self, time: float) -> np.ndarray:
        resident = self.num_huge_pages_at(time) * SUBPAGES_PER_HUGE_PAGE
        rates = self._template[:resident].copy()
        # Renormalize so the application's total access rate stays constant
        # as the footprint grows (iterations dominate runtime either way).
        mass = rates.sum()
        if mass > 0:
            rates *= self.total_rate / mass
        return rates
