"""In-memory key-value store workloads (Aerospike, Redis).

Both stores keep their entire dataset in RAM; what differs is the skew:

* **Aerospike** under YCSB Zipfian traffic has a gradual popularity
  gradient — which is why its cold fraction grows steadily with the
  tolerable slowdown in Figure 11 instead of saturating;
* **Redis** in the paper's load has a tiny hotspot (0.01% of keys take 90%
  of traffic) and a *uniform* remainder, because the big hash table sprays
  keys across the address space — which is why only ~10% of its footprint
  can be demoted at 3% slowdown (Section 6's "we experimented with a
  Zipfian traffic pattern for Redis and failed to place more than 10%").

:class:`KeyValueWorkload` adds optional *hot-set drift*: every
``drift_interval`` seconds a small fraction of cold pages swaps popularity
with hot pages, modelling churn in the key popularity distribution.  Drift
is what exercises the Section 3.5 correction machinery (Figure 3's
transient overshoots for Aerospike/Cassandra).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.rng import make_rng
from repro.workloads.base import RateModelWorkload


class KeyValueWorkload(RateModelWorkload):
    """A static-footprint store with skewed, optionally drifting, accesses."""

    def __init__(
        self,
        name: str,
        rates: np.ndarray,
        file_mapped_bytes: int = 0,
        baseline_ops_per_second: float = 100_000.0,
        write_fraction: float = 0.1,
        burstiness: float = 0.0,
        duty_threshold: float | None = None,
        duty_floor: float = 0.05,
        duty_persistence: float = 4.0,
        drift_interval: float | None = None,
        drift_fraction: float = 0.0,
        drift_seed: int = 0,
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
        if drift_interval is not None and drift_interval <= 0:
            raise WorkloadError(f"{name}: drift_interval must be positive")
        if not 0.0 <= drift_fraction < 1.0:
            raise WorkloadError(f"{name}: drift_fraction must be in [0, 1)")
        self.drift_interval = drift_interval
        self.drift_fraction = drift_fraction
        self._drift_rng = make_rng(drift_seed)
        self._drifts_applied = 0

    # ------------------------------------------------------------------

    def _apply_drift_events(self, time: float) -> None:
        """Swap popularity between cold and hot page sets up to ``time``.

        Drift is applied lazily and cumulatively; the engine calls
        ``rates_at`` with monotonically increasing times, so each event
        fires exactly once.  The events due are applied to a copy that
        then replaces the read-only vector, so an array handed out
        earlier never changes under its holder.
        """
        if self.drift_interval is None or self.drift_fraction == 0.0:
            return
        due = int(time // self.drift_interval)
        rates = self._rates
        while self._drifts_applied < due:
            self._drifts_applied += 1
            # Pick before copying: the sort is freed by then, so a drift
            # never holds more than two footprint-sized arrays at once.
            cold, hot = self._drift_swap(rates)
            if rates is self._rates:
                rates = rates.copy()
            rates[cold], rates[hot] = rates[hot], rates[cold]
        if rates is not self._rates:
            rates.flags.writeable = False
            self._rates = rates

    def _drift_swap(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One event's pages: some of the colder half, as many of the hotter."""
        count = max(1, int(self.drift_fraction * rates.size))
        order = np.argsort(rates)
        cold = self._drift_rng.choice(order[: rates.size // 2], size=count, replace=False)
        hot = self._drift_rng.choice(order[rates.size // 2 :], size=count, replace=False)
        return cold, hot

    def rates_at(self, time: float) -> np.ndarray:
        self._apply_drift_events(time)
        return self._rates
