"""Page migration between NUMA zones, with bandwidth accounting.

Table 3 of the paper reports two traffic streams for each workload:

* the **migration rate** — bytes/sec demoted from fast to slow memory as
  Thermostat classifies pages cold, and
* the **false-classification rate** — bytes/sec promoted *back* to fast
  memory by the correction mechanism of Section 3.5 after a cold page turns
  out to be hot.

Both must stay far below the slow tier's sustainable bandwidth for the
scheme to be deployable (< 30MB/s average, 60MB/s peak in the paper).
The engine here performs the frame bookkeeping against the
:class:`~repro.mem.numa.NumaTopology` and records both streams.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import MigrationError, RetryExhaustedError
from repro.mem.numa import FAST_NODE, SLOW_NODE, NumaTopology
from repro.obs import NULL_OBSERVER
from repro.obs.metrics import PAGES_BUCKETS
from repro.rng import retry_delay
from repro.sim.clock import VirtualClock
from repro.sim.stats import StatsRegistry
from repro.units import BASE_PAGE_SIZE, HUGE_PAGE_SIZE

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


class MigrationReason(enum.Enum):
    """Why a page moved — drives Table 3's two columns."""

    #: Fast -> slow: page classified cold.
    DEMOTION = "demotion"
    #: Slow -> fast: correction of a mis-classified (or newly hot) page.
    CORRECTION = "correction"


@dataclass(frozen=True)
class MigrationRecord:
    """One completed migration."""

    time: float
    bytes_moved: int
    source_node: int
    target_node: int
    reason: MigrationReason
    huge: bool


class MigrationEngine:
    """Moves pages between the two zones and accounts the traffic.

    The engine owns no page tables — callers remap translations themselves
    (the mechanism path) or flip tier arrays (the epoch path); this class is
    the single place where *bytes moved* is counted so Table 3 cannot drift
    out of sync with the policies.
    """

    def __init__(
        self,
        topology: NumaTopology,
        clock: VirtualClock,
        stats: StatsRegistry | None = None,
    ) -> None:
        self.topology = topology
        self.clock = clock
        self.stats = stats or StatsRegistry()
        self.records: list[MigrationRecord] = []
        #: Bytes accounted per reason by *this live engine* — a second,
        #: independently maintained accounting stream that the invariant
        #: auditor cross-checks against the records list and the stats
        #: counters.  Rehydrated results (which assign ``records``
        #: directly) leave it at zero; they are never audited.
        self.live_bytes_by_reason: dict[MigrationReason, int] = {
            reason: 0 for reason in MigrationReason
        }
        #: Optional fault injector (set by the engine when faults are
        #: enabled).  When present, each batch attempt may transiently
        #: fail and is retried with exponential backoff.
        self.injector: FaultInjector | None = None
        #: Observability sink (:mod:`repro.obs`); the epoch engine installs
        #: its own observer here.  The default no-op sink means the meter
        #: below costs one attribute read per batch.
        self.observer = NULL_OBSERVER

    # ------------------------------------------------------------------

    def _accounted_record(
        self,
        source_node: int,
        target_node: int,
        huge: bool,
        reason: MigrationReason,
        count: int,
    ) -> MigrationRecord:
        """Validate one batch, build its record, and account the traffic.

        The single accounting body shared by :meth:`migrate` (which also
        moves capacity) and :meth:`record` (capacity handled by the
        caller), so Table 3's streams cannot drift between the two paths.
        """
        if source_node == target_node:
            raise MigrationError(f"migration within node {source_node}")
        if count <= 0:
            raise MigrationError(f"migration count must be positive: {count}")
        page_bytes = HUGE_PAGE_SIZE if huge else BASE_PAGE_SIZE
        record = MigrationRecord(
            time=self.clock.now,
            bytes_moved=page_bytes * count,
            source_node=source_node,
            target_node=target_node,
            reason=reason,
            huge=huge,
        )
        self.records.append(record)
        self.live_bytes_by_reason[reason] += record.bytes_moved
        stream = (
            "migration_bytes"
            if record.reason is MigrationReason.DEMOTION
            else "correction_bytes"
        )
        self.stats.counter(stream).add(record.bytes_moved)
        self.stats.counter("migrations").add(1)
        obs = self.observer
        if obs.active:
            obs.inc(f"repro_migration_{reason.value}_bytes_total", record.bytes_moved)
            obs.inc("repro_migration_batches_total")
            obs.observe("repro_migration_batch_pages", count, PAGES_BUCKETS)
        return record

    def _attempt_with_faults(self) -> None:
        """Run the injected transient-failure/retry loop for one batch.

        Each failed attempt costs one backoff period (doubling per
        retry), accounted in the ``fault_retry_overhead_seconds`` counter
        the engine folds into the epoch's monitoring overhead.  Raises
        :class:`RetryExhaustedError` when the retry budget runs out.
        """
        injector = self.injector
        if injector is None:
            return
        failures = 0
        obs = self.observer
        while injector.should_fail_migration():
            failures += 1
            self.stats.counter("fault_migration_failures").add(1)
            if obs.active:
                obs.inc("repro_migration_attempt_failures_total")
            if failures > injector.config.max_migration_retries:
                self.stats.counter("fault_retry_exhausted").add(1)
                if obs.active:
                    obs.inc("repro_migration_retry_exhausted_total")
                raise RetryExhaustedError(
                    f"migration batch failed {failures} times "
                    f"(retry budget {injector.config.max_migration_retries})"
                )
            backoff = retry_delay(injector.config.retry_backoff_seconds, failures)
            self.stats.counter("fault_migration_retries").add(1)
            self.stats.counter("fault_retry_overhead_seconds").add(backoff)

    def migrate(
        self,
        source_node: int,
        target_node: int,
        huge: bool,
        reason: MigrationReason,
        count: int = 1,
    ) -> MigrationRecord:
        """Move ``count`` pages of one granularity between zones.

        Returns the accounting record.  Frame allocation is performed on the
        target and released on the source, so tier capacities are enforced.
        With a fault injector attached, the batch may transiently fail and
        is retried with exponential backoff; a batch that exhausts its
        retry budget raises :class:`RetryExhaustedError` without moving
        anything (the epoch path defers those pages to the next interval).
        """
        if source_node == target_node:
            raise MigrationError(f"migration within node {source_node}")
        if count <= 0:
            raise MigrationError(f"migration count must be positive: {count}")
        self._attempt_with_faults()
        source = self.topology.node(source_node).tier
        target = self.topology.node(target_node).tier
        page_bytes = HUGE_PAGE_SIZE if huge else BASE_PAGE_SIZE
        # Capacity-only bookkeeping: callers own frame identity (page tables
        # on the mechanism path, tier arrays on the epoch path).
        target.reserve_bytes(page_bytes * count)
        source.release_bytes(page_bytes * count)
        return self._accounted_record(source_node, target_node, huge, reason, count)

    def record(
        self,
        source_node: int,
        target_node: int,
        huge: bool,
        reason: MigrationReason,
        count: int = 1,
    ) -> MigrationRecord:
        """Account a migration whose capacity the caller already handled.

        The mechanism path allocates/frees identity-bearing frames itself
        through the tiers; this method only records the traffic so Table 3
        stays accurate without double-charging tier capacity.
        """
        return self._accounted_record(source_node, target_node, huge, reason, count)

    def demote(self, huge: bool, count: int = 1) -> MigrationRecord:
        """Fast -> slow movement of cold pages."""
        return self.migrate(FAST_NODE, SLOW_NODE, huge, MigrationReason.DEMOTION, count)

    def correct(self, huge: bool, count: int = 1) -> MigrationRecord:
        """Slow -> fast movement repairing a mis-classification."""
        return self.migrate(SLOW_NODE, FAST_NODE, huge, MigrationReason.CORRECTION, count)

    # ------------------------------------------------------------------
    # Table 3 summaries
    # ------------------------------------------------------------------

    def bytes_moved(self, reason: MigrationReason) -> int:
        """Total bytes moved for one reason."""
        return int(
            sum(r.bytes_moved for r in self.records if r.reason is reason)
        )

    def average_rate(self, reason: MigrationReason, duration: float) -> float:
        """Average traffic in bytes/sec over ``duration`` seconds."""
        if duration <= 0:
            raise MigrationError(f"duration must be positive: {duration}")
        return self.bytes_moved(reason) / duration

    @staticmethod
    def _window_index(time: float, window: float) -> int:
        """Bin index for ``time`` under half-open windows [k*w, (k+1)*w).

        Uses true division + floor rather than ``//``: float floor-division
        can land an exactly-on-boundary timestamp in the *earlier* bin
        (``1.0 // 0.1 == 9.0`` while ``1.0 / 0.1 == 10.0``), which made the
        binning inconsistent with the start-inclusive window semantics used
        everywhere else (e.g. ``TimeSeries.windowed_mean``).
        """
        return math.floor(time / window)

    def peak_rate(self, reason: MigrationReason, window: float) -> float:
        """Peak traffic (bytes/sec) over any aligned ``window``-second bin.

        Windows are half-open ``[k*window, (k+1)*window)``: a record landing
        exactly on a boundary counts toward the window it starts.
        """
        return self.peak_total_rate((reason,), window)

    def peak_total_rate(
        self,
        reasons: Iterable[MigrationReason] | None = None,
        window: float = 30.0,
    ) -> float:
        """Peak *combined* traffic (bytes/sec) over any aligned window.

        Sums every record whose reason is in ``reasons`` (default: all
        reasons) into half-open ``[k*window, (k+1)*window)`` bins and
        returns the busiest bin's rate.  This is the correct "peak total
        traffic over any window": summing per-reason peaks instead (as
        Table 3 once did) overestimates whenever the demotion and
        correction peaks land in different windows.
        """
        if window <= 0:
            raise MigrationError(f"window must be positive: {window}")
        wanted = frozenset(MigrationReason) if reasons is None else frozenset(reasons)
        bins: dict[int, int] = {}
        for record in self.records:
            if record.reason in wanted:
                key = self._window_index(record.time, window)
                bins[key] = bins.get(key, 0) + record.bytes_moved
        if not bins:
            return 0.0
        return max(bins.values()) / window
