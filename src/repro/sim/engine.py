"""The epoch-driven simulation engine.

Each epoch (one Thermostat scan interval, 30s by default) the engine:

1. asks the workload for its access profile;
2. charges the epoch's slow-memory stalls against the placement that was
   in force (every access to a slow-tier page costs that tier's latency);
3. invokes the placement policy, which may demote/promote pages for
   subsequent epochs and reports its own monitoring overhead;
4. records the time series behind Figures 3 and 5-11 — slow-memory access
   rate, achieved slowdown, throughput, and the hot/cold x 2MB/4KB
   footprint breakdown.

The measured slowdown is the paper's model applied as measurement::

    slowdown = (slow_accesses * t_slow + monitoring_overhead) / epoch

which is also how the paper's own emulation works — each slow access is a
~1us BadgerTrap fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.mem.migration import MigrationReason
from repro.mem.numa import NumaTopology, SLOW_NODE
from repro.mem.wear import WearTracker
from repro.obs import NULL_OBSERVER
from repro.obs.metrics import FRACTION_BUCKETS, RATE_BUCKETS, SECONDS_BUCKETS
from repro.rng import child_rng, make_rng
from repro.sim.clock import VirtualClock
from repro.sim.invariants import InvariantAuditor
from repro.sim.policy import PlacementPolicy
from repro.sim.state import TieredMemoryState
from repro.sim.stats import StatsRegistry
from repro.units import GB, HUGE_PAGE_SIZE, MB
from repro.workloads.base import Workload


@dataclass
class SimulationResult:
    """Everything an experiment needs from one run."""

    workload_name: str
    policy_name: str
    config: SimulationConfig
    stats: StatsRegistry
    state: TieredMemoryState
    duration: float
    baseline_ops_per_second: float
    extras: dict = field(default_factory=dict)

    # -- headline scalar metrics ----------------------------------------

    @property
    def average_slowdown(self) -> float:
        """Mean achieved slowdown across epochs (0.0 for zero-epoch runs)."""
        series = self.stats.timeseries("slowdown")
        return series.mean() if len(series) else 0.0

    @property
    def average_cold_fraction(self) -> float:
        """Mean fraction of footprint in slow memory (0.0 for zero epochs)."""
        series = self.stats.timeseries("cold_fraction")
        return series.mean() if len(series) else 0.0

    @property
    def final_cold_fraction(self) -> float:
        """Cold fraction at the end of the run."""
        series = self.stats.timeseries("cold_fraction")
        return series.last().value if len(series) else 0.0

    @property
    def truncated_seconds(self) -> float:
        """Configured duration that was never simulated.

        Non-zero when ``config.duration`` is not a whole number of epochs:
        the engine runs ``config.num_epochs`` whole epochs and the tail is
        dropped (with a :class:`~repro.errors.ConfigWarning` at config
        construction).  ``duration`` on this result is the *simulated*
        time, so ``duration + truncated_seconds == config.duration``.
        """
        return self.config.truncated_tail

    @property
    def throughput_degradation(self) -> float:
        """Fractional throughput loss vs the all-DRAM baseline."""
        slowdown = self.average_slowdown
        return slowdown / (1.0 + slowdown)

    @property
    def achieved_ops_per_second(self) -> float:
        """Throughput after slowdown (ops/sec)."""
        return self.baseline_ops_per_second / (1.0 + self.average_slowdown)

    # -- Table 3 ---------------------------------------------------------

    def migration_rate_mbps(self) -> float:
        """Average demotion traffic, MB/s."""
        return (
            self.state.migration.average_rate(MigrationReason.DEMOTION, self.duration)
            / MB
        )

    def correction_rate_mbps(self) -> float:
        """Average false-classification (promotion) traffic, MB/s."""
        return (
            self.state.migration.average_rate(
                MigrationReason.CORRECTION, self.duration
            )
            / MB
        )

    def peak_slow_traffic_mbps(self, window: float = 30.0) -> float:
        """Peak total traffic to/from slow memory over any window, MB/s.

        Uses the combined-stream peak: demotion and correction records are
        binned together before taking the maximum, so the value is the
        busiest single window.  (Summing the per-reason peaks — the old
        behavior — overestimates whenever the two streams peak in
        different windows.)
        """
        combined = self.state.migration.peak_total_rate(
            (MigrationReason.DEMOTION, MigrationReason.CORRECTION), window
        )
        return combined / MB

    # -- Figure accessors -------------------------------------------------

    def series(self, name: str):
        """Convenience accessor for a recorded time series."""
        return self.stats.timeseries(name)

    def summary(self) -> dict[str, float]:
        """Headline numbers as a flat dict (used by reports)."""
        return {
            "average_slowdown": self.average_slowdown,
            "average_cold_fraction": self.average_cold_fraction,
            "final_cold_fraction": self.final_cold_fraction,
            "throughput_degradation": self.throughput_degradation,
            "migration_rate_mbps": self.migration_rate_mbps(),
            "correction_rate_mbps": self.correction_rate_mbps(),
        }

    def fault_summary(self) -> dict[str, float]:
        """Aggregate fault-injection outcomes for the run.

        All values are 0.0 when fault injection is disabled.  With a fixed
        seed and faults enabled, repeated runs return identical dicts (the
        injector draws from dedicated child RNG streams).
        """
        epochs = self.stats.counter("epochs").value
        degraded = self.stats.counter("fault_degraded_epochs").value
        return {
            "degraded_epochs": degraded,
            "degraded_fraction": degraded / epochs if epochs else 0.0,
            "capacity_lock_epochs": self.stats.counter(
                "fault_capacity_lock_epochs"
            ).value,
            "migration_failures": self.stats.counter(
                "fault_migration_failures"
            ).value,
            "migration_retries": self.stats.counter("fault_migration_retries").value,
            "retry_exhausted_batches": self.stats.counter(
                "fault_retry_exhausted"
            ).value,
            "retry_overhead_seconds": self.stats.counter(
                "fault_retry_overhead_seconds"
            ).value,
            "deferred_demotions": self.stats.counter("fault_deferred_pages").value,
            "uncorrectable_errors": self.stats.counter("fault_ue_total").value,
            "lost_sample_pages": self.stats.counter("fault_lost_sample_pages").value,
            "fault_overhead_seconds": self.stats.counter(
                "fault_overhead_seconds_total"
            ).value,
        }


class EpochSimulation:
    """Drives one workload under one placement policy."""

    def __init__(
        self,
        workload: Workload,
        policy: PlacementPolicy,
        config: SimulationConfig | None = None,
        topology: NumaTopology | None = None,
        audit: bool = False,
        observer=None,
    ) -> None:
        self.workload = workload
        self.policy = policy
        self.config = config or SimulationConfig()
        self.audit = audit
        #: Observability sink (:mod:`repro.obs`).  The default no-op sink
        #: costs one attribute read per instrumentation site; a live
        #: observer records decisions without perturbing the run (observed
        #: runs are bit-identical to plain runs).
        self.observer = observer if observer is not None else NULL_OBSERVER
        if topology is None:
            # Provision both tiers generously relative to the footprint so
            # capacity never interferes with placement decisions (as in the
            # paper's 512GB host).
            headroom = max(4 * workload.footprint_bytes, 1 * GB)
            topology = NumaTopology(
                fast=_fast_spec(headroom), slow=_slow_spec(headroom)
            )
        self.topology = topology
        self.clock = VirtualClock()
        self.stats = StatsRegistry()
        self.state = TieredMemoryState(
            workload.num_huge_pages_at(0.0), topology, self.clock, self.stats
        )
        #: Epoch-boundary self-checks; built lazily in :meth:`start` so the
        #: auditor's baselines see the state exactly as the run starts.
        self.auditor: InvariantAuditor | None = None
        #: Test hook: called as ``hook(self, epoch_index)`` after each
        #: epoch is recorded, *before* the invariant audit — the way tests
        #: deliberately corrupt an engine step to prove the auditor
        #: catches it.  Never set outside tests.
        self.debug_epoch_hook = None
        #: Optional ground-truth transform ``filter(profile, epoch_index)
        #: -> profile`` applied to each epoch's access profile before the
        #: stall charge.  The fleet layer uses it for interference
        #: (noisy-neighbor bursts) and load throttling; the filter must
        #: preserve the profile's page count and must not consume RNG.
        self.profile_filter = None
        # Steppable-run state, populated by :meth:`start`.
        self._started = False
        self._epoch_index = 0
        self._workload_rng = None
        self._policy_rng = None
        self._injector: FaultInjector | None = None
        self._wear: WearTracker | None = None

    # -- steppable interface ---------------------------------------------
    #
    # run() == start() + num_epochs x step() + finish(), and the split is
    # exact: the fleet simulation drives many engines in lockstep through
    # step() while a plain run() stays bit-identical to the historical
    # monolithic loop (same RNG streams consumed in the same order).

    def start(self, injector: FaultInjector | None = None) -> None:
        """Prepare RNG streams, fault injection, and auditing for stepping.

        ``injector`` overrides the config-built fault injector (the fleet
        layer passes one whose model rates its chaos schedule modulates
        over time); when provided, the caller owns its RNG streams.
        """
        if self._started:
            raise SimulationError("simulation already started")
        obs = self.observer
        # Decision sites downstream share the engine's sink: the policy
        # traces sampling/classification, the migration engine meters
        # traffic.  With the null sink these assignments are the only
        # observability work the whole run performs.
        self.policy.observer = obs
        self.state.migration.observer = obs
        rng = make_rng(self.config.seed)
        self._workload_rng = child_rng(rng, f"workload:{self.workload.name}")
        self._policy_rng = child_rng(rng, f"policy:{self.policy.name}")
        # Fault injection (off by default): the injector and its wear
        # tracker draw from dedicated child streams, so enabling them does
        # not perturb the workload or policy randomness.
        self._injector = injector
        self._wear = None
        if self._injector is None and self.config.faults.enabled:
            self._injector = FaultInjector.from_config(
                self.config.faults, child_rng(rng, "faults")
            )
        if self._injector is not None:
            self.state.migration.injector = self._injector
            if self._injector.wear is not None:
                self._wear = WearTracker(max(self.state.num_huge_pages, 1))
        if self.audit:
            self.auditor = InvariantAuditor(self.state, self.clock, self.stats)
        self._epoch_index = 0
        self._started = True

    def step(self, profile=None) -> None:
        """Simulate one epoch (grow, charge stalls, policy, record, audit).

        ``profile`` (an :class:`~repro.sim.profile.EpochProfile`) overrides
        the workload's generated profile with externally ingested access
        counts — the online placement service (:mod:`repro.service`) feeds
        streamed access snapshots through this parameter, reusing the
        whole stall-charge/policy/record pipeline without consuming the
        workload RNG stream.  The external profile must cover at least the
        state's current footprint; the state grows to match a larger one.
        """
        if not self._started:
            raise SimulationError("call start() before step()")
        obs = self.observer
        epoch = self.config.epoch
        epoch_index = self._epoch_index
        injector = self._injector
        wear = self._wear
        slow_latency = self.topology.latency(SLOW_NODE)
        start = self.clock.now
        with obs.phase("profile"):
            if profile is not None:
                needed = profile.num_huge_pages
            else:
                needed = self.workload.num_huge_pages_at(start)
            if needed < self.state.num_huge_pages:
                source = (
                    "ingested profile" if profile is not None
                    else f"workload {self.workload.name!r}"
                )
                raise SimulationError(
                    f"{source} shrank its footprint "
                    f"from {self.state.num_huge_pages} to {needed} huge pages "
                    f"at t={start:g}s; the engine only supports growth — "
                    "model released memory as idle pages instead"
                )
            if needed > self.state.num_huge_pages:
                self.state.grow(needed)
                if wear is not None:
                    wear.grow(needed)
            if profile is None:
                # One draw per 2MB page; 4KB rows only for the pages split
                # for monitoring, the only subpage detail the policy reads.
                profile = self.workload.epoch_profile(
                    start,
                    epoch,
                    self._workload_rng,
                    stochastic=self.config.stochastic,
                    resolve=np.flatnonzero(self.state.split),
                )
            if profile.num_huge_pages != self.state.num_huge_pages:
                raise SimulationError(
                    f"workload produced {profile.num_huge_pages} huge pages "
                    f"but state tracks {self.state.num_huge_pages}"
                )
            if self.profile_filter is not None:
                profile = self.profile_filter(profile, epoch_index)
                if profile.num_huge_pages != self.state.num_huge_pages:
                    raise SimulationError(
                        "profile_filter changed the profile's page count "
                        f"to {profile.num_huge_pages} (state tracks "
                        f"{self.state.num_huge_pages})"
                    )

        # 2. Charge this epoch's slow-memory stalls against the current
        # placement (ground truth — observation faults never change it).
        with obs.phase("charge"):
            huge_counts = profile.huge_counts()
            slow_mask = self.state.slow_mask()
            slow_accesses = float(huge_counts[slow_mask].sum())
            slow_rate = slow_accesses / epoch

        # 2b. Schedule this epoch's faults and apply their immediate
        # consequences: capacity lock, overhead spike, wear-induced
        # uncorrectable errors (pages rescued through the correction
        # path), and degraded monitoring for the policy's view.
        fault_overhead = 0.0
        ue_pages = lost_pages = 0
        observed_profile = profile
        retry_overhead_before = retries_before = 0.0
        events = None
        if injector is not None:
            with obs.phase("faults"):
                events = injector.begin_epoch()
                self.state.demotion_locked = events.capacity_locked
                fault_overhead += events.overhead_spike_seconds
                observed_profile, lost = injector.observe_profile(profile)
                lost_pages = int(lost.size)
                if wear is not None:
                    slow_ids = np.flatnonzero(slow_mask)
                    epoch_writes = huge_counts[slow_ids] * profile.write_fraction
                    wear.writes[slow_ids] += np.rint(epoch_writes).astype(np.int64)
                    struck = injector.sample_ue_pages(wear.writes, slow_ids)
                    if struck.size:
                        # Machine-check recovery: copy each page off the
                        # failing region (correction traffic) and remap
                        # the worn cells to spares (wear counter resets).
                        self.state.promote(struck)
                        wear.writes[struck] = 0
                        fault_overhead += (
                            struck.size * self.config.faults.ue_repair_seconds
                        )
                        ue_pages = int(struck.size)
                retry_overhead_before = self.stats.counter(
                    "fault_retry_overhead_seconds"
                ).value
                retries_before = self.stats.counter(
                    "fault_migration_retries"
                ).value

        # 3. Let the policy observe and reshuffle.
        report = self.policy.on_epoch(self.state, observed_profile, self._policy_rng)

        stall_time = slow_accesses * slow_latency + report.overhead_seconds
        retry_overhead = retries_this_epoch = 0.0
        if injector is not None:
            retry_overhead = (
                self.stats.counter("fault_retry_overhead_seconds").value
                - retry_overhead_before
            )
            retries_this_epoch = (
                self.stats.counter("fault_migration_retries").value
                - retries_before
            )
            fault_overhead += retry_overhead
            stall_time += fault_overhead
        slowdown = stall_time / epoch

        # 4. Record.
        with obs.phase("bookkeeping"):
            now = self.clock.advance(epoch)
            breakdown = self.state.footprint_breakdown()
            cold_bytes = breakdown["cold_2mb_bytes"] + breakdown["cold_4kb_bytes"]
            total_bytes = self.state.num_huge_pages * HUGE_PAGE_SIZE
            # Same value as state.cold_fraction() (both numerator and
            # denominator scale by the 2MB page size, a power of two), but
            # reuses the breakdown pass instead of re-scanning the masks.
            cold_fraction = cold_bytes / total_bytes if total_bytes else 0.0
            self.stats.record_epoch(
                now,
                {
                    "slow_access_rate": slow_rate,
                    "slowdown": slowdown,
                    "overhead_seconds": report.overhead_seconds,
                    "cold_fraction": cold_fraction,
                    **breakdown,
                    "throughput_ops": self.workload.baseline_ops_per_second
                    / (1.0 + slowdown),
                },
            )
            self.stats.counter("total_slow_accesses").add(slow_accesses)
            self.stats.counter("epochs").add(1)
            if injector is not None:
                self._record_fault_epoch(
                    now,
                    events,
                    fault_overhead,
                    retry_overhead,
                    retries_this_epoch,
                    ue_pages,
                    lost_pages,
                )

        if obs.active:
            self._observe_epoch(
                obs,
                start,
                epoch,
                slow_rate,
                slow_accesses,
                slowdown,
                cold_fraction,
                report,
                events,
                ue_pages,
                lost_pages,
            )

        # 5. Audit the epoch boundary (off by default; --audit and
        # supervised retries turn it on).  Purely observational, so
        # audited runs stay bit-identical to unaudited ones.
        if self.debug_epoch_hook is not None:
            self.debug_epoch_hook(self, epoch_index)
        if self.auditor is not None:
            with obs.phase("audit"):
                self.auditor.check_epoch()
        self._epoch_index += 1

    def finish(self) -> SimulationResult:
        """Package everything recorded so far into a result."""
        if not self._started:
            raise SimulationError("call start() before finish()")
        extras: dict = {}
        tail = self.config.truncated_tail
        if tail > 1e-6 * self.config.epoch:
            extras["truncated_tail_seconds"] = tail
        return SimulationResult(
            workload_name=self.workload.name,
            policy_name=self.policy.name,
            config=self.config,
            stats=self.stats,
            state=self.state,
            duration=self.clock.now,
            baseline_ops_per_second=self.workload.baseline_ops_per_second,
            extras=extras,
        )

    @property
    def epochs_run(self) -> int:
        """Completed :meth:`step` calls."""
        return self._epoch_index

    def run(self) -> SimulationResult:
        """Execute the configured number of epochs and return the result."""
        self.start()
        for _ in range(self.config.num_epochs):
            self.step()
        return self.finish()

    def _observe_epoch(
        self,
        obs,
        start: float,
        epoch: float,
        slow_rate: float,
        slow_accesses: float,
        slowdown: float,
        cold_fraction: float,
        report,
        events,
        ue_pages: int,
        lost_pages: int,
    ) -> None:
        """Emit one epoch's trace span and metrics (live observer only).

        Strictly observational — reads values the epoch already computed,
        consumes no RNG, and never touches simulation state.
        """
        obs.emit(
            "engine",
            "epoch",
            start,
            duration=epoch,
            slow_rate=slow_rate,
            slowdown=slowdown,
            cold_fraction=cold_fraction,
            overhead_seconds=report.overhead_seconds,
            demoted=report.demoted,
            promoted=report.promoted,
            deferred=report.deferred,
        )
        if events is not None and (
            events.count or events.capacity_locked or ue_pages or lost_pages
        ):
            obs.emit(
                "fault",
                "epoch_faults",
                start,
                capacity_locked=bool(events.capacity_locked),
                overhead_spike_seconds=events.overhead_spike_seconds,
                ue_pages=ue_pages,
                lost_sample_pages=lost_pages,
            )
        obs.inc("repro_engine_epochs_total")
        obs.inc("repro_engine_slow_accesses_total", slow_accesses)
        obs.observe("repro_engine_slow_access_rate", slow_rate, RATE_BUCKETS)
        obs.observe("repro_engine_epoch_slowdown", slowdown, FRACTION_BUCKETS)
        obs.observe(
            "repro_engine_epoch_overhead_seconds",
            report.overhead_seconds,
            SECONDS_BUCKETS,
        )
        obs.set_gauge("repro_engine_cold_fraction", cold_fraction)
        self.topology.fast.tier.record_metrics(obs)
        self.topology.slow.tier.record_metrics(obs)

    def _record_fault_epoch(
        self,
        now: float,
        events,
        fault_overhead: float,
        retry_overhead: float,
        retries: float,
        ue_pages: int,
        lost_pages: int,
    ) -> None:
        """Record the ``fault_*`` series and counters for one epoch.

        Only called with fault injection enabled, so runs with the default
        configuration carry no fault series and stay bit-identical to
        builds that predate the fault layer.
        """
        deferred = int(self.state.last_deferred_demotions.size)
        degraded = bool(
            events.count
            or ue_pages
            or lost_pages
            or deferred
            or retries > 0
        )
        ts = self.stats.timeseries
        ts("fault_degraded").record(now, float(degraded))
        ts("fault_overhead_seconds").record(now, fault_overhead)
        ts("fault_retry_overhead_seconds").record(now, retry_overhead)
        ts("fault_migration_retries").record(now, retries)
        ts("fault_deferred_demotions").record(now, float(deferred))
        ts("fault_ue_count").record(now, float(ue_pages))
        ts("fault_lost_sample_pages").record(now, float(lost_pages))
        ts("fault_capacity_locked").record(now, float(events.capacity_locked))
        if degraded:
            self.stats.counter("fault_degraded_epochs").add(1)
        if events.capacity_locked:
            self.stats.counter("fault_capacity_lock_epochs").add(1)
        if ue_pages:
            self.stats.counter("fault_ue_total").add(ue_pages)
        if lost_pages:
            self.stats.counter("fault_lost_sample_pages").add(lost_pages)
        self.stats.counter("fault_overhead_seconds_total").add(fault_overhead)


def _fast_spec(capacity: int):
    from repro.mem.tiers import TierSpec

    return TierSpec.dram(capacity)


def _slow_spec(capacity: int):
    from repro.mem.tiers import TierSpec

    return TierSpec.slow(capacity)


def run_simulation(
    workload: Workload,
    policy: PlacementPolicy,
    config: SimulationConfig | None = None,
    topology: NumaTopology | None = None,
    audit: bool = False,
    observer=None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`EpochSimulation`."""
    return EpochSimulation(
        workload, policy, config, topology, audit=audit, observer=observer
    ).run()
