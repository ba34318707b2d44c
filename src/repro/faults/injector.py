"""Deterministic, seeded fault injection for the epoch engine.

The :class:`FaultInjector` composes the pluggable models of
:mod:`repro.faults.models`, binding each to its own named child stream of
the simulation RNG (via :func:`repro.rng.child_rng`).  Two consequences:

* runs are reproducible — the same seed yields the same fault schedule,
  byte for byte, including :meth:`repro.sim.engine.SimulationResult.fault_summary`;
* models are decorrelated — turning the wear model on does not shift the
  epochs at which capacity exhaustion strikes.

The injector decides *what goes wrong*; the degradation responses (retry
with backoff, deferred demotions, page rescue) live with the components
they protect, so the default no-injector path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import FaultConfig
from repro.faults.models import (
    CapacityFaultModel,
    MigrationFaultModel,
    OverheadSpikeModel,
    SampleLossModel,
    WearFaultModel,
)
from repro.rng import child_rng
from repro.sim.profile import EpochProfile


@dataclass(frozen=True)
class EpochFaultEvents:
    """What the injector scheduled for one epoch."""

    #: The slow tier refuses new demotions this epoch.
    capacity_locked: bool = False
    #: Extra monitoring overhead from an injected spike, seconds.
    overhead_spike_seconds: float = 0.0

    @property
    def count(self) -> int:
        """Number of distinct fault events scheduled."""
        return int(self.capacity_locked) + int(self.overhead_spike_seconds > 0)


class FaultInjector:
    """Composes the fault models behind one per-run facade."""

    def __init__(
        self,
        config: FaultConfig,
        rng: np.random.Generator,
        migration: MigrationFaultModel | None = None,
        capacity: CapacityFaultModel | None = None,
        wear: WearFaultModel | None = None,
        overhead: OverheadSpikeModel | None = None,
        samples: SampleLossModel | None = None,
    ) -> None:
        self.config = config
        self.migration = migration
        self.capacity = capacity
        self.wear = wear
        self.overhead = overhead
        self.samples = samples
        for model in (migration, capacity, wear, overhead, samples):
            if model is not None:
                model.bind(child_rng(rng, f"faults:{model.name}"))

    @classmethod
    def from_config(
        cls, config: FaultConfig, rng: np.random.Generator
    ) -> "FaultInjector":
        """Build an injector with exactly the models the config activates."""
        migration = (
            MigrationFaultModel(config.migration_failure_rate)
            if config.migration_failure_rate > 0
            else None
        )
        capacity = (
            CapacityFaultModel(
                config.capacity_exhaustion_rate, config.capacity_exhaustion_epochs
            )
            if config.capacity_exhaustion_rate > 0
            else None
        )
        wear = (
            WearFaultModel(config.ue_endurance_writes, config.ue_probability)
            if config.ue_endurance_writes > 0
            else None
        )
        overhead = (
            OverheadSpikeModel(
                config.overhead_spike_rate, config.overhead_spike_seconds
            )
            if config.overhead_spike_rate > 0
            else None
        )
        samples = (
            SampleLossModel(config.sample_loss_rate)
            if config.sample_loss_rate > 0
            else None
        )
        return cls(
            config,
            rng,
            migration=migration,
            capacity=capacity,
            wear=wear,
            overhead=overhead,
            samples=samples,
        )

    # ------------------------------------------------------------------
    # Per-epoch schedule
    # ------------------------------------------------------------------

    def begin_epoch(self) -> EpochFaultEvents:
        """Draw this epoch's scheduled events (capacity locks, spikes)."""
        locked = (
            self.capacity.locked_this_epoch() if self.capacity is not None else False
        )
        spike = (
            self.overhead.spike_this_epoch() if self.overhead is not None else 0.0
        )
        return EpochFaultEvents(
            capacity_locked=locked, overhead_spike_seconds=spike
        )

    # ------------------------------------------------------------------
    # Hooks called by the components
    # ------------------------------------------------------------------

    def should_fail_migration(self) -> bool:
        """One migration batch attempt: does it transiently fail?"""
        return self.migration is not None and self.migration.should_fail()

    def observe_profile(
        self, profile: EpochProfile
    ) -> tuple[EpochProfile, np.ndarray]:
        """The profile as the monitoring pipeline observed it.

        Lost access-bit samples zero out whole huge pages in the *policy's*
        view; the engine charges slow-memory stalls from the true profile,
        so ground truth is unaffected.  Returns the (possibly degraded)
        profile and the lost huge-page ids.
        """
        if self.samples is None:
            return profile, np.empty(0, dtype=np.int64)
        lost = self.samples.lost_pages(profile.num_huge_pages)
        if lost.size == 0:
            return profile, lost
        return profile.without_pages(lost), lost

    def sample_ue_pages(
        self, write_counts: np.ndarray, slow_ids: np.ndarray
    ) -> np.ndarray:
        """Slow pages struck by an uncorrectable error this epoch."""
        if self.wear is None:
            return np.empty(0, dtype=np.int64)
        return self.wear.sample_ue_pages(write_counts, slow_ids)
