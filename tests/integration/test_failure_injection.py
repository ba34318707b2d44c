"""Failure injection: the engine fails loudly, not silently.

Simulators that absorb inconsistent state produce plausible-looking wrong
figures; these tests pin down that every contract violation surfaces as a
typed error.
"""

import numpy as np
import pytest

from repro.baselines import AllDramPolicy
from repro.config import SimulationConfig
from repro.errors import (
    CapacityError,
    MigrationError,
    SimulationError,
    WorkloadError,
)
from repro.mem.numa import NumaTopology
from repro.mem.tiers import TierSpec
from repro.sim.engine import EpochSimulation, run_simulation
from repro.sim.policy import PlacementPolicy, PolicyReport
from repro.units import MB, SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import RateModelWorkload


def small_workload(num_huge=4):
    rates = np.full(num_huge * SUBPAGES_PER_HUGE_PAGE, 1.0)
    return RateModelWorkload("small", rates)


class LyingWorkload(RateModelWorkload):
    """Reports one footprint but emits profiles for another."""

    def epoch_profile(self, start_time, duration, rng, stochastic=True, resolve=None):
        profile = super().epoch_profile(start_time, duration, rng, stochastic)
        from repro.sim.profile import EpochProfile

        return EpochProfile(
            start_time=profile.start_time,
            duration=profile.duration,
            counts=profile.counts[:SUBPAGES_PER_HUGE_PAGE],  # wrong length
        )


class RoguePolicy(PlacementPolicy):
    """Demotes page ids that do not exist."""

    name = "rogue"

    def on_epoch(self, state, profile, rng):
        state.demote(np.array([state.num_huge_pages + 5]))
        return PolicyReport()


class TestEngineContracts:
    def test_profile_length_mismatch_detected(self):
        workload = LyingWorkload("liar", np.full(4 * 512, 1.0))
        with pytest.raises(SimulationError):
            run_simulation(
                workload,
                AllDramPolicy(),
                SimulationConfig(duration=60, epoch=30, seed=0),
            )

    def test_rogue_policy_rejected(self):
        with pytest.raises(MigrationError):
            run_simulation(
                small_workload(),
                RoguePolicy(),
                SimulationConfig(duration=60, epoch=30, seed=0),
            )

    def test_undersized_fast_tier_rejected_up_front(self):
        """A topology that cannot hold the footprint fails at setup, not
        epoch 37."""
        topology = NumaTopology(
            fast=TierSpec.dram(2 * MB),  # one huge page of capacity
            slow=TierSpec.slow(1024 * MB),
        )
        with pytest.raises(CapacityError):
            EpochSimulation(
                small_workload(num_huge=4),
                AllDramPolicy(),
                SimulationConfig(duration=60, epoch=30, seed=0),
                topology=topology,
            )

    def test_undersized_slow_tier_defers_demotions(self):
        """Capacity backpressure degrades gracefully: overflow demotions
        are deferred, not raised (the tier itself still enforces its
        capacity)."""
        from repro.baselines import StaticFractionPolicy
        from repro.units import HUGE_PAGE_SIZE

        topology = NumaTopology(
            fast=TierSpec.dram(64 * MB),
            slow=TierSpec.slow(2 * MB),  # room for one huge page only
        )
        sim = EpochSimulation(
            small_workload(num_huge=8),
            StaticFractionPolicy(0.5),  # wants to demote 4 pages
            SimulationConfig(duration=60, epoch=30, seed=0),
            topology=topology,
        )
        result = sim.run()  # completes instead of crashing mid-run
        assert topology.slow.tier.allocated_bytes == HUGE_PAGE_SIZE
        assert result.state.slow_ids().size == 1
        assert result.state.last_deferred_demotions.size == 3
        assert result.stats.counter("fault_deferred_pages").value == 3

    def test_negative_rates_rejected_at_construction(self):
        with pytest.raises(WorkloadError):
            RateModelWorkload("bad", np.array([1.0, -2.0]))
