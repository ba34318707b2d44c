"""Tests for the poison-budget bookkeeping."""

import pytest

from repro.core.poison import PoisonBudget
from repro.errors import ConfigError, SimulationError


class TestBudget:
    def test_paper_sampling_bound(self):
        """5% x 50/512 ~ 0.49% of memory (Section 3.2)."""
        assert PoisonBudget.paper_sampling_bound() == pytest.approx(
            0.00488, abs=1e-4
        )

    def test_acquire_release_base(self):
        budget = PoisonBudget(total_base_pages=10_000, ceiling=0.01)
        budget.acquire_base(50)
        assert budget.fraction() == pytest.approx(0.005)
        budget.release_base(50)
        assert budget.fraction() == 0.0

    def test_ceiling_enforced(self):
        budget = PoisonBudget(total_base_pages=1000, ceiling=0.01)
        budget.acquire_base(10)
        with pytest.raises(SimulationError):
            budget.acquire_base(1)

    def test_over_release_rejected(self):
        budget = PoisonBudget(1000)
        with pytest.raises(SimulationError):
            budget.release_base(1)

    def test_huge_monitors_tracked_separately(self):
        budget = PoisonBudget(total_base_pages=512 * 100, ceiling=0.01)
        budget.acquire_huge(40)
        # Cold monitors do not count against the sampling ceiling...
        assert budget.fraction() == 0.0
        # ...but are visible when asked for.
        assert budget.fraction(include_cold_monitors=True) == pytest.approx(0.4)
        budget.release_huge(40)
        with pytest.raises(SimulationError):
            budget.release_huge(1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PoisonBudget(0)
        with pytest.raises(ConfigError):
            PoisonBudget(100, ceiling=0.0)
        budget = PoisonBudget(100)
        with pytest.raises(ConfigError):
            budget.acquire_base(-1)
        with pytest.raises(ConfigError):
            budget.release_huge(-1)


class TestMechanismIntegration:
    def test_mechanism_driver_stays_under_budget(self):
        """The Figure 4 pipeline never poisons more than the ceiling."""
        import numpy as np

        from repro.config import ThermostatConfig
        from repro.core.mechanism import MechanismThermostat
        from repro.kernel.mmu import AddressSpace
        from repro.units import HUGE_PAGE_SIZE

        rng = np.random.default_rng(0)
        space = AddressSpace(use_llc=False)
        space.mmap(0, 16 * HUGE_PAGE_SIZE)
        thermostat = MechanismThermostat(
            space,
            ThermostatConfig(sample_fraction=0.25, slow_memory_latency=1e-3),
            rng,
            scan_interval=1.0,
        )
        for _ in range(8):
            for _ in range(500):
                page = int(rng.integers(0, 4))
                space.access(page * HUGE_PAGE_SIZE + int(rng.integers(0, HUGE_PAGE_SIZE)))
            thermostat.advance_scan()
            assert thermostat.poison_budget is not None
            budget = thermostat.poison_budget
            assert budget.fraction() <= budget.ceiling
