"""Cross-validation: the mechanism engine and the epoch engine agree.

The two execution models implement the same policy at different levels of
abstraction.  On a workload small enough for the mechanism engine, both
must classify the same pages cold — that agreement is what justifies
running the large-scale experiments on the vectorized engine.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig, ThermostatConfig
from repro.core.mechanism import MechanismThermostat
from repro.core.thermostat import ThermostatPolicy
from repro.kernel.mmu import AddressSpace
from repro.mem.numa import NumaTopology
from repro.sim.engine import run_simulation
from repro.units import HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import RateModelWorkload

NUM_PAGES = 16
HOT_PAGES = (0, 3, 7)
HOT_RATE = 1200.0  # accesses/sec per hot huge page
COLD_RATE = 1.0
#: Budget of 30 acc/s: cold band (13 pages ~ 13/s) fits, hot pages do not.
CONFIG_KW = dict(
    sample_fraction=0.25,
    slow_memory_latency=1e-3,
)


def per_page_rates() -> np.ndarray:
    rates = np.full(NUM_PAGES, COLD_RATE)
    rates[list(HOT_PAGES)] = HOT_RATE
    return rates


def run_epoch_engine() -> set[int]:
    rates = np.repeat(per_page_rates() / SUBPAGES_PER_HUGE_PAGE, SUBPAGES_PER_HUGE_PAGE)
    workload = RateModelWorkload("xval", rates)
    policy = ThermostatPolicy(ThermostatConfig(**CONFIG_KW))
    result = run_simulation(
        workload,
        policy,
        SimulationConfig(duration=40.0, epoch=1.0, seed=2),
    )
    return set(result.state.slow_ids().tolist())


def run_mechanism_engine() -> set[int]:
    rng = np.random.default_rng(2)
    space = AddressSpace(topology=NumaTopology.small(), use_llc=False)
    space.mmap(0, NUM_PAGES * HUGE_PAGE_SIZE)
    thermostat = MechanismThermostat(
        space, ThermostatConfig(**CONFIG_KW), rng, scan_interval=1.0
    )
    rates = per_page_rates()
    probabilities = rates / rates.sum()
    accesses_per_interval = int(rates.sum())
    for _ in range(40):
        pages = rng.choice(NUM_PAGES, size=accesses_per_interval, p=probabilities)
        offsets = rng.integers(0, HUGE_PAGE_SIZE, size=accesses_per_interval)
        for page, offset in zip(pages, offsets, strict=True):
            space.access(int(page) * HUGE_PAGE_SIZE + int(offset))
        thermostat.advance_scan()
    return {int(p) for p in thermostat.cold_pages}


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def epoch_cold(self):
        return run_epoch_engine()

    @pytest.fixture(scope="class")
    def mechanism_cold(self):
        return run_mechanism_engine()

    def test_both_exclude_hot_pages(self, epoch_cold, mechanism_cold):
        for cold in (epoch_cold, mechanism_cold):
            assert not cold.intersection(HOT_PAGES)

    def test_both_find_most_cold_pages(self, epoch_cold, mechanism_cold):
        cold_band = set(range(NUM_PAGES)) - set(HOT_PAGES)
        assert len(epoch_cold & cold_band) >= 0.6 * len(cold_band)
        assert len(mechanism_cold & cold_band) >= 0.6 * len(cold_band)

    def test_engines_agree(self, epoch_cold, mechanism_cold):
        """Jaccard similarity of the two engines' cold sets is high."""
        union = epoch_cold | mechanism_cold
        intersection = epoch_cold & mechanism_cold
        assert union, "at least one engine must demote something"
        assert len(intersection) / len(union) >= 0.6
