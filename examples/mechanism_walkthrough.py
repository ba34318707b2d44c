#!/usr/bin/env python
"""Mechanism walkthrough: the Figure 4 pipeline on a real MMU model.

Narrates Thermostat's split/poison/classify protocol at the level the
kernel implements it: an 8-huge-page address space with a radix page
table, TLBs, PTE Accessed/poison bits, BadgerTrap fault counting, and
NUMA migration.  Three of the eight pages are hot; watch the pipeline
find the other five without ever touching the hot ones.

Run:
    python examples/mechanism_walkthrough.py
"""

import numpy as np

from repro.config import ThermostatConfig
from repro.core.mechanism import MechanismThermostat
from repro.kernel.mmu import AddressSpace
from repro.mem.numa import SLOW_NODE
from repro.units import HUGE_PAGE_SIZE, format_bytes

HOT_PAGES = (0, 2, 5)
NUM_PAGES = 8


def run_interval(space, rng, accesses=2500):
    """One scan interval's worth of application traffic."""
    cold_pages = [p for p in range(NUM_PAGES) if p not in HOT_PAGES]
    for _ in range(accesses):
        page = int(rng.choice(np.asarray(HOT_PAGES)))
        space.access(page * HUGE_PAGE_SIZE + int(rng.integers(0, HUGE_PAGE_SIZE)))
    for _ in range(12):
        page = int(rng.choice(np.asarray(cold_pages)))
        space.access(page * HUGE_PAGE_SIZE + int(rng.integers(0, HUGE_PAGE_SIZE)))


def main() -> None:
    rng = np.random.default_rng(42)
    space = AddressSpace(use_llc=False)
    space.mmap(0, NUM_PAGES * HUGE_PAGE_SIZE, name="app-heap")
    print(f"mapped {format_bytes(space.resident_bytes())} as "
          f"{len(space.huge_pages())} huge pages; hot pages: {list(HOT_PAGES)}")

    config = ThermostatConfig(
        sample_fraction=0.25,
        slow_memory_latency=1e-3,  # budget: 30 accesses/sec
    )
    thermostat = MechanismThermostat(space, config, rng, scan_interval=1.0)
    print(f"slowdown budget: {config.slow_access_rate_budget:.0f} slow acc/s\n")

    for period in range(1, 9):
        run_interval(space, rng)
        report = thermostat.advance_scan()
        parts = [f"period {period}:"]
        if report.sampled:
            parts.append(f"split {report.sampled}")
        if report.poisoned_subpages:
            parts.append(f"poisoned {report.poisoned_subpages} x 4KB")
        if report.estimated_rates:
            rates = ", ".join(
                f"{page}:{rate:.0f}/s" for page, rate in sorted(report.estimated_rates.items())
            )
            parts.append(f"estimated [{rates}]")
        if report.classified_cold:
            parts.append(f"-> cold {report.classified_cold}")
        if report.classified_hot:
            parts.append(f"-> hot {report.classified_hot}")
        if report.promoted:
            parts.append(f"corrected {report.promoted}")
        print(" ".join(str(p) for p in parts))

    print()
    cold = sorted(thermostat.cold_pages)
    print(f"final cold set: {cold}")
    print(f"slow-node residency: "
          f"{format_bytes(space.resident_bytes(node=SLOW_NODE))}")
    print(f"BadgerTrap faults serviced: {thermostat.badgertrap.total_faults}")
    misclassified = [p for p in cold if p in HOT_PAGES]
    print(f"hot pages wrongly demoted: {misclassified or 'none'}")


if __name__ == "__main__":
    main()
