"""Figure 4: the worked Thermostat example, run on the real mechanism.

The paper illustrates the split/poison/classify pipeline on a toy address
space of eight huge pages over two sampling periods.  We run exactly that
scenario through the mechanism-level driver
(:class:`~repro.core.mechanism.MechanismThermostat`): a real page table,
real PTE poisoning, real BadgerTrap fault counting — and report what each
scan did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ThermostatConfig
from repro.core.mechanism import MechanismThermostat, ScanReport
from repro.kernel.mmu import AddressSpace
from repro.metrics.report import format_table
from repro.units import HUGE_PAGE_SIZE

#: The example's address space: eight huge pages, two of them sampled per
#: period (the paper's illustration samples 25%).
NUM_HUGE_PAGES = 8
SAMPLE_FRACTION = 0.25


@dataclass
class ExampleResult:
    """Trace of the worked example."""

    reports: list[ScanReport] = field(default_factory=list)
    cold_pages: set[int] = field(default_factory=set)
    hot_page_ids: tuple[int, ...] = ()
    total_poison_faults: int = 0


def run(
    periods: int = 6,
    seed: int = 42,
    hot_pages: tuple[int, ...] = (0, 2, 5),
    accesses_per_period: int = 3000,
) -> ExampleResult:
    """Drive the eight-page example for several sampling periods.

    ``hot_pages`` receive almost all traffic; the rest are cold.  The
    slowdown budget is set so the hot pages' access rates exceed it —
    with the default 1us/3% budget such a tiny toy would be entirely
    demotable, which would make a boring example.
    """
    rng = np.random.default_rng(seed)
    space = AddressSpace(use_llc=False)
    space.mmap(0, NUM_HUGE_PAGES * HUGE_PAGE_SIZE, name="example-heap")
    config = ThermostatConfig(
        sample_fraction=SAMPLE_FRACTION,
        slow_memory_latency=1e-3,  # budget = 30 accesses/sec
        max_poisoned_subpages=50,
    )
    thermostat = MechanismThermostat(space, config, rng, scan_interval=1.0)

    result = ExampleResult(hot_page_ids=hot_pages)
    cold_pages = [p for p in range(NUM_HUGE_PAGES) if p not in hot_pages]
    for _ in range(periods):
        for _ in range(accesses_per_period):
            page = int(rng.choice(np.asarray(hot_pages)))
            offset = int(rng.integers(0, HUGE_PAGE_SIZE))
            space.access(page * HUGE_PAGE_SIZE + offset)
        for _ in range(10):
            page = int(rng.choice(np.asarray(cold_pages)))
            offset = int(rng.integers(0, HUGE_PAGE_SIZE))
            space.access(page * HUGE_PAGE_SIZE + offset)
        result.reports.append(thermostat.advance_scan())
    result.cold_pages = {int(p) for p in thermostat.cold_pages}
    result.total_poison_faults = thermostat.badgertrap.total_faults
    return result


def render(result: ExampleResult) -> str:
    """Per-period trace matching the figure's narrative."""
    rows = []
    for i, report in enumerate(result.reports, start=1):
        rows.append(
            (
                i,
                ",".join(str(p) for p in report.sampled) or "-",
                report.poisoned_subpages,
                ",".join(str(p) for p in report.classified_cold) or "-",
                ",".join(str(p) for p in report.classified_hot) or "-",
                ",".join(str(p) for p in report.promoted) or "-",
            )
        )
    table = format_table(
        "Figure 4: worked example (8 huge pages, 25% sampled/period)",
        ["period", "split", "poisoned 4K", "-> cold", "-> hot", "corrected"],
        rows,
    )
    footer = (
        f"\nfinal cold set: {sorted(result.cold_pages)} "
        f"(ground-truth hot pages: {sorted(result.hot_page_ids)}; "
        f"poison faults serviced: {result.total_poison_faults})"
    )
    return table + footer


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
