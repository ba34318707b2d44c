"""Mechanism-level Thermostat: the Figure 4 pipeline over a real MMU model.

Where :class:`~repro.core.thermostat.ThermostatPolicy` runs vectorized over
epoch profiles, this driver exercises the *actual mechanism* the paper
implemented, against :class:`~repro.kernel.mmu.AddressSpace`:

* scan 1 — split a random sample of huge pages (``split_huge_page``),
  clearing subpage Accessed bits;
* scan 2 — read the Accessed bits gathered since the split (TLB shootdown
  per subpage), poison at most 50 of the accessed subpages through
  BadgerTrap;
* scan 3 — drain fault counts, estimate each sampled page's access rate by
  spatial extrapolation, classify within the sampled share of the slowdown
  budget, migrate cold pages to the slow NUMA node, and hand the rest back
  to khugepaged for collapse.

Demoted pages get their (collapsed) 2MB PTE poisoned so every TLB miss to
them is counted — the Section 3.5 correction input.  The caller interleaves
``advance_scan()`` with application accesses (``AddressSpace.access``).

This driver is quadratic-ish in footprint and meant for validation, unit
tests, and the worked example — use the epoch engine for gigabyte-scale
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ThermostatConfig
from repro.core.classifier import select_cold_pages
from repro.core.correction import select_promotions
from repro.core.estimator import HugePageSample, estimate_huge_page_rates
from repro.core.poison import PoisonBudget
from repro.core.sampling import choose_poison_subpages
from repro.kernel.badgertrap import BadgerTrap
from repro.kernel.mmu import AddressSpace
from repro.kernel.thp import Khugepaged
from repro.mem.address import PageNumber
from repro.mem.numa import FAST_NODE, SLOW_NODE
from repro.units import SUBPAGES_PER_HUGE_PAGE, huge_to_base


@dataclass
class ScanReport:
    """What one scan-interval boundary did."""

    sampled: list[PageNumber] = field(default_factory=list)
    poisoned_subpages: int = 0
    classified_cold: list[PageNumber] = field(default_factory=list)
    classified_hot: list[PageNumber] = field(default_factory=list)
    promoted: list[PageNumber] = field(default_factory=list)
    estimated_rates: dict[PageNumber, float] = field(default_factory=dict)
    collapsed: int = 0


class MechanismThermostat:
    """Drives the split/poison/classify pipeline on an AddressSpace."""

    def __init__(
        self,
        address_space: AddressSpace,
        config: ThermostatConfig | None = None,
        rng: np.random.Generator | None = None,
        *,
        scan_interval: float,
    ) -> None:
        self.address_space = address_space
        self.config = config or ThermostatConfig()
        #: Seconds of application time between ``advance_scan`` calls.
        self.scan_interval = scan_interval
        self.rng = rng or np.random.default_rng(0)
        self.badgertrap = BadgerTrap(address_space)
        self.khugepaged = Khugepaged(address_space)
        #: Pages split in the latest scan, awaiting poisoning.
        self._split: list[PageNumber] = []
        #: Pages whose subpages are poisoned, awaiting classification:
        #: {huge_vpn: (accessed_subpage_count, [poisoned base vpns])}.
        self._poisoned: dict[PageNumber, tuple[int, list[PageNumber]]] = {}
        #: Cold pages currently monitored via 2MB-PTE poison.
        self._monitored_cold: set[PageNumber] = set()
        #: Enforces the Section 3.2 bound on poisoned memory (lazy: sized
        #: from the footprint at the first scan).
        self.poison_budget: PoisonBudget | None = None

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------

    def _stage_classify(self, report: ScanReport) -> None:
        """Scan 3 for the pages poisoned last interval."""
        if not self._poisoned:
            return
        samples = []
        for huge_vpn, (accessed_count, base_vpns) in self._poisoned.items():
            counts = np.array(
                [self.badgertrap.fault_count(vpn) for vpn in base_vpns], dtype=float
            )
            for vpn in base_vpns:
                self.badgertrap.unpoison(vpn)
            if self.poison_budget is not None:
                self.poison_budget.release_base(len(base_vpns))
            samples.append(
                HugePageSample(
                    page_id=huge_vpn,
                    accessed_subpages=accessed_count,
                    poisoned_counts=counts,
                )
            )
        rates = estimate_huge_page_rates(samples, self.scan_interval)
        report.estimated_rates = rates

        total_huge = self._total_huge_regions()
        sample_share = len(rates) / max(total_huge, 1)
        budget = sample_share * self.config.slow_access_rate_budget
        page_ids = np.array(sorted(rates), dtype=np.int64)
        estimated = np.array([rates[int(p)] for p in page_ids])
        classification = select_cold_pages(page_ids, estimated, budget)
        report.classified_cold = [int(p) for p in classification.cold_pages]
        report.classified_hot = [int(p) for p in classification.hot_pages]

        for huge_vpn in report.classified_cold + report.classified_hot:
            # Re-form the huge page first; migration then moves 2MB at once.
            self.address_space.collapse_huge(huge_vpn)
        report.collapsed = len(rates)
        for huge_vpn in report.classified_cold:
            if self.address_space.node_of(huge_vpn, huge=True) == FAST_NODE:
                self.address_space.migrate_page(huge_vpn, huge=True, target_node=SLOW_NODE)
            if huge_vpn not in self._monitored_cold:
                self.badgertrap.poison(huge_vpn, huge=True)
                self._monitored_cold.add(huge_vpn)
                if self.poison_budget is not None:
                    self.poison_budget.acquire_huge()
        self._poisoned.clear()

    def _stage_correct(self, report: ScanReport) -> None:
        """Section 3.5: read monitored cold-page counts, promote the hottest."""
        if not self.config.enable_correction or not self._monitored_cold:
            return
        cold_ids = np.array(sorted(self._monitored_cold), dtype=np.int64)
        counts = np.array(
            [self.badgertrap.fault_count(vpn, huge=True) for vpn in cold_ids],
            dtype=float,
        )
        # Reset the per-interval counters.
        self.badgertrap.drain_counts(reset=True)
        correction = select_promotions(
            cold_ids,
            counts,
            self.config.slow_access_rate_budget,
            self.scan_interval,
        )
        for huge_vpn in correction.promote:
            huge_vpn = int(huge_vpn)
            self.badgertrap.unpoison(huge_vpn, huge=True)
            self._monitored_cold.discard(huge_vpn)
            if self.poison_budget is not None:
                self.poison_budget.release_huge()
            self.address_space.migrate_page(huge_vpn, huge=True, target_node=FAST_NODE)
            report.promoted.append(huge_vpn)

    def _stage_poison(self, report: ScanReport) -> None:
        """Scan 2 for the pages split last interval."""
        for huge_vpn in self._split:
            first = huge_to_base(huge_vpn)
            accessed_mask = np.zeros(SUBPAGES_PER_HUGE_PAGE, dtype=bool)
            for offset in range(SUBPAGES_PER_HUGE_PAGE):
                entry = self.address_space.page_table.lookup_base(first + offset)
                if entry is not None and entry.accessed:
                    accessed_mask[offset] = True
            chosen = choose_poison_subpages(
                accessed_mask,
                self.config.max_poisoned_subpages,
                self.rng,
                use_prefilter=self.config.enable_accessed_prefilter,
            )
            base_vpns = [first + int(off) for off in chosen]
            if self.poison_budget is not None:
                self.poison_budget.acquire_base(len(base_vpns))
            for vpn in base_vpns:
                self.badgertrap.poison(vpn)
            self._poisoned[huge_vpn] = (int(accessed_mask.sum()), base_vpns)
            report.poisoned_subpages += len(base_vpns)
        self._split.clear()

    def _stage_split(self, report: ScanReport) -> None:
        """Scan 1: pick and split a fresh sample of huge pages."""
        candidates = [
            vpn
            for vpn in self.address_space.huge_pages()
            if vpn not in self._monitored_cold
        ]
        if not candidates:
            return
        count = max(1, int(round(self.config.sample_fraction * len(candidates))))
        chosen = self.rng.choice(
            np.array(candidates, dtype=np.int64),
            size=min(count, len(candidates)),
            replace=False,
        )
        for huge_vpn in sorted(int(v) for v in chosen):
            self.address_space.split_huge(huge_vpn)
            first = huge_to_base(huge_vpn)
            for offset in range(SUBPAGES_PER_HUGE_PAGE):
                self.address_space.clear_accessed_base(first + offset)
            self._split.append(huge_vpn)
            report.sampled.append(huge_vpn)

    # ------------------------------------------------------------------

    def _total_huge_regions(self) -> int:
        split_regions = len(self._poisoned) + len(self._split)
        return len(self.address_space.huge_pages()) + split_regions

    def advance_scan(self) -> ScanReport:
        """One scan-interval boundary: classify, correct, poison, split.

        The caller performs application accesses between calls; each call
        consumes the monitoring state those accesses produced and arms the
        next interval's monitoring.
        """
        report = ScanReport()
        if self.poison_budget is None:
            total = self._total_huge_regions() * SUBPAGES_PER_HUGE_PAGE
            if total > 0:
                # Twice the configuration's static sampling bound, leaving
                # headroom for sampling-fraction rounding on tiny footprints.
                ceiling = min(
                    1.0,
                    2.0
                    * PoisonBudget.paper_sampling_bound(
                        self.config.sample_fraction,
                        self.config.max_poisoned_subpages,
                    ),
                )
                self.poison_budget = PoisonBudget(total, ceiling=ceiling)
        self._stage_classify(report)
        self._stage_correct(report)
        self._stage_poison(report)
        self._stage_split(report)
        self.address_space.clock.advance(self.scan_interval)
        return report

    @property
    def cold_pages(self) -> set[PageNumber]:
        """Huge pages currently resident in slow memory (monitored)."""
        return set(self._monitored_cold)
