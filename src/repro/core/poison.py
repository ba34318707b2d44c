"""Poisoned-page budget bookkeeping.

Section 3.2's overhead argument rests on a bound: with 5% of huge pages
sampled and at most 50 of 512 subpages poisoned each, "only 0.5% of
memory is sampled at any time, which makes the performance overhead due
to sampling < 1%".  :class:`PoisonBudget` enforces that bound as an
explicit invariant: monitoring components acquire and release poisoned
pages through it, and exceeding the configured ceiling is an error rather
than a silent overhead creep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sampling import poisoned_memory_fraction
from repro.errors import ConfigError, SimulationError
from repro.units import SUBPAGES_PER_HUGE_PAGE


@dataclass
class PoisonBudget:
    """Tracks the fraction of memory currently poisoned for monitoring.

    ``total_base_pages`` is the managed footprint in 4KB pages;
    ``ceiling`` is the maximum poisonable fraction (defaults to twice the
    paper's 0.5% figure, leaving headroom for the cold-page monitors that
    Section 3.5 adds on top of the sampling poison).
    """

    total_base_pages: int
    ceiling: float = 0.02
    _poisoned_base: int = field(default=0, init=False)
    _poisoned_huge: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.total_base_pages <= 0:
            raise ConfigError(
                f"total_base_pages must be positive: {self.total_base_pages}"
            )
        if not 0.0 < self.ceiling <= 1.0:
            raise ConfigError(f"ceiling must be in (0, 1]: {self.ceiling}")

    # ------------------------------------------------------------------

    def fraction(self, include_cold_monitors: bool = False) -> float:
        """Fraction of the footprint currently poisoned.

        The paper's 0.5% figure refers to the sampling poison only; cold
        huge-page monitors are accounted separately because their fault
        rates are bounded by the slowdown budget rather than by memory
        share.
        """
        poisoned = self._poisoned_base
        if include_cold_monitors:
            poisoned += self._poisoned_huge * SUBPAGES_PER_HUGE_PAGE
        return poisoned / self.total_base_pages

    # ------------------------------------------------------------------

    def acquire_base(self, count: int = 1) -> None:
        """Poison ``count`` more 4KB pages; raises if over the ceiling."""
        if count < 0:
            raise ConfigError(f"negative count: {count}")
        projected = (self._poisoned_base + count) / self.total_base_pages
        if projected > self.ceiling:
            raise SimulationError(
                f"poison budget exceeded: {projected:.4f} > ceiling "
                f"{self.ceiling:.4f}"
            )
        self._poisoned_base += count

    def release_base(self, count: int = 1) -> None:
        """Unpoison ``count`` 4KB pages."""
        if count < 0:
            raise ConfigError(f"negative count: {count}")
        if count > self._poisoned_base:
            raise SimulationError(
                f"releasing {count} poisoned pages but only "
                f"{self._poisoned_base} held"
            )
        self._poisoned_base -= count

    def acquire_huge(self, count: int = 1) -> None:
        """Start monitoring ``count`` more cold 2MB pages."""
        if count < 0:
            raise ConfigError(f"negative count: {count}")
        self._poisoned_huge += count

    def release_huge(self, count: int = 1) -> None:
        """Stop monitoring ``count`` cold 2MB pages."""
        if count < 0:
            raise ConfigError(f"negative count: {count}")
        if count > self._poisoned_huge:
            raise SimulationError(
                f"releasing {count} monitored huge pages but only "
                f"{self._poisoned_huge} held"
            )
        self._poisoned_huge -= count

    # ------------------------------------------------------------------

    @staticmethod
    def paper_sampling_bound(
        sample_fraction: float = 0.05, max_poisoned: int = 50
    ) -> float:
        """The paper's static bound on the sampling poison fraction."""
        return poisoned_memory_fraction(sample_fraction, max_poisoned)
