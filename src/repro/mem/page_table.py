"""An x86-64-style 4-level radix page table with 4KB and 2MB leaves.

The table supports the three structural operations Thermostat's mechanism
needs (paper Sections 3.2-3.3):

* mapping/unmapping at either granularity,
* **splitting** a 2MB mapping into its 512 constituent 4KB entries so that
  individual subpages can be monitored, and
* **collapsing** 512 contiguous 4KB entries back into one 2MB entry.

Translation is bit-faithful: a walk sets the Accessed bit on the leaf, and a
poisoned leaf yields a protection fault outcome instead of a translation —
the hook :mod:`repro.kernel.badgertrap` builds on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MappingError
from repro.mem.address import (
    PageNumber,
    VirtualAddress,
    page_number,
    split_virtual_address,
)
from repro.mem.pte import PageTableEntry, make_base_pte, make_huge_pte
from repro.units import (
    BASE_PAGE_SHIFT,
    HUGE_PAGE_SHIFT,
    SUBPAGES_PER_HUGE_PAGE,
    base_to_huge,
    huge_to_base,
    subpage_index,
)


class WalkOutcome(enum.Enum):
    """Result category of a page-table walk."""

    #: Valid translation found.
    OK = "ok"
    #: No mapping at this address.
    NOT_MAPPED = "not_mapped"
    #: Mapping exists but the leaf is poisoned (reserved-bit fault).
    POISON_FAULT = "poison_fault"


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of translating one virtual address."""

    outcome: WalkOutcome
    #: The leaf entry (also returned for poison faults so the handler can
    #: unpoison it); ``None`` when unmapped.
    entry: PageTableEntry | None
    #: True when the translation was served by a 2MB leaf.
    huge: bool
    #: Number of page-table memory references performed by the walk
    #: (4 for a 4KB leaf, 3 for a 2MB leaf on a native walk).
    walk_steps: int


#: Walk steps to reach a 4KB leaf: PGD, PUD, PMD, PTE.
WALK_STEPS_BASE = 4
#: Walk steps to reach a 2MB leaf: PGD, PUD, PMD.
WALK_STEPS_HUGE = 3


class PageTable:
    """Radix page table for one address space.

    Internally the four radix levels are flattened into two dictionaries
    keyed by page number — behaviourally equivalent to the pointer-chasing
    structure while keeping Python overhead low.  Walk *costs* are still
    reported per-level via :data:`WALK_STEPS_BASE` / :data:`WALK_STEPS_HUGE`
    so the virtualization cost model (:mod:`repro.virt.nested`) stays exact.
    """

    def __init__(self) -> None:
        #: 4KB mappings keyed by base (4KB) virtual page number.
        self._base: dict[PageNumber, PageTableEntry] = {}
        #: 2MB mappings keyed by huge (2MB) virtual page number.
        self._huge: dict[PageNumber, PageTableEntry] = {}

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map_base(self, base_vpn: PageNumber, frame: PageNumber) -> PageTableEntry:
        """Install a 4KB mapping ``base_vpn -> frame``."""
        huge_vpn = base_to_huge(base_vpn)
        if huge_vpn in self._huge:
            raise MappingError(
                f"4KB page {base_vpn:#x} already covered by huge mapping "
                f"{huge_vpn:#x}"
            )
        if base_vpn in self._base:
            raise MappingError(f"4KB page {base_vpn:#x} already mapped")
        entry = make_base_pte(frame)
        self._base[base_vpn] = entry
        return entry

    def map_huge(self, huge_vpn: PageNumber, frame: PageNumber) -> PageTableEntry:
        """Install a 2MB mapping ``huge_vpn -> frame`` (frame is 2MB-grain)."""
        if huge_vpn in self._huge:
            raise MappingError(f"2MB page {huge_vpn:#x} already mapped")
        first = huge_to_base(huge_vpn)
        for offset in range(SUBPAGES_PER_HUGE_PAGE):
            if first + offset in self._base:
                raise MappingError(
                    f"2MB page {huge_vpn:#x} overlaps existing 4KB mapping "
                    f"{first + offset:#x}"
                )
        entry = make_huge_pte(frame)
        self._huge[huge_vpn] = entry
        return entry

    def unmap_base(self, base_vpn: PageNumber) -> PageTableEntry:
        """Remove a 4KB mapping, returning the entry that was installed."""
        try:
            return self._base.pop(base_vpn)
        except KeyError:
            raise MappingError(f"4KB page {base_vpn:#x} is not mapped") from None

    def unmap_huge(self, huge_vpn: PageNumber) -> PageTableEntry:
        """Remove a 2MB mapping, returning the entry that was installed."""
        try:
            return self._huge.pop(huge_vpn)
        except KeyError:
            raise MappingError(f"2MB page {huge_vpn:#x} is not mapped") from None

    # ------------------------------------------------------------------
    # THP split / collapse
    # ------------------------------------------------------------------

    def split_huge(self, huge_vpn: PageNumber) -> list[PageTableEntry]:
        """Split a 2MB mapping into 512 4KB entries (Thermostat scan 1).

        The subpage frames are the 4KB frames inside the original 2MB frame;
        Accessed/Dirty state is propagated to every subpage entry, mirroring
        Linux's ``split_huge_page``.
        """
        huge_entry = self._huge.get(huge_vpn)
        if huge_entry is None:
            raise MappingError(f"2MB page {huge_vpn:#x} is not mapped")
        del self._huge[huge_vpn]
        first_vpn = huge_to_base(huge_vpn)
        first_frame = huge_entry.frame << (HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT)
        children: list[PageTableEntry] = []
        for offset in range(SUBPAGES_PER_HUGE_PAGE):
            child = make_base_pte(first_frame + offset)
            if huge_entry.accessed:
                child.mark_accessed(write=huge_entry.dirty)
            self._base[first_vpn + offset] = child
            children.append(child)
        return children

    def collapse_huge(self, huge_vpn: PageNumber) -> PageTableEntry:
        """Collapse 512 contiguous 4KB entries back into one 2MB entry.

        Requires all 512 subpages to be mapped to the 4KB frames of a single
        aligned 2MB frame (the normal state after :meth:`split_huge`);
        anything else is a khugepaged-would-refuse situation and raises
        :class:`MappingError`.  Accessed/Dirty are ORed across subpages.
        """
        first_vpn = huge_to_base(huge_vpn)
        entries = []
        for offset in range(SUBPAGES_PER_HUGE_PAGE):
            entry = self._base.get(first_vpn + offset)
            if entry is None:
                raise MappingError(
                    f"cannot collapse {huge_vpn:#x}: subpage "
                    f"{first_vpn + offset:#x} is not mapped"
                )
            entries.append(entry)
        first_frame = entries[0].frame
        if first_frame & (SUBPAGES_PER_HUGE_PAGE - 1):
            raise MappingError(
                f"cannot collapse {huge_vpn:#x}: frame {first_frame:#x} is "
                "not 2MB-aligned"
            )
        for offset, entry in enumerate(entries):
            if entry.frame != first_frame + offset:
                raise MappingError(
                    f"cannot collapse {huge_vpn:#x}: subpage frames are not "
                    "physically contiguous"
                )
            if entry.poisoned:
                raise MappingError(
                    f"cannot collapse {huge_vpn:#x}: subpage "
                    f"{first_vpn + offset:#x} is poisoned"
                )
        merged = make_huge_pte(first_frame >> (HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT))
        if any(e.accessed for e in entries):
            merged.mark_accessed(write=any(e.dirty for e in entries))
        for offset in range(SUBPAGES_PER_HUGE_PAGE):
            del self._base[first_vpn + offset]
        self._huge[huge_vpn] = merged
        return merged

    # ------------------------------------------------------------------
    # Lookup / translation
    # ------------------------------------------------------------------

    def lookup_base(self, base_vpn: PageNumber) -> PageTableEntry | None:
        """Return the 4KB entry for ``base_vpn`` (no Accessed-bit effects)."""
        return self._base.get(base_vpn)

    def lookup_huge(self, huge_vpn: PageNumber) -> PageTableEntry | None:
        """Return the 2MB entry for ``huge_vpn`` (no Accessed-bit effects)."""
        return self._huge.get(huge_vpn)

    def entry_for(self, address: VirtualAddress) -> tuple[PageTableEntry | None, bool]:
        """Return ``(entry, huge?)`` covering ``address`` without side effects."""
        base_vpn = page_number(address, BASE_PAGE_SHIFT)
        huge_entry = self._huge.get(base_to_huge(base_vpn))
        if huge_entry is not None:
            return huge_entry, True
        return self._base.get(base_vpn), False

    def translate(self, address: VirtualAddress, write: bool = False) -> TranslationResult:
        """Walk the table for ``address``, with hardware side effects.

        A successful walk sets the Accessed (and Dirty, on writes) bit of the
        leaf.  A poisoned leaf produces :attr:`WalkOutcome.POISON_FAULT`
        *after* a full-cost walk — the hardware discovers the reserved bit
        only at the leaf — which is why BadgerTrap's emulation charges the
        fault latency on top of the walk.
        """
        split_virtual_address(address)  # validates range
        entry, huge = self.entry_for(address)
        if entry is None:
            return TranslationResult(WalkOutcome.NOT_MAPPED, None, False, WALK_STEPS_BASE)
        steps = WALK_STEPS_HUGE if huge else WALK_STEPS_BASE
        if entry.poisoned:
            return TranslationResult(WalkOutcome.POISON_FAULT, entry, huge, steps)
        entry.mark_accessed(write=write)
        return TranslationResult(WalkOutcome.OK, entry, huge, steps)

    # ------------------------------------------------------------------
    # Iteration / inspection
    # ------------------------------------------------------------------

    @property
    def base_mappings(self) -> dict[PageNumber, PageTableEntry]:
        """Read-only view (do not mutate) of all 4KB mappings."""
        return self._base

    @property
    def huge_mappings(self) -> dict[PageNumber, PageTableEntry]:
        """Read-only view (do not mutate) of all 2MB mappings."""
        return self._huge

    def is_split(self, huge_vpn: PageNumber) -> bool:
        """True when the 2MB region is currently mapped as 4KB pieces."""
        if huge_vpn in self._huge:
            return False
        first = huge_to_base(huge_vpn)
        return any(first + off in self._base for off in range(SUBPAGES_PER_HUGE_PAGE))

    def mapped_bytes(self) -> int:
        """Total bytes currently mapped."""
        return (len(self._base) << BASE_PAGE_SHIFT) + (
            len(self._huge) << HUGE_PAGE_SHIFT
        )


__all__ = [
    "PageTable",
    "TranslationResult",
    "WalkOutcome",
    "WALK_STEPS_BASE",
    "WALK_STEPS_HUGE",
    "subpage_index",
]
