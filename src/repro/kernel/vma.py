"""Virtual memory areas (VMAs).

A VMA is a contiguous virtual range with common attributes.  Thermostat
cares about two attributes: whether the range is THP-eligible (anonymous,
2MB-alignable) and whether it is file-backed — the paper's workloads have
large file-mapped footprints (Table 2) which, via ``hugetmpfs``, are also
huge-page-mapped.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

from repro.errors import MappingError
from repro.mem.address import VirtualAddress, check_virtual_address
from repro.units import HUGE_PAGE_SIZE


class VmaKind(enum.Enum):
    """Backing type of a VMA."""

    ANONYMOUS = "anonymous"
    FILE = "file"


@dataclass(frozen=True)
class Vma:
    """One mapped virtual range ``[start, end)``."""

    start: VirtualAddress
    end: VirtualAddress
    kind: VmaKind = VmaKind.ANONYMOUS
    thp_eligible: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        check_virtual_address(self.start)
        check_virtual_address(self.end - 1)
        if self.end <= self.start:
            raise MappingError(f"empty VMA [{self.start:#x}, {self.end:#x})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, address: VirtualAddress) -> bool:
        return self.start <= address < self.end

    def overlaps(self, other: "Vma") -> bool:
        return self.start < other.end and other.start < self.end

    def huge_aligned_span(self) -> tuple[VirtualAddress, VirtualAddress]:
        """Largest 2MB-aligned subrange, as ``(start, end)``.

        Returns an empty span (start == end) when no aligned 2MB chunk fits,
        mirroring Linux's THP eligibility test.
        """
        mask = HUGE_PAGE_SIZE - 1
        aligned_start = (self.start + mask) & ~mask
        aligned_end = self.end & ~mask
        if aligned_end <= aligned_start:
            return (self.start, self.start)
        return (aligned_start, aligned_end)


class VmaSet:
    """Ordered, non-overlapping collection of VMAs for one address space."""

    def __init__(self) -> None:
        self._starts: list[VirtualAddress] = []
        self._vmas: list[Vma] = []

    def insert(self, vma: Vma) -> None:
        """Add a VMA; overlap with an existing VMA is an error."""
        index = bisect.bisect_left(self._starts, vma.start)
        for neighbour_index in (index - 1, index):
            if 0 <= neighbour_index < len(self._vmas) and vma.overlaps(
                self._vmas[neighbour_index]
            ):
                raise MappingError(
                    f"VMA [{vma.start:#x}, {vma.end:#x}) overlaps "
                    f"[{self._vmas[neighbour_index].start:#x}, "
                    f"{self._vmas[neighbour_index].end:#x})"
                )
        self._starts.insert(index, vma.start)
        self._vmas.insert(index, vma)

    def find(self, address: VirtualAddress) -> Vma | None:
        """Return the VMA containing ``address``, or None."""
        index = bisect.bisect_right(self._starts, address) - 1
        if index >= 0 and self._vmas[index].contains(address):
            return self._vmas[index]
        return None

    def __iter__(self):
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)

    def total_bytes(self) -> int:
        """Sum of VMA lengths."""
        return sum(vma.length for vma in self._vmas)
