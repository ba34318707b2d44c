"""Virtual and physical address arithmetic for an x86-64-style MMU.

Addresses are 48-bit canonical virtual addresses translated through a 4-level
radix page table (PGD -> PUD -> PMD -> PTE), each level indexed by 9 bits.
2MB huge pages terminate the walk at the PMD level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError
from repro.units import BASE_PAGE_SHIFT, HUGE_PAGE_SHIFT

#: Bits of virtual address space modelled (x86-64 canonical).
VIRTUAL_ADDRESS_BITS = 48
#: Index bits per radix level.
LEVEL_INDEX_BITS = 9
#: Number of radix levels (PGD, PUD, PMD, PTE).
PAGE_TABLE_LEVELS = 4

#: Type alias: page numbers are plain ints (virtual or physical frame number).
PageNumber = int
#: Type alias: byte-granularity virtual address.
VirtualAddress = int

_MAX_VIRTUAL = 1 << VIRTUAL_ADDRESS_BITS
_LEVEL_MASK = (1 << LEVEL_INDEX_BITS) - 1


def check_virtual_address(address: VirtualAddress) -> None:
    """Raise :class:`AddressError` unless ``address`` fits in 48 bits."""
    if not 0 <= address < _MAX_VIRTUAL:
        raise AddressError(f"virtual address out of range: {address:#x}")


def page_number(address: VirtualAddress, shift: int = BASE_PAGE_SHIFT) -> PageNumber:
    """Return the page number containing ``address`` for a given page shift."""
    check_virtual_address(address)
    return address >> shift


@dataclass(frozen=True)
class RadixIndices:
    """The four per-level indices of a virtual address, plus page offsets."""

    pgd: int
    pud: int
    pmd: int
    pte: int
    offset_4k: int
    offset_2m: int


def split_virtual_address(address: VirtualAddress) -> RadixIndices:
    """Decompose a virtual address into 4-level radix indices.

    ``offset_2m`` is the offset a 2MB leaf mapping would use (the PTE index
    folded together with the 4KB offset).
    """
    check_virtual_address(address)
    offset_4k = address & ((1 << BASE_PAGE_SHIFT) - 1)
    offset_2m = address & ((1 << HUGE_PAGE_SHIFT) - 1)
    pte = (address >> BASE_PAGE_SHIFT) & _LEVEL_MASK
    pmd = (address >> (BASE_PAGE_SHIFT + LEVEL_INDEX_BITS)) & _LEVEL_MASK
    pud = (address >> (BASE_PAGE_SHIFT + 2 * LEVEL_INDEX_BITS)) & _LEVEL_MASK
    pgd = (address >> (BASE_PAGE_SHIFT + 3 * LEVEL_INDEX_BITS)) & _LEVEL_MASK
    return RadixIndices(pgd, pud, pmd, pte, offset_4k, offset_2m)
