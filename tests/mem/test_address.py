"""Tests for address arithmetic."""

import pytest

from repro.errors import AddressError
from repro.mem import address
from repro.units import BASE_PAGE_SHIFT, HUGE_PAGE_SHIFT, HUGE_PAGE_SIZE


class TestValidation:
    def test_accepts_48_bit_range(self):
        address.check_virtual_address(0)
        address.check_virtual_address((1 << 48) - 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            address.check_virtual_address(1 << 48)
        with pytest.raises(AddressError):
            address.check_virtual_address(-1)


class TestPageNumber:
    def test_base_page_number(self):
        assert address.page_number(0) == 0
        assert address.page_number(4095) == 0
        assert address.page_number(4096) == 1

    def test_huge_page_number(self):
        assert address.page_number(HUGE_PAGE_SIZE - 1, HUGE_PAGE_SHIFT) == 0
        assert address.page_number(HUGE_PAGE_SIZE, HUGE_PAGE_SHIFT) == 1


class TestSplitVirtualAddress:
    def test_zero(self):
        idx = address.split_virtual_address(0)
        assert (idx.pgd, idx.pud, idx.pmd, idx.pte) == (0, 0, 0, 0)
        assert idx.offset_4k == 0
        assert idx.offset_2m == 0

    def test_pte_index_steps_every_4k(self):
        idx = address.split_virtual_address(3 * 4096 + 17)
        assert idx.pte == 3
        assert idx.offset_4k == 17

    def test_pmd_index_steps_every_2m(self):
        idx = address.split_virtual_address(5 * HUGE_PAGE_SIZE + 42)
        assert idx.pmd == 5
        assert idx.offset_2m == 42

    def test_indices_are_9_bits(self):
        # Address with all index fields at maximum.
        addr = (1 << 48) - 1
        idx = address.split_virtual_address(addr)
        assert idx.pgd == idx.pud == idx.pmd == idx.pte == 511

    def test_reconstruction(self):
        addr = 0x7F12_3456_789A
        idx = address.split_virtual_address(addr)
        rebuilt = (
            (idx.pgd << (BASE_PAGE_SHIFT + 27))
            | (idx.pud << (BASE_PAGE_SHIFT + 18))
            | (idx.pmd << (BASE_PAGE_SHIFT + 9))
            | (idx.pte << BASE_PAGE_SHIFT)
            | idx.offset_4k
        )
        assert rebuilt == addr
