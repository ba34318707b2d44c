"""Tests for VMAs and the VMA set."""

import pytest

from repro.errors import MappingError
from repro.kernel.vma import Vma, VmaKind, VmaSet
from repro.units import HUGE_PAGE_SIZE


class TestVma:
    def test_basic_properties(self):
        vma = Vma(0x1000, 0x3000, kind=VmaKind.FILE, name="lib")
        assert vma.length == 0x2000
        assert vma.contains(0x1000)
        assert vma.contains(0x2FFF)
        assert not vma.contains(0x3000)

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            Vma(0x1000, 0x1000)

    def test_overlap_detection(self):
        a = Vma(0, 0x2000)
        assert a.overlaps(Vma(0x1000, 0x3000))
        assert not a.overlaps(Vma(0x2000, 0x3000))

    def test_huge_aligned_span_full(self):
        vma = Vma(0, 4 * HUGE_PAGE_SIZE)
        assert vma.huge_aligned_span() == (0, 4 * HUGE_PAGE_SIZE)

    def test_huge_aligned_span_trims_edges(self):
        vma = Vma(0x1000, 3 * HUGE_PAGE_SIZE + 0x1000)
        start, end = vma.huge_aligned_span()
        assert start == HUGE_PAGE_SIZE
        assert end == 3 * HUGE_PAGE_SIZE

    def test_huge_aligned_span_empty_when_too_small(self):
        vma = Vma(0x1000, 0x5000)
        start, end = vma.huge_aligned_span()
        assert start == end


class TestVmaSet:
    def test_insert_and_find(self):
        vmas = VmaSet()
        vmas.insert(Vma(0, 0x2000))
        vmas.insert(Vma(0x4000, 0x6000))
        assert vmas.find(0x1000).start == 0
        assert vmas.find(0x5000).start == 0x4000
        assert vmas.find(0x3000) is None

    def test_overlap_rejected(self):
        vmas = VmaSet()
        vmas.insert(Vma(0, 0x2000))
        with pytest.raises(MappingError):
            vmas.insert(Vma(0x1000, 0x3000))
        with pytest.raises(MappingError):
            vmas.insert(Vma(0, 0x1000))

    def test_adjacent_allowed(self):
        vmas = VmaSet()
        vmas.insert(Vma(0, 0x2000))
        vmas.insert(Vma(0x2000, 0x4000))
        assert len(vmas) == 2

    def test_total_bytes(self):
        vmas = VmaSet()
        vmas.insert(Vma(0, 0x2000))
        vmas.insert(Vma(0x4000, 0x5000))
        assert vmas.total_bytes() == 0x3000

    def test_iteration_sorted(self):
        vmas = VmaSet()
        vmas.insert(Vma(0x4000, 0x5000))
        vmas.insert(Vma(0, 0x1000))
        assert [v.start for v in vmas] == [0, 0x4000]
