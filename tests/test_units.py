"""Unit tests for size/time arithmetic."""

import pytest

from repro import units


class TestConstants:
    def test_huge_page_is_512_base_pages(self):
        assert units.HUGE_PAGE_SIZE == 512 * units.BASE_PAGE_SIZE
        assert units.SUBPAGES_PER_HUGE_PAGE == 512

    def test_shifts_match_sizes(self):
        assert 1 << units.BASE_PAGE_SHIFT == units.BASE_PAGE_SIZE
        assert 1 << units.HUGE_PAGE_SHIFT == units.HUGE_PAGE_SIZE
        assert 1 << units.SUBPAGE_SHIFT == units.SUBPAGES_PER_HUGE_PAGE

    def test_latency_ordering(self):
        assert units.DRAM_LATENCY < units.SLOW_MEMORY_LATENCY
        assert units.SLOW_MEMORY_LATENCY == pytest.approx(1e-6)


class TestBytesToPages:
    def test_exact(self):
        assert units.bytes_to_pages(8192) == 2

    def test_rounds_up(self):
        assert units.bytes_to_pages(4097) == 2
        assert units.bytes_to_pages(1) == 1

    def test_zero(self):
        assert units.bytes_to_pages(0) == 0

    def test_huge_granularity(self):
        assert units.bytes_to_pages(units.HUGE_PAGE_SIZE, units.HUGE_PAGE_SIZE) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative byte count"):
            units.bytes_to_pages(-1)


class TestPageNumberMapping:
    def test_base_to_huge(self):
        assert units.base_to_huge(0) == 0
        assert units.base_to_huge(511) == 0
        assert units.base_to_huge(512) == 1

    def test_huge_to_base_inverse(self):
        for huge in (0, 1, 7, 1000):
            assert units.base_to_huge(units.huge_to_base(huge)) == huge

    def test_subpage_index(self):
        assert units.subpage_index(0) == 0
        assert units.subpage_index(511) == 511
        assert units.subpage_index(512) == 0
        assert units.subpage_index(513) == 1


class TestFormatting:
    def test_format_bytes(self):
        assert units.format_bytes(units.GB) == "1.0GB"
        assert units.format_bytes(2 * units.MB) == "2.0MB"
        assert units.format_bytes(512) == "512B"

    def test_format_rate(self):
        assert units.format_rate(30_000) == "30.0K/s"
        assert units.format_rate(2_000_000) == "2.0M/s"
        assert units.format_rate(5) == "5.0/s"
