"""Tests for the 4-level page table: mapping, split/collapse, translation."""

import pytest

from repro.errors import MappingError
from repro.mem.page_table import (
    WALK_STEPS_BASE,
    WALK_STEPS_HUGE,
    PageTable,
    WalkOutcome,
)
from repro.units import HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE_PAGE


@pytest.fixture
def table() -> PageTable:
    return PageTable()


class TestMapping:
    def test_map_base(self, table):
        entry = table.map_base(5, 0x100)
        assert table.lookup_base(5) is entry
        assert entry.frame == 0x100

    def test_map_huge(self, table):
        entry = table.map_huge(2, 0x40)
        assert table.lookup_huge(2) is entry
        assert entry.huge

    def test_double_map_base_rejected(self, table):
        table.map_base(5, 0)
        with pytest.raises(MappingError):
            table.map_base(5, 1)

    def test_double_map_huge_rejected(self, table):
        table.map_huge(2, 0)
        with pytest.raises(MappingError):
            table.map_huge(2, 1)

    def test_base_under_huge_rejected(self, table):
        table.map_huge(0, 0)
        with pytest.raises(MappingError):
            table.map_base(3, 1)  # page 3 lives inside huge page 0

    def test_huge_over_base_rejected(self, table):
        table.map_base(700, 0)  # inside huge page 1
        with pytest.raises(MappingError):
            table.map_huge(1, 1)

    def test_unmap_base(self, table):
        table.map_base(5, 0)
        table.unmap_base(5)
        assert table.lookup_base(5) is None

    def test_unmap_missing_rejected(self, table):
        with pytest.raises(MappingError):
            table.unmap_base(5)
        with pytest.raises(MappingError):
            table.unmap_huge(5)

    def test_mapped_bytes(self, table):
        table.map_huge(0, 0)
        table.map_base(1024, 0)
        assert table.mapped_bytes() == HUGE_PAGE_SIZE + 4096


class TestSplit:
    def test_split_produces_512_children(self, table):
        table.map_huge(0, 2)  # huge frame 2 = base frames 1024..1535
        children = table.split_huge(0)
        assert len(children) == SUBPAGES_PER_HUGE_PAGE
        assert table.lookup_huge(0) is None
        assert table.lookup_base(0).frame == 1024
        assert table.lookup_base(511).frame == 1535

    def test_split_propagates_accessed(self, table):
        entry = table.map_huge(0, 0)
        entry.mark_accessed(write=True)
        children = table.split_huge(0)
        assert all(c.accessed and c.dirty for c in children)

    def test_split_clean_page_children_clean(self, table):
        table.map_huge(0, 0)
        children = table.split_huge(0)
        assert not any(c.accessed for c in children)

    def test_split_unmapped_rejected(self, table):
        with pytest.raises(MappingError):
            table.split_huge(0)

    def test_is_split(self, table):
        table.map_huge(0, 0)
        assert not table.is_split(0)
        table.split_huge(0)
        assert table.is_split(0)


class TestCollapse:
    def test_collapse_round_trip(self, table):
        original = table.map_huge(3, 7)
        table.split_huge(3)
        merged = table.collapse_huge(3)
        assert merged.frame == original.frame
        assert merged.huge
        assert table.lookup_huge(3) is not None
        assert not table.is_split(3)

    def test_collapse_ors_accessed_bits(self, table):
        table.map_huge(0, 0)
        children = table.split_huge(0)
        children[17].mark_accessed(write=True)
        merged = table.collapse_huge(0)
        assert merged.accessed and merged.dirty

    def test_collapse_with_hole_rejected(self, table):
        table.map_huge(0, 0)
        table.split_huge(0)
        table.unmap_base(100)
        with pytest.raises(MappingError):
            table.collapse_huge(0)

    def test_collapse_poisoned_subpage_rejected(self, table):
        table.map_huge(0, 0)
        children = table.split_huge(0)
        children[5].poison()
        with pytest.raises(MappingError):
            table.collapse_huge(0)

    def test_collapse_non_contiguous_frames_rejected(self, table):
        table.map_huge(0, 0)
        table.split_huge(0)
        # Remap one subpage to a foreign frame.
        table.unmap_base(10)
        table.map_base(10, 9999)
        with pytest.raises(MappingError):
            table.collapse_huge(0)

    def test_collapse_unaligned_frames_rejected(self, table):
        # 512 base mappings starting at an unaligned frame.
        for offset in range(SUBPAGES_PER_HUGE_PAGE):
            table.map_base(offset, 100 + offset)  # frame 100 not 512-aligned
        with pytest.raises(MappingError):
            table.collapse_huge(0)


class TestTranslate:
    def test_hit_huge(self, table):
        table.map_huge(0, 0)
        result = table.translate(1234)
        assert result.outcome is WalkOutcome.OK
        assert result.huge
        assert result.walk_steps == WALK_STEPS_HUGE

    def test_hit_base(self, table):
        table.map_base(0, 0)
        result = table.translate(42)
        assert result.outcome is WalkOutcome.OK
        assert not result.huge
        assert result.walk_steps == WALK_STEPS_BASE

    def test_translate_sets_accessed(self, table):
        entry = table.map_base(0, 0)
        table.translate(0)
        assert entry.accessed

    def test_translate_write_sets_dirty(self, table):
        entry = table.map_base(0, 0)
        table.translate(0, write=True)
        assert entry.dirty

    def test_unmapped(self, table):
        result = table.translate(0)
        assert result.outcome is WalkOutcome.NOT_MAPPED
        assert result.entry is None

    def test_poison_fault(self, table):
        entry = table.map_base(0, 0)
        entry.poison()
        result = table.translate(0)
        assert result.outcome is WalkOutcome.POISON_FAULT
        assert result.entry is entry
        # A poison fault must not set the Accessed bit — the handler does
        # that as part of servicing.
        assert not entry.accessed
