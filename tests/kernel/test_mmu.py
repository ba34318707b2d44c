"""Tests for the address space: mapping, access path, migration hooks."""

import pytest

from repro.errors import MappingError, MigrationError
from repro.kernel.mmu import AddressSpace
from repro.kernel.vma import VmaKind
from repro.mem.migration import MigrationReason
from repro.mem.numa import FAST_NODE, SLOW_NODE, NumaTopology
from repro.units import BASE_PAGE_SIZE, HUGE_PAGE_SIZE


def make_space(**kwargs) -> AddressSpace:
    kwargs.setdefault("topology", NumaTopology.small())
    kwargs.setdefault("use_llc", False)
    return AddressSpace(**kwargs)


class TestMmap:
    def test_thp_mapping_uses_huge_pages(self):
        space = make_space()
        space.mmap(0, 4 * HUGE_PAGE_SIZE)
        assert len(space.huge_pages()) == 4
        assert len(space.base_pages()) == 0

    def test_unaligned_edges_use_base_pages(self):
        space = make_space()
        space.mmap(BASE_PAGE_SIZE, HUGE_PAGE_SIZE + BASE_PAGE_SIZE)
        # [4K, 2M) head in 4KB pages; [2M, 4M) as one huge page... actually
        # the VMA is [4K, 2M+8K): aligned span is [2M, 2M) -> empty, so all
        # 4KB pages.
        assert len(space.huge_pages()) == 0
        assert len(space.base_pages()) == HUGE_PAGE_SIZE // BASE_PAGE_SIZE + 1

    def test_thp_disabled_uses_base_pages(self):
        space = make_space()
        space.mmap(0, 2 * HUGE_PAGE_SIZE, thp=False)
        assert len(space.huge_pages()) == 0
        assert len(space.base_pages()) == 1024

    def test_file_vma(self):
        space = make_space()
        vma = space.mmap(0, HUGE_PAGE_SIZE, kind=VmaKind.FILE, name="hugetmpfs")
        assert vma.kind is VmaKind.FILE

    def test_resident_bytes(self):
        space = make_space()
        space.mmap(0, 2 * HUGE_PAGE_SIZE)
        assert space.resident_bytes() == 2 * HUGE_PAGE_SIZE
        assert space.resident_bytes(node=FAST_NODE) == 2 * HUGE_PAGE_SIZE
        assert space.resident_bytes(node=SLOW_NODE) == 0

    def test_access_unmapped_raises_without_demand_paging(self):
        space = make_space()
        with pytest.raises(MappingError):
            space.access(0x1234)

    def test_demand_paging_maps_on_touch(self):
        space = make_space(demand_paging=True)
        space.mmap(0, 2 * HUGE_PAGE_SIZE, populate=False)
        outcome = space.access(0x10)
        assert outcome.latency > 0
        assert len(space.huge_pages()) == 1


class TestAccessPath:
    def test_first_access_walks_then_hits(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        first = space.access(0)
        second = space.access(64)
        assert first.tlb_hit_level == 0
        assert second.tlb_hit_level == 1
        assert second.latency < first.latency

    def test_access_sets_accessed_bit(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.access(0)
        assert space.page_table.lookup_huge(0).accessed

    def test_write_sets_dirty(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.access(0, write=True)
        assert space.page_table.lookup_huge(0).dirty

    def test_slow_node_access_is_slower(self):
        space = make_space()
        space.mmap(0, 2 * HUGE_PAGE_SIZE)
        space.migrate_page(1, huge=True, target_node=SLOW_NODE)
        fast = space.access(0)
        slow = space.access(HUGE_PAGE_SIZE)
        assert slow.node == SLOW_NODE
        assert slow.latency > fast.latency

    def test_llc_hit_faster_than_memory(self):
        space = AddressSpace(topology=NumaTopology.small(), use_llc=True)
        space.mmap(0, HUGE_PAGE_SIZE)
        space.access(0)
        miss = space.access(4096)  # new line
        hit = space.access(4096)  # cached line
        assert hit.llc_hit
        assert hit.latency < miss.latency

    def test_stats_counted(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.access(0)
        space.access(1)
        assert space.stats.counter("accesses").value == 2


class TestSplitCollapse:
    def test_split_then_access_uses_base_granularity(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.split_huge(0)
        outcome = space.access(0)
        assert not outcome.huge
        assert space.node_of(0, huge=False) == FAST_NODE

    def test_collapse_restores_huge(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.split_huge(0)
        space.collapse_huge(0)
        assert space.access(0).huge
        assert space.node_of(0, huge=True) == FAST_NODE

    def test_collapse_across_nodes_rejected(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.split_huge(0)
        space.migrate_page(5, huge=False, target_node=SLOW_NODE)
        with pytest.raises(MappingError):
            space.collapse_huge(0)

    def test_clear_accessed_invalidates_tlb(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.split_huge(0)
        space.access(0)
        assert space.clear_accessed_base(0) is True
        # Because the TLB entry was shot down, the next access re-walks and
        # re-sets the bit.
        outcome = space.access(0)
        assert outcome.tlb_hit_level == 0
        assert space.page_table.lookup_base(0).accessed


class TestMigration:
    def test_demotion_accounted(self):
        space = make_space()
        space.mmap(0, 2 * HUGE_PAGE_SIZE)
        space.migrate_page(0, huge=True, target_node=SLOW_NODE)
        assert space.node_of(0, huge=True) == SLOW_NODE
        assert (
            space.migration.bytes_moved(MigrationReason.DEMOTION) == HUGE_PAGE_SIZE
        )

    def test_promotion_accounted_as_correction(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        space.migrate_page(0, huge=True, target_node=SLOW_NODE)
        space.migrate_page(0, huge=True, target_node=FAST_NODE)
        assert (
            space.migration.bytes_moved(MigrationReason.CORRECTION)
            == HUGE_PAGE_SIZE
        )

    def test_migrate_to_same_node_rejected(self):
        space = make_space()
        space.mmap(0, HUGE_PAGE_SIZE)
        with pytest.raises(MigrationError):
            space.migrate_page(0, huge=True, target_node=FAST_NODE)

    def test_migrate_unmapped_rejected(self):
        space = make_space()
        with pytest.raises(MigrationError):
            space.migrate_page(0, huge=True, target_node=SLOW_NODE)

    def test_tier_capacities_follow_migration(self):
        space = make_space()
        space.mmap(0, 2 * HUGE_PAGE_SIZE)
        space.migrate_page(0, huge=True, target_node=SLOW_NODE)
        assert space.topology.fast.tier.allocated_bytes == HUGE_PAGE_SIZE
        assert space.topology.slow.tier.allocated_bytes == HUGE_PAGE_SIZE

    def test_node_of_unmapped_rejected(self):
        space = make_space()
        with pytest.raises(MappingError):
            space.node_of(0, huge=True)
