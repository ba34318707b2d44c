"""Tests for the TLB hierarchy."""

import pytest

from repro.errors import ConfigError
from repro.mem.tlb import Tlb, TlbGeometry, TlbHierarchy
from repro.units import BASE_PAGE_SIZE, HUGE_PAGE_SIZE


class TestTlbGeometryValidation:
    def test_bad_entries(self):
        with pytest.raises(ConfigError):
            Tlb(entries=0, associativity=1)

    def test_non_divisible(self):
        with pytest.raises(ConfigError):
            Tlb(entries=10, associativity=4)


class TestTlbBasics:
    def test_miss_then_hit(self):
        tlb = Tlb(entries=8, associativity=2)
        assert not tlb.lookup(5)
        tlb.fill(5)
        assert tlb.lookup(5)
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_lru_eviction(self):
        tlb = Tlb(entries=2, associativity=2)  # one set, two ways
        tlb.fill(0)
        tlb.fill(1)
        tlb.lookup(0)  # 0 becomes MRU
        victim = tlb.fill(2)
        assert victim == 1
        assert tlb.lookup(0)
        assert not tlb.lookup(1)

    def test_fill_existing_refreshes(self):
        tlb = Tlb(entries=2, associativity=2)
        tlb.fill(0)
        tlb.fill(1)
        assert tlb.fill(0) is None  # no eviction: refresh
        victim = tlb.fill(2)
        assert victim == 1

    def test_set_mapping(self):
        tlb = Tlb(entries=4, associativity=1)  # 4 direct-mapped sets
        tlb.fill(0)
        tlb.fill(4)  # same set as 0 -> evicts it
        assert not tlb.lookup(0)

    def test_invalidate(self):
        tlb = Tlb(entries=4, associativity=4)
        tlb.fill(1)
        assert tlb.invalidate(1)
        assert not tlb.invalidate(1)
        assert not tlb.lookup(1)

    def test_hit_rate(self):
        tlb = Tlb(entries=4, associativity=4)
        tlb.fill(0)
        tlb.lookup(0)
        tlb.lookup(1)
        assert tlb.hit_rate() == pytest.approx(0.5)


class TestTlbHierarchy:
    def test_geometry_defaults_match_paper_platform(self):
        geo = TlbGeometry.xeon_e5_v3()
        assert geo.l1_4k_entries == 64
        assert geo.l2_entries == 1024

    def test_l1_hit(self):
        h = TlbHierarchy()
        h.fill(3, huge=False)
        result = h.access(3, huge=False)
        assert result.hit_level == 1
        assert not result.needs_walk

    def test_l2_hit_promotes_to_l1(self):
        h = TlbHierarchy(TlbGeometry(l1_4k_entries=2, l1_4k_associativity=2))
        # Fill L1 beyond capacity so an entry falls back to L2 only.
        h.fill(0, huge=False)
        h.fill(1, huge=False)
        h.fill(2, huge=False)  # evicts 0 from L1; 0 still in L2
        result = h.access(0, huge=False)
        assert result.hit_level == 2
        # Now it should be back in L1.
        assert h.access(0, huge=False).hit_level == 1

    def test_full_miss(self):
        h = TlbHierarchy()
        assert h.access(7, huge=False).needs_walk

    def test_4k_and_2m_do_not_alias(self):
        h = TlbHierarchy()
        h.fill(5, huge=False)
        assert h.access(5, huge=True).needs_walk

    def test_invalidate_hits_both_levels(self):
        h = TlbHierarchy()
        h.fill(9, huge=True)
        h.invalidate(9, huge=True)
        assert h.access(9, huge=True).needs_walk

    def test_huge_reach_is_512x(self):
        """One 2MB entry covers 512 4KB pages — the THP argument."""
        assert HUGE_PAGE_SIZE // BASE_PAGE_SIZE == 512

    def test_miss_rate_counts_walks(self):
        h = TlbHierarchy()
        h.access(1, huge=False)  # miss
        h.fill(1, huge=False)
        h.access(1, huge=False)  # hit
        assert h.miss_rate() == pytest.approx(0.5)
