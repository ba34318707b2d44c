"""The per-process address space and the mechanism-level access path.

:class:`AddressSpace` glues the substrate together the way the Linux/KVM
stack in the paper does:

* VMAs describe what is mapped (:mod:`repro.kernel.vma`);
* the radix page table holds translations at 4KB or 2MB granularity;
* a two-level TLB caches translations; misses pay a (native or nested)
  page-walk latency;
* poisoned PTEs raise faults routed to BadgerTrap;
* data accesses go through an optional LLC and then to the NUMA node
  backing the page, paying that tier's latency.

It also exposes the structural operations Thermostat's mechanism needs:
splitting/collapsing huge pages, clearing Accessed bits (with the mandatory
TLB shootdown), and migrating pages between the fast and slow nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError, MigrationError
from repro.kernel.fault import FaultContext, FaultDispatcher, FaultKind
from repro.kernel.vma import Vma, VmaKind, VmaSet
from repro.mem.address import PageNumber, VirtualAddress, page_number
from repro.mem.cache import LastLevelCache
from repro.mem.migration import MigrationEngine, MigrationReason
from repro.mem.numa import FAST_NODE, SLOW_NODE, NumaTopology
from repro.mem.page_table import PageTable, WalkOutcome
from repro.mem.tlb import TlbGeometry, TlbHierarchy
from repro.mem.walker import WalkCostModel
from repro.sim.clock import VirtualClock
from repro.sim.stats import StatsRegistry
from repro.units import (
    BASE_PAGE_SHIFT,
    BASE_PAGE_SIZE,
    HUGE_PAGE_SHIFT,
    HUGE_PAGE_SIZE,
    NANOSECOND,
    SUBPAGES_PER_HUGE_PAGE,
    base_to_huge,
    huge_to_base,
)

#: Extra latency of an L2 (vs L1) TLB hit.
L2_TLB_HIT_PENALTY = 2 * NANOSECOND
#: Latency of an LLC hit.
LLC_HIT_LATENCY = 15 * NANOSECOND


@dataclass(frozen=True)
class AccessOutcome:
    """What happened to a single memory access."""

    latency: float
    tlb_hit_level: int  # 1, 2, or 0 (walked)
    poison_fault: bool
    llc_hit: bool
    node: int
    huge: bool


class AddressSpace:
    """One process's (or guest's) virtual memory, mechanism-faithful.

    Parameters
    ----------
    topology:
        The two-node fast/slow topology; defaults to a small test topology.
    geometry:
        TLB geometry; defaults to the paper's Xeon E5 v3.
    walk_model:
        Page-walk cost model; use :meth:`WalkCostModel.nested` to model the
        paper's KVM setting.
    use_llc:
        Model the last-level cache on the data path.  Disable for pure
        translation studies.
    demand_paging:
        Map pages lazily on first touch instead of at ``mmap`` time.
    """

    def __init__(
        self,
        topology: NumaTopology | None = None,
        geometry: TlbGeometry | None = None,
        walk_model: WalkCostModel | None = None,
        use_llc: bool = True,
        demand_paging: bool = False,
        clock: VirtualClock | None = None,
        stats: StatsRegistry | None = None,
    ) -> None:
        self.topology = topology or NumaTopology.small()
        self.page_table = PageTable()
        self.vmas = VmaSet()
        self.tlb = TlbHierarchy(geometry)
        self.walk_model = walk_model or WalkCostModel.native()
        self.llc: LastLevelCache | None = LastLevelCache() if use_llc else None
        self.demand_paging = demand_paging
        self.clock = clock or VirtualClock()
        self.stats = stats or StatsRegistry()
        self.faults = FaultDispatcher()
        self.migration = MigrationEngine(self.topology, self.clock, self.stats)
        #: NUMA node backing each mapping, keyed by page number at the
        #: mapping's granularity.
        self._node_of_huge: dict[PageNumber, int] = {}
        self._node_of_base: dict[PageNumber, int] = {}
        self.faults.register(FaultKind.NOT_MAPPED, self._handle_not_mapped)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def mmap(
        self,
        start: VirtualAddress,
        length: int,
        kind: VmaKind = VmaKind.ANONYMOUS,
        thp: bool = True,
        node: int = FAST_NODE,
        populate: bool = True,
        name: str = "",
    ) -> Vma:
        """Create a VMA and (unless demand paging) populate its pages.

        With ``thp`` the 2MB-aligned core of the VMA is mapped with huge
        pages and the unaligned head/tail with 4KB pages — matching Linux
        THP behaviour.
        """
        vma = Vma(start, start + length, kind=kind, thp_eligible=thp, name=name)
        self.vmas.insert(vma)
        if populate and not self.demand_paging:
            self._populate(vma, node)
        return vma

    def _populate(self, vma: Vma, node: int) -> None:
        huge_start, huge_end = vma.huge_aligned_span() if vma.thp_eligible else (
            vma.start,
            vma.start,
        )
        cursor = vma.start
        while cursor < vma.end:
            if vma.thp_eligible and huge_start <= cursor < huge_end:
                self._map_huge_page(page_number(cursor, HUGE_PAGE_SHIFT), node)
                cursor += HUGE_PAGE_SIZE
            else:
                self._map_base_page(page_number(cursor, BASE_PAGE_SHIFT), node)
                cursor += BASE_PAGE_SIZE

    def _map_huge_page(self, huge_vpn: PageNumber, node: int) -> None:
        frame = self.topology.node(node).tier.allocate_huge() >> (
            HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT
        )
        self.page_table.map_huge(huge_vpn, frame)
        self._node_of_huge[huge_vpn] = node

    def _map_base_page(self, base_vpn: PageNumber, node: int) -> None:
        frame = self.topology.node(node).tier.allocate_base()
        self.page_table.map_base(base_vpn, frame)
        self._node_of_base[base_vpn] = node

    def _handle_not_mapped(self, context: FaultContext) -> float:
        """Demand-paging fault: map the page if a VMA covers it."""
        vma = self.vmas.find(context.address)
        if vma is None or not self.demand_paging:
            raise MappingError(f"access to unmapped address {context.address:#x}")
        base_vpn = page_number(context.address, BASE_PAGE_SHIFT)
        huge_vpn = base_to_huge(base_vpn)
        huge_start, huge_end = vma.huge_aligned_span()
        huge_base_addr = huge_vpn << HUGE_PAGE_SHIFT
        if (
            vma.thp_eligible
            and huge_start <= huge_base_addr
            and huge_base_addr + HUGE_PAGE_SIZE <= huge_end
        ):
            self._map_huge_page(huge_vpn, FAST_NODE)
        else:
            self._map_base_page(base_vpn, FAST_NODE)
        return 2e-6  # a demand-paging fault costs a couple of microseconds

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def access(self, address: VirtualAddress, write: bool = False) -> AccessOutcome:
        """Issue one memory reference; returns latency and path taken."""
        entry, huge = self.page_table.entry_for(address)
        if entry is None:
            fault_latency = self.faults.dispatch(
                FaultContext(FaultKind.NOT_MAPPED, address, write, None, False)
            )
            outcome = self.access(address, write)
            return AccessOutcome(
                latency=outcome.latency + fault_latency,
                tlb_hit_level=outcome.tlb_hit_level,
                poison_fault=outcome.poison_fault,
                llc_hit=outcome.llc_hit,
                node=outcome.node,
                huge=outcome.huge,
            )

        shift = HUGE_PAGE_SHIFT if huge else BASE_PAGE_SHIFT
        vpn = page_number(address, shift)
        latency = 0.0
        poison_fault = False

        tlb_result = self.tlb.access(vpn, huge)
        if tlb_result.hit_level == 2:
            latency += L2_TLB_HIT_PENALTY
        elif tlb_result.needs_walk:
            latency += self.walk_model.walk_latency(huge)
            translation = self.page_table.translate(address, write)
            if translation.outcome is WalkOutcome.POISON_FAULT:
                poison_fault = True
                latency += self.faults.dispatch(
                    FaultContext(FaultKind.POISON, address, write, entry, huge)
                )
            self.tlb.fill(vpn, huge)
        else:
            # TLB hit: hardware still keeps the Accessed bit set (it was set
            # when the entry was filled); no table walk occurs.
            pass

        node = self._node_of_huge[vpn] if huge else self._node_of_base[vpn]
        llc_hit = False
        if self.llc is not None:
            physical = self._physical_address(address, entry.frame, huge, node)
            llc_hit = self.llc.access(physical)
        if llc_hit:
            latency += LLC_HIT_LATENCY
        else:
            latency += self.topology.latency(node)

        self.stats.counter("accesses").add(1)
        if poison_fault:
            self.stats.counter("poison_faults").add(1)
        return AccessOutcome(
            latency=latency,
            tlb_hit_level=tlb_result.hit_level,
            poison_fault=poison_fault,
            llc_hit=llc_hit,
            node=node,
            huge=huge,
        )

    @staticmethod
    def _physical_address(
        address: VirtualAddress, frame: PageNumber, huge: bool, node: int
    ) -> int:
        shift = HUGE_PAGE_SHIFT if huge else BASE_PAGE_SHIFT
        offset = address & ((1 << shift) - 1)
        # Tag with the node so fast and slow frames never alias in the LLC.
        return (node << 47) | (frame << shift) | offset

    # ------------------------------------------------------------------
    # Thermostat mechanism hooks
    # ------------------------------------------------------------------

    def split_huge(self, huge_vpn: PageNumber) -> None:
        """Split a huge mapping for monitoring (Thermostat scan 1)."""
        node = self._node_of_huge.pop(huge_vpn)
        self.page_table.split_huge(huge_vpn)
        first = huge_to_base(huge_vpn)
        for offset in range(SUBPAGES_PER_HUGE_PAGE):
            self._node_of_base[first + offset] = node
        self.tlb.invalidate(huge_vpn, huge=True)

    def collapse_huge(self, huge_vpn: PageNumber) -> None:
        """Collapse a previously split region back to one 2MB mapping."""
        first = huge_to_base(huge_vpn)
        nodes = {
            self._node_of_base.get(first + offset)
            for offset in range(SUBPAGES_PER_HUGE_PAGE)
        }
        if len(nodes) != 1 or None in nodes:
            raise MappingError(
                f"cannot collapse {huge_vpn:#x}: subpages span nodes {nodes}"
            )
        self.page_table.collapse_huge(huge_vpn)
        (node,) = nodes
        for offset in range(SUBPAGES_PER_HUGE_PAGE):
            del self._node_of_base[first + offset]
            self.tlb.invalidate(first + offset, huge=False)
        self._node_of_huge[huge_vpn] = node

    def clear_accessed_base(self, base_vpn: PageNumber) -> bool:
        """Clear a 4KB Accessed bit with the required TLB shootdown."""
        entry = self.page_table.lookup_base(base_vpn)
        if entry is None:
            raise MappingError(f"4KB page {base_vpn:#x} is not mapped")
        was_set = entry.clear_accessed()
        self.tlb.invalidate(base_vpn, huge=False)
        return was_set

    def node_of(self, vpn: PageNumber, huge: bool) -> int:
        """NUMA node currently backing a page."""
        table = self._node_of_huge if huge else self._node_of_base
        if vpn not in table:
            raise MappingError(f"page {vpn:#x} (huge={huge}) is not mapped")
        return table[vpn]

    def migrate_page(self, vpn: PageNumber, huge: bool, target_node: int) -> None:
        """Move one page to ``target_node``: new frame, remap, TLB shootdown.

        Demotions (to the slow node) and corrections (back to fast) are
        accounted separately for Table 3.
        """
        table = self._node_of_huge if huge else self._node_of_base
        if vpn not in table:
            raise MigrationError(f"page {vpn:#x} (huge={huge}) is not mapped")
        source_node = table[vpn]
        if source_node == target_node:
            raise MigrationError(f"page {vpn:#x} already on node {target_node}")
        entry = (
            self.page_table.lookup_huge(vpn) if huge else self.page_table.lookup_base(vpn)
        )
        assert entry is not None  # table and page table are kept in sync
        target_tier = self.topology.node(target_node).tier
        source_tier = self.topology.node(source_node).tier
        if huge:
            new_frame = target_tier.allocate_huge() >> (
                HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT
            )
            source_tier.free_huge(entry.frame << (HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT))
        else:
            new_frame = target_tier.allocate_base()
            source_tier.free_base(entry.frame)
        entry.frame = new_frame
        table[vpn] = target_node
        self.tlb.invalidate(vpn, huge)
        reason = (
            MigrationReason.DEMOTION
            if target_node == SLOW_NODE
            else MigrationReason.CORRECTION
        )
        self.migration.record(
            source_node,
            target_node,
            huge=huge,
            reason=reason,
            count=1,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_bytes(self, node: int | None = None) -> int:
        """Bytes mapped, optionally restricted to one node."""
        if node is None:
            return self.page_table.mapped_bytes()
        huge_bytes = sum(
            HUGE_PAGE_SIZE for n in self._node_of_huge.values() if n == node
        )
        base_bytes = sum(
            BASE_PAGE_SIZE for n in self._node_of_base.values() if n == node
        )
        return huge_bytes + base_bytes

    def huge_pages(self) -> list[PageNumber]:
        """All currently huge-mapped 2MB page numbers, sorted."""
        return sorted(self.page_table.huge_mappings)

    def base_pages(self) -> list[PageNumber]:
        """All currently 4KB-mapped page numbers, sorted."""
        return sorted(self.page_table.base_mappings)
