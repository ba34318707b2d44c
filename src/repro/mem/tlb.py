"""A two-level set-associative TLB hierarchy.

The evaluation platform in the paper (Xeon E5-2699 v3) has a 64-entry L1
DTLB per core and a shared 1024-entry L2 TLB.  TLB reach is the crux of the
huge-page argument: one 2MB entry covers 512 times the memory of a 4KB
entry, so huge-page translations rarely miss — and every miss avoided under
virtualization saves a two-dimensional page walk of up to 24 memory
references (Table 1's motivation).

Thermostat also *flushes* TLB entries deliberately: after clearing an
Accessed bit or poisoning a PTE the stale cached translation must go, or the
hardware never re-walks the table.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.mem.address import PageNumber


class Tlb:
    """One set-associative TLB array with LRU replacement.

    Entries are keyed by virtual page number at the array's granularity
    (4KB page numbers for a 4KB array, 2MB page numbers for a 2MB array).
    """

    def __init__(self, entries: int, associativity: int, name: str = "tlb") -> None:
        if entries <= 0 or associativity <= 0:
            raise ConfigError(
                f"TLB {name!r} needs positive geometry, got "
                f"entries={entries} associativity={associativity}"
            )
        if entries % associativity:
            raise ConfigError(
                f"TLB {name!r}: {entries} entries not divisible by "
                f"associativity {associativity}"
            )
        self.name = name
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        # Each set is an OrderedDict used as an LRU list: oldest first.
        self._sets: list[OrderedDict[PageNumber, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_for(self, vpn: PageNumber) -> OrderedDict[PageNumber, None]:
        return self._sets[vpn % self.num_sets]

    def lookup(self, vpn: PageNumber) -> bool:
        """Probe for ``vpn``; updates LRU order and hit/miss counters."""
        way = self._set_for(vpn)
        if vpn in way:
            way.move_to_end(vpn)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, vpn: PageNumber) -> PageNumber | None:
        """Insert ``vpn``, returning the evicted page number if any."""
        way = self._set_for(vpn)
        if vpn in way:
            way.move_to_end(vpn)
            return None
        victim = None
        if len(way) >= self.associativity:
            victim, _ = way.popitem(last=False)
        way[vpn] = None
        return victim

    def invalidate(self, vpn: PageNumber) -> bool:
        """Drop ``vpn`` if cached (the ``invlpg`` path); True if it was."""
        way = self._set_for(vpn)
        return way.pop(vpn, "absent") != "absent"

    @property
    def occupancy(self) -> int:
        """Number of valid entries currently cached."""
        return sum(len(way) for way in self._sets)

    def hit_rate(self) -> float:
        """Fraction of lookups that hit (NaN before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else float("nan")


@dataclass(frozen=True)
class TlbGeometry:
    """Sizes/associativities for the two-level hierarchy."""

    l1_4k_entries: int = 64
    l1_4k_associativity: int = 4
    l1_2m_entries: int = 32
    l1_2m_associativity: int = 4
    l2_entries: int = 1024
    l2_associativity: int = 8

    @classmethod
    def xeon_e5_v3(cls) -> "TlbGeometry":
        """The paper's evaluation platform (Haswell-EP)."""
        return cls()


@dataclass(frozen=True)
class TlbAccessResult:
    """Where a translation was found, and whether a walk is needed."""

    hit_level: int  # 1 = L1, 2 = L2, 0 = miss everywhere
    huge: bool

    @property
    def needs_walk(self) -> bool:
        return self.hit_level == 0


class TlbHierarchy:
    """L1 (split by page size) backed by a shared L2.

    The L2 is unified across page sizes; 2MB entries occupy it keyed in a
    disjoint namespace so a 4KB and a 2MB entry never alias.
    """

    _HUGE_TAG = 1 << 60  # keeps 2MB keys disjoint from 4KB keys in the L2

    def __init__(self, geometry: TlbGeometry | None = None) -> None:
        geometry = geometry or TlbGeometry()
        self.geometry = geometry
        self.l1_4k = Tlb(geometry.l1_4k_entries, geometry.l1_4k_associativity, "L1-4K")
        self.l1_2m = Tlb(geometry.l1_2m_entries, geometry.l1_2m_associativity, "L1-2M")
        self.l2 = Tlb(geometry.l2_entries, geometry.l2_associativity, "L2")

    def access(self, vpn: PageNumber, huge: bool) -> TlbAccessResult:
        """Probe L1 then L2 for a translation; fills on the way back.

        ``vpn`` must be at the granularity matching ``huge`` (a 2MB page
        number for huge translations).
        """
        l1 = self.l1_2m if huge else self.l1_4k
        if l1.lookup(vpn):
            return TlbAccessResult(hit_level=1, huge=huge)
        l2_key = vpn | self._HUGE_TAG if huge else vpn
        if self.l2.lookup(l2_key):
            l1.fill(vpn)
            return TlbAccessResult(hit_level=2, huge=huge)
        return TlbAccessResult(hit_level=0, huge=huge)

    def fill(self, vpn: PageNumber, huge: bool) -> None:
        """Install a translation after a page walk (fills L1 and L2)."""
        l1 = self.l1_2m if huge else self.l1_4k
        l1.fill(vpn)
        self.l2.fill(vpn | self._HUGE_TAG if huge else vpn)

    def invalidate(self, vpn: PageNumber, huge: bool) -> None:
        """Flush one translation from every level (``invlpg`` semantics)."""
        l1 = self.l1_2m if huge else self.l1_4k
        l1.invalidate(vpn)
        self.l2.invalidate(vpn | self._HUGE_TAG if huge else vpn)

    def miss_rate(self) -> float:
        """Overall fraction of accesses that needed a page walk."""
        lookups = self.l1_4k.hits + self.l1_4k.misses + self.l1_2m.hits + self.l1_2m.misses
        walks = self.l2.misses
        return walks / lookups if lookups else float("nan")
