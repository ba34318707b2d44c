"""OS-kernel substrate: address spaces, THP, faults, BadgerTrap, cgroups.

These modules model the Linux 4.5 machinery Thermostat was implemented in:

* :mod:`repro.kernel.vma` — virtual memory areas;
* :mod:`repro.kernel.mmu` — the per-process address space: mapping, THP
  allocation, the per-access mechanism path (TLB -> walk -> fault -> data);
* :mod:`repro.kernel.thp` — transparent huge page policy and khugepaged-style
  collapse;
* :mod:`repro.kernel.fault` — page-fault dispatch;
* :mod:`repro.kernel.badgertrap` — the poisoned-PTE fault interception used
  both for access counting (Section 3.3) and slow-memory emulation
  (Section 4.2);
* :mod:`repro.kernel.cgroup` — the cgroup-style runtime control surface.
"""

from repro.kernel.mmu import AddressSpace
from repro.kernel.badgertrap import BadgerTrap
from repro.kernel.cgroup import MemoryCgroup

__all__ = ["AddressSpace", "BadgerTrap", "MemoryCgroup"]
