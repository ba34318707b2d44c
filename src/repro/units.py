"""Size, time, and rate units used throughout the Thermostat reproduction.

The paper works in a small set of physical units: 4 KB base pages, 2 MB huge
pages, nanosecond-scale DRAM latencies, microsecond-scale slow-memory
latencies, and multi-second scan intervals.  Keeping the conversion constants
in one module avoids the classic simulator bug of mixing nanoseconds with
seconds halfway through a latency budget.

Conventions:

* All *sizes* are plain ``int`` bytes.
* All *times* are ``float`` seconds unless a name says otherwise
  (``..._ns`` values are nanoseconds).
* All *rates* are events per second.
"""

from __future__ import annotations

# --- Sizes -----------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

BASE_PAGE_SIZE = 4 * KB
HUGE_PAGE_SIZE = 2 * MB

#: Number of 4KB subpages inside a 2MB huge page (512 on x86-64).
SUBPAGES_PER_HUGE_PAGE = HUGE_PAGE_SIZE // BASE_PAGE_SIZE

#: log2 of the base page size; shift for page-number arithmetic.
BASE_PAGE_SHIFT = 12
#: log2 of the huge page size.
HUGE_PAGE_SHIFT = 21
#: Shift converting a 4KB page number to its containing 2MB page number.
SUBPAGE_SHIFT = HUGE_PAGE_SHIFT - BASE_PAGE_SHIFT

# --- Times -----------------------------------------------------------------

NANOSECOND = 1e-9
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0

#: DRAM access latency assumed by the paper's introduction (50-100ns).
DRAM_LATENCY = 80 * NANOSECOND
#: Slow-memory access latency used by Thermostat's policy math (Section 3.4).
SLOW_MEMORY_LATENCY = 1 * MICROSECOND
#: BadgerTrap software fault latency measured by the paper (Section 4.2).
BADGERTRAP_FAULT_LATENCY = 1 * MICROSECOND

# --- Convenience converters -------------------------------------------------


def bytes_to_pages(num_bytes: int, page_size: int = BASE_PAGE_SIZE) -> int:
    """Return the number of pages covering ``num_bytes`` (rounded up)."""
    if num_bytes < 0:
        raise ValueError(f"negative byte count: {num_bytes}")
    return -(-num_bytes // page_size)


def base_to_huge(base_page_number: int) -> int:
    """Map a 4KB page number to the 2MB page number containing it."""
    return base_page_number >> SUBPAGE_SHIFT


def huge_to_base(huge_page_number: int) -> int:
    """Map a 2MB page number to the 4KB page number of its first subpage."""
    return huge_page_number << SUBPAGE_SHIFT


def subpage_index(base_page_number: int) -> int:
    """Return the index (0..511) of a 4KB page within its 2MB page."""
    return base_page_number & (SUBPAGES_PER_HUGE_PAGE - 1)


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a human-friendly suffix (e.g. ``'12.3GB'``)."""
    magnitude = float(num_bytes)
    for suffix, scale in (("GB", GB), ("MB", MB), ("KB", KB)):
        if abs(magnitude) >= scale:
            return f"{magnitude / scale:.1f}{suffix}"
    return f"{magnitude:.0f}B"


def format_rate(per_second: float) -> str:
    """Render an event rate (e.g. ``'30.0K/s'``)."""
    if abs(per_second) >= 1e6:
        return f"{per_second / 1e6:.1f}M/s"
    if abs(per_second) >= 1e3:
        return f"{per_second / 1e3:.1f}K/s"
    return f"{per_second:.1f}/s"
