"""MySQL running TPC-C: table-structured access with a huge cold table.

Figure 6 / Section 5 of the paper: "The largest table in the TPCC schema,
the LINEITEM table, is infrequently read.  As a result, much of TPCC's
footprint (about 40-50%) is cold" — and Figure 11 shows the cold fraction
*saturating* around 45% even at a 10% slowdown target, because every
remaining page is genuinely hot.

The model builds the footprint from TPC-C's table mix: a large cold
order-line/history region, warm stock/customer regions, and hot
warehouse/district/index pages, scaled by the benchmark's warehouse count
(the paper uses scale factor 320).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import RateModelWorkload
from repro.workloads.distributions import layout_order


@dataclass(frozen=True)
class TpccTable:
    """One table's share of footprint and of memory traffic."""

    name: str
    footprint_fraction: float
    traffic_fraction: float


#: Approximate TPC-C table mix.  Footprint shares follow the schema's row
#: sizes and cardinalities at steady state; traffic shares follow the
#: transaction mix (New-Order and Payment dominate, touching stock,
#: customer, district, and index pages; ORDER-LINE and HISTORY grow large
#: but are rarely re-read).
TPCC_TABLES = (
    TpccTable("order-line", 0.32, 0.000002),
    TpccTable("history", 0.10, 0.000001),
    TpccTable("orders", 0.08, 0.025),
    TpccTable("stock", 0.22, 0.28),
    TpccTable("customer", 0.18, 0.272),
    TpccTable("item", 0.04, 0.10),
    TpccTable("district-warehouse", 0.02, 0.122),
    TpccTable("indexes-buffers", 0.04, 0.200997),
)


def build_tpcc_rates(
    num_pages: int,
    total_rate: float,
    rng: np.random.Generator,
    tables: tuple[TpccTable, ...] = TPCC_TABLES,
    shuffle: bool = True,
) -> np.ndarray:
    """Per-4KB-page rates from the table mix.

    Pages within a table share its traffic uniformly; with ``shuffle`` the
    tables' pages are interleaved through the address space as a buffer
    pool would place them.
    """
    if num_pages <= 0:
        raise WorkloadError(f"num_pages must be positive: {num_pages}")
    footprint_sum = sum(t.footprint_fraction for t in tables)
    traffic_sum = sum(t.traffic_fraction for t in tables)
    if abs(footprint_sum - 1.0) > 1e-6 or abs(traffic_sum - 1.0) > 1e-6:
        raise WorkloadError(
            f"table mix must sum to 1.0: footprint={footprint_sum} "
            f"traffic={traffic_sum}"
        )
    order = layout_order(num_pages, rng) if shuffle else None
    rates = np.empty(num_pages)
    start = 0
    for i, table in enumerate(tables):
        is_last = i == len(tables) - 1
        count = (
            num_pages - start
            if is_last
            else int(round(table.footprint_fraction * num_pages))
        )
        end = min(start + count, num_pages)
        if end > start:
            rates[start:end] = table.traffic_fraction * total_rate / (end - start)
        start = end
    return rates if order is None else rates[order]


class TpccWorkload(RateModelWorkload):
    """MySQL-TPCC as a static rate model over the table mix's rates.

    ``rates`` come from :func:`build_tpcc_rates`.
    """

    def __init__(
        self,
        name: str,
        rates: np.ndarray,
        file_mapped_bytes: int = 0,
        baseline_ops_per_second: float = 2_000.0,
        write_fraction: float = 0.35,
        burstiness: float = 0.0,
        duty_threshold: float | None = None,
        duty_floor: float = 0.05,
        duty_persistence: float = 4.0,
        num_pages: int | None = None,
    ) -> None:
        super().__init__(
            name,
            rates,
            file_mapped_bytes=file_mapped_bytes,
            baseline_ops_per_second=baseline_ops_per_second,
            write_fraction=write_fraction,
            burstiness=burstiness,
            duty_threshold=duty_threshold,
            duty_floor=duty_floor,
            duty_persistence=duty_persistence,
            num_pages=num_pages,
        )
