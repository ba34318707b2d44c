#!/usr/bin/env python
"""Multi-tenant consolidation: three tenants share one host's DRAM.

The paper's deployment argument is that cold-data management belongs in
the *host*: the cloud provider "may wish to transparently substitute
cheap memory for DRAM" across whatever customers happen to be scheduled
together.  This example co-locates three tenants with very different
temperaments —

* a latency-critical Redis frontend (hotspot traffic),
* a MySQL-TPCC order system (large dead tables), and
* a web-search index (dead index segments) —

on a host whose DRAM covers 80% of their combined footprint, using the
fleet simulation (:mod:`repro.fleet`).  Each tenant runs its own
Thermostat instance against its own 3% slowdown target; a host-side
arbiter splits the shared DRAM budget into per-tenant grants and moves
grant from tenant to tenant when one misses its SLO.

Run:
    python examples/multi_tenant.py
"""

from repro.fleet import FleetConfig, FleetSimulation, TenantSpec
from repro.metrics.report import format_table
from repro.units import format_bytes

SCALE = 0.04
TENANTS = ("redis", "mysql-tpcc", "web-search")


def main() -> None:
    specs = [
        TenantSpec(
            name=workload,
            workload=workload,
            scale=SCALE,
            slo_slowdown=0.05,
            tolerable_slowdown=0.03,
            seed=seed,
        )
        for seed, workload in enumerate(TENANTS, start=1)
    ]
    fleet = FleetSimulation(
        specs,
        config=FleetConfig(
            duration=1800.0, epoch=30.0, seed=1, host_dram_fraction=0.8
        ),
    )
    outcome = fleet.run()

    footprint = sum(t.footprint_bytes for t in outcome.tenants.values())
    print(
        f"host DRAM: {format_bytes(fleet.arbiter.base_host_dram_bytes)} "
        f"for {format_bytes(footprint)} of tenant footprint "
        f"across {len(specs)} tenants\n"
    )
    rows = []
    for name, tenant in outcome.tenants.items():
        result = outcome.results[name]
        rows.append(
            (
                name,
                format_bytes(tenant.footprint_bytes),
                format_bytes(tenant.grant_bytes),
                f"{100 * result.final_cold_fraction:.1f}%",
                f"{100 * result.average_slowdown:.2f}%",
                f"{100 * tenant.slo_attainment:.0f}%",
            )
        )
    print(
        format_table(
            "Per-tenant Thermostat (3% target, 5% SLO) under a shared DRAM budget",
            ["tenant", "footprint", "DRAM grant", "cold", "avg slowdown", "SLO met"],
            rows,
        )
    )
    arbiter = outcome.scorecard["arbiter"]
    print()
    print(
        f"arbiter: {arbiter['decisions']} decisions, "
        f"{arbiter['reallocations']} grant reallocations, "
        f"{arbiter['quarantines']} quarantines"
    )
    print()
    print(
        "Reading: no tenant is configured for its neighbours.  Each\n"
        "tenant's Thermostat picks its own cold pages against its own 3%\n"
        "target (TPCC its dead tables, web search its dead index\n"
        "segments); the arbiter only sets how much DRAM each may keep.\n"
        "Redis needs about 90% of its footprint in DRAM, so its first\n"
        "grant forces out pages its Thermostat would keep (a one-epoch\n"
        "slowdown spike inside its average); the arbiter then answers\n"
        "its SLO misses with more grant whenever it has some to give."
    )


if __name__ == "__main__":
    main()
