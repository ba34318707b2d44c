"""Workload models for the paper's six cloud applications.

The paper drives Aerospike, Cassandra, MySQL-TPCC, Redis, an in-memory
analytics job, and web search with YCSB/OLTP-Bench/Cloudsuite traffic.  We
cannot run those servers; instead each module here synthesizes the *page
access-rate distribution* the corresponding application exhibits, calibrated
to Table 2's footprints and the skews the paper describes (hotspot keys,
cold LINEITEM tables, growing memtables, phased analytics).

All models derive from :class:`repro.workloads.base.Workload` and emit
:class:`~repro.sim.profile.EpochProfile` objects; the named paper
configurations live in :mod:`repro.workloads.registry`.
"""

from repro.workloads.base import RateModelWorkload, Workload
from repro.workloads.registry import WORKLOAD_NAMES, make_workload, workload_suite

__all__ = [
    "Workload",
    "RateModelWorkload",
    "WORKLOAD_NAMES",
    "make_workload",
    "workload_suite",
]
