"""Thermostat reproduction: two-tiered main memory page management.

This package reimplements, as a trace/epoch-driven simulation, the system
described in *Thermostat: Application-transparent Page Management for
Two-tiered Main Memory* (Agarwal & Wenisch, ASPLOS 2017), together with
every substrate it depends on (page tables, TLBs, BadgerTrap, THP, NUMA
migration, nested paging) and the workload models used by its
evaluation.

Quick start::

    from repro import ThermostatPolicy, make_workload, run_simulation

    result = run_simulation(make_workload("redis", scale=0.05),
                            ThermostatPolicy())
    print(result.final_cold_fraction, result.average_slowdown)

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from repro.config import FaultConfig, SimulationConfig, ThermostatConfig
from repro.core.thermostat import ThermostatPolicy
from repro.sim.engine import EpochSimulation, SimulationResult, run_simulation
from repro.version import __version__
from repro.workloads import WORKLOAD_NAMES, make_workload, workload_suite

__all__ = [
    "FaultConfig",
    "SimulationConfig",
    "ThermostatConfig",
    "ThermostatPolicy",
    "EpochSimulation",
    "SimulationResult",
    "run_simulation",
    "WORKLOAD_NAMES",
    "make_workload",
    "workload_suite",
    "__version__",
]
