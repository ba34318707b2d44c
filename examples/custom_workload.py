#!/usr/bin/env python
"""Bring your own workload: model an app and compare placement policies.

Defines a session-store-like workload from scratch — a Zipf-skewed key
space whose hot set rotates every ten minutes (sessions expire, new users
arrive) — and runs it under three policies on *identical* access streams
(each run builds a fresh workload under one seed, and what a policy does
never changes the workload's draws):

* Thermostat (the paper's policy),
* kstaled-style Accessed-bit placement (the motivating baseline),
* blind static placement of the same fraction Thermostat chose.

Run:
    python examples/custom_workload.py
"""

from repro import SimulationConfig, ThermostatPolicy, run_simulation
from repro.baselines import KstaledPolicy, StaticFractionPolicy
from repro.metrics.report import format_table
from repro.rng import make_rng
from repro.workloads.distributions import zipfian_rates
from repro.workloads.kv import KeyValueWorkload

NUM_PAGES = 200 * 512  # 400MB footprint
TOTAL_RATE = 150_000.0  # accesses/sec
DURATION = 1800.0
EPOCH = 30.0


def make_session_store() -> KeyValueWorkload:
    """A session store: Zipf popularity, hot set rotating every ~10min."""
    rng = make_rng(42)
    rates = zipfian_rates(NUM_PAGES, TOTAL_RATE, exponent=0.9, rng=rng)
    return KeyValueWorkload(
        "session-store",
        rates,
        baseline_ops_per_second=30_000.0,
        write_fraction=0.3,
        burstiness=0.3,
        drift_interval=600.0,
        drift_fraction=0.002,
        drift_seed=7,
    )


def main() -> None:
    # A fresh workload per run under one seed: every policy sees the
    # same access stream.
    config = SimulationConfig(duration=DURATION, epoch=EPOCH, seed=1)

    thermostat = run_simulation(make_session_store(), ThermostatPolicy(), config)
    kstaled = run_simulation(
        make_session_store(), KstaledPolicy(idle_scans=1), config
    )
    static = run_simulation(
        make_session_store(),
        StaticFractionPolicy(thermostat.final_cold_fraction),
        config,
    )

    def row(label, result):
        return (
            label,
            f"{100 * result.average_cold_fraction:.1f}%",
            f"{100 * result.average_slowdown:.2f}%",
            f"{result.migration_rate_mbps() + result.correction_rate_mbps():.2f}",
        )

    print(
        format_table(
            "Session store (400MB, Zipf 0.9, rotating hot set): policy shoot-out",
            ["policy", "avg cold", "avg slowdown", "traffic MB/s"],
            [
                row("thermostat", thermostat),
                row("kstaled (Accessed bits)", kstaled),
                row("static random (same size)", static),
            ],
        )
    )
    print()
    print(
        "Reading: with a Zipf-skewed store no 2MB page is ever fully idle,\n"
        "so Accessed-bit placement (kstaled) finds nothing demotable at\n"
        "all; blind placement of the same volume Thermostat chose blows\n"
        "far past any slowdown target.  Only rate estimation can separate\n"
        "the lukewarm tail from the hot head and stay within budget."
    )


if __name__ == "__main__":
    main()
