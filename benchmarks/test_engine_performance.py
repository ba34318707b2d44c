"""Engine performance benchmarks (simulator speed, not paper results).

The epoch engine is the reproduction's workhorse: these benchmarks track
how fast it simulates, including one paper-scale (17.2GB Redis) run —
the configuration every figure would use with unlimited patience.
"""

from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.sim.engine import run_simulation
from repro.workloads import make_workload


def test_epoch_engine_throughput_small(benchmark):
    """Ten epochs of the 1/20-scale Redis under Thermostat."""

    def run():
        return run_simulation(
            make_workload("redis", scale=0.05),
            ThermostatPolicy(),
            SimulationConfig(duration=300, epoch=30, seed=1),
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.stats.counter("epochs").value == 10


def test_epoch_engine_paper_scale_redis(benchmark):
    """Five epochs of the FULL 17.2GB Redis footprint.

    Times the *engine* (workload construction happens outside the timed
    region — it is one-time setup, not per-epoch cost): one Poisson draw
    per 2MB page, subpage resolution only for the monitored sample.
    """
    workload = make_workload("redis", scale=1.0)

    def run():
        return run_simulation(
            workload,
            ThermostatPolicy(),
            SimulationConfig(duration=150, epoch=30, seed=1),
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.stats.counter("epochs").value == 5
    assert result.state.num_huge_pages > 8000


def test_parallel_suite_speedup(benchmark):
    """Fan four independent runs over worker processes via run_many.

    On multi-core hosts this demonstrates the wall-clock win of
    ``--jobs``; everywhere it locks the contract that the fan-out path
    produces exactly the serial results (asserted against a serial rerun
    of the same specs through fresh stores).
    """
    import os
    import time

    from repro.experiments.parallel import ResultStore, RunSpec, run_many

    specs = [
        RunSpec(workload="redis", scale=0.05, duration=300.0, epoch=30.0, seed=s)
        for s in (1, 2, 3, 4)
    ]
    jobs = min(4, os.cpu_count() or 1)

    started = time.perf_counter()
    serial = run_many(specs, jobs=1, store=ResultStore())
    serial_elapsed = time.perf_counter() - started

    timings: list[float] = []

    def fan_out():
        t0 = time.perf_counter()
        results = run_many(specs, jobs=jobs, store=ResultStore())
        timings.append(time.perf_counter() - t0)
        return results

    fanned = benchmark.pedantic(fan_out, rounds=3, iterations=1)
    fanned_elapsed = min(timings)

    for a, b in zip(serial, fanned, strict=True):
        assert a.summary() == b.summary()
        assert a.fault_summary() == b.fault_summary()

    if jobs >= 2:
        # Process fan-out has fixed fork/pickle overhead; on a multi-core
        # host four 300s-sim runs amortize it well past break-even.
        assert fanned_elapsed < serial_elapsed * 0.9, (
            f"parallel ({fanned_elapsed:.2f}s, jobs={jobs}) not faster than "
            f"serial ({serial_elapsed:.2f}s)"
        )


def test_result_store_replay_speed(benchmark):
    """Fetching a stored run must be far cheaper than simulating it."""
    import time

    from repro.experiments.parallel import ResultStore, RunSpec, run_many

    spec = RunSpec(workload="redis", scale=0.05, duration=300.0, epoch=30.0, seed=1)
    store = ResultStore()
    started = time.perf_counter()
    run_many([spec], store=store)
    simulate_elapsed = time.perf_counter() - started

    timings: list[float] = []

    def replay():
        t0 = time.perf_counter()
        result = run_many([spec], store=store)[0]
        timings.append(time.perf_counter() - t0)
        return result

    result = benchmark.pedantic(replay, rounds=5, iterations=1)
    assert result.stats.counter("epochs").value == 10
    assert min(timings) < simulate_elapsed


def test_mechanism_engine_access_rate(benchmark):
    """Raw per-access cost of the mechanism path (TLB + table + LLC)."""
    import numpy as np

    from repro.kernel.mmu import AddressSpace
    from repro.units import HUGE_PAGE_SIZE

    space = AddressSpace(use_llc=True)
    space.mmap(0, 16 * HUGE_PAGE_SIZE)
    rng = np.random.default_rng(0)
    addresses = (
        rng.integers(0, 16, size=5000) * HUGE_PAGE_SIZE
        + rng.integers(0, HUGE_PAGE_SIZE, size=5000)
    )

    def run():
        for address in addresses:
            space.access(int(address))
        return True

    assert benchmark.pedantic(run, rounds=3, iterations=1)
