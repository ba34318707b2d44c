"""Tests for the paper-suite workload registry."""

import tracemalloc

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.errors import WorkloadError
from repro.sim.engine import EpochSimulation
from repro.units import GB
from repro.workloads import WORKLOAD_NAMES, make_workload, registry, workload_suite
from repro.workloads.registry import (
    BASELINE_OPS,
    TABLE2_FOOTPRINTS,
    TOTAL_ACCESS_RATES,
)

SCALE = 0.02  # tiny for test speed

#: The attribute holding each suite member's static vector.
STATIC_VECTOR = {
    "aerospike": "_rates",
    "cassandra": "_base_rates",
    "in-memory-analytics": "_template",
    "mysql-tpcc": "_rates",
    "redis": "_rates",
    "web-search": "_rates",
}


def static_vector(workload):
    return getattr(workload, STATIC_VECTOR[workload.name])


def run_to_end(workload):
    """One Thermostat run of 600 s: past aerospike's first drift event (300 s)."""
    config = SimulationConfig(duration=600.0, seed=1)
    return EpochSimulation(workload, ThermostatPolicy(), config).run()


class TestSuiteConstruction:
    def test_all_names_buildable(self):
        suite = workload_suite(scale=SCALE)
        assert set(suite) == set(WORKLOAD_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("memcached")

    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("redis", scale=0.0)
        with pytest.raises(WorkloadError):
            make_workload("redis", scale=2.0)


class TestCalibrationInvariants:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_footprint_scales(self, name):
        workload = make_workload(name, scale=SCALE)
        paper_total = sum(TABLE2_FOOTPRINTS[name])
        # Growing workloads report the initial RSS; compare total model
        # footprint (final) against paper total.
        model_total = workload.total_base_pages * 4096
        assert model_total == pytest.approx(paper_total * SCALE, rel=0.15)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_total_rate_is_scale_invariant(self, name):
        """Aggregate access rates must not depend on scale, or budget
        comparisons (cold fractions) would change with scale."""
        small = make_workload(name, scale=SCALE).total_access_rate(0.0)
        large = make_workload(name, scale=4 * SCALE).total_access_rate(0.0)
        assert small == pytest.approx(large, rel=0.1)
        assert small == pytest.approx(TOTAL_ACCESS_RATES[name], rel=0.35)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_deterministic_given_seed(self, name):
        a = make_workload(name, scale=SCALE, seed=9).rates_at(0.0)
        b = make_workload(name, scale=SCALE, seed=9).rates_at(0.0)
        assert np.array_equal(a, b)

    def test_baseline_ops_match_paper(self):
        assert BASELINE_OPS["redis"] == pytest.approx(188_000)
        assert BASELINE_OPS["aerospike"] == pytest.approx(176_000)
        assert BASELINE_OPS["web-search"] == pytest.approx(50)

    def test_table2_values(self):
        assert TABLE2_FOOTPRINTS["redis"][0] == pytest.approx(17.2 * GB, rel=0.01)
        assert TABLE2_FOOTPRINTS["cassandra"] == (8 * GB, 4 * GB)


class TestShapeSignatures:
    def test_redis_has_extreme_hotspot(self):
        rates = make_workload("redis", scale=SCALE).rates_at(0.0)
        top = np.sort(rates)[::-1]
        hot_count = max(1, int(1e-4 / SCALE * rates.size))
        assert top[:hot_count].sum() > 0.85 * rates.sum()

    def test_tpcc_has_large_dead_region(self):
        rates = make_workload("mysql-tpcc", scale=SCALE).rates_at(0.0)
        huge = rates.reshape(-1, 512).sum(axis=1)
        nearly_dead = (huge < 1.0 / SCALE * 0.05).mean()
        assert nearly_dead > 0.3

    def test_websearch_dead_band(self):
        rates = make_workload("web-search", scale=SCALE).rates_at(0.0)
        huge = rates.reshape(-1, 512).sum(axis=1)
        assert (huge < 1.0).mean() > 0.3

    def test_aerospike_gradient(self):
        """Aerospike has a smooth gradient, not a two-band cliff."""
        rates = make_workload("aerospike", scale=SCALE).rates_at(0.0)
        huge = np.sort(rates.reshape(-1, 512).sum(axis=1))
        quartiles = np.percentile(huge, [25, 50, 75])
        assert quartiles[0] < quartiles[1] < quartiles[2]
        assert quartiles[2] < 30 * max(quartiles[0], 1e-9)


class TestSharedStaticVectors:
    """Builds share one read-only vector per (name, scale, seed)."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_second_build_shares_the_vector(self, name):
        first = make_workload(name, scale=SCALE, seed=11)
        second = make_workload(name, scale=SCALE, seed=11)
        assert second is not first
        assert np.shares_memory(static_vector(first), static_vector(second))

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_shared_vector_cannot_be_written(self, name):
        vector = static_vector(make_workload(name, scale=SCALE))
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            vector.flags.writeable = True

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_run_on_a_table_hit_equals_a_fresh_draw(self, name, monkeypatch):
        run_to_end(make_workload(name, scale=SCALE))
        reused = run_to_end(make_workload(name, scale=SCALE))
        monkeypatch.setattr(registry, "_VECTORS", {})
        fresh = run_to_end(make_workload(name, scale=SCALE))
        assert reused.summary() == fresh.summary()
        assert reused.stats.snapshot() == fresh.stats.snapshot()
        for series in fresh.stats.series:
            assert np.array_equal(
                reused.series(series).values, fresh.series(series).values
            )
        assert np.array_equal(reused.state.tier, fresh.state.tier)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_seeds_and_scales_never_share(self, name):
        vectors = [
            static_vector(make_workload(name, scale=scale, seed=seed))
            for scale, seed in ((SCALE, 1), (SCALE, 2), (2 * SCALE, 1))
        ]
        for i, one in enumerate(vectors):
            for other in vectors[i + 1 :]:
                assert not np.shares_memory(one, other)

    def test_drift_leaves_the_table_unchanged(self):
        workload = make_workload("aerospike", scale=SCALE)
        table_vector = registry._VECTORS[("aerospike", SCALE, None)]
        before = table_vector.copy()
        run_to_end(workload)
        assert workload._drifts_applied >= 1
        assert not np.shares_memory(static_vector(workload), table_vector)
        assert np.array_equal(table_vector, before)


class TestBuildMemory:
    """A build holds at most its rates, an int32 layout permutation and
    the laid-out vector at once: 2.5x the stored vector (DESIGN.md,
    "Workload builds share their static vectors")."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_peak_is_at_most_two_and_three_quarter_vectors(self, name, monkeypatch):
        monkeypatch.setattr(registry, "_VECTORS", {})
        make_workload(name, scale=0.1)  # first-use imports are not the build's
        registry._VECTORS.clear()
        tracemalloc.start()
        try:
            make_workload(name, scale=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (vector,) = registry._VECTORS.values()
        assert peak <= 2.75 * vector.nbytes
