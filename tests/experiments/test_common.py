"""Tests for experiment plumbing (durations, caching, policies)."""

import pytest

from repro.experiments import common


class TestSuiteDurations:
    def test_covers_suite(self):
        from repro.workloads import WORKLOAD_NAMES

        durations = common.suite_durations()
        assert set(durations) == set(WORKLOAD_NAMES)
        assert all(d > 0 for d in durations.values())

    def test_analytics_short_like_paper(self):
        """Cloudsuite analytics runs ~317s in the paper."""
        durations = common.suite_durations()
        assert durations["in-memory-analytics"] < 400
        assert durations["in-memory-analytics"] == min(durations.values())

    def test_analytics_scanned_faster(self):
        epochs = common.suite_epochs()
        assert epochs["in-memory-analytics"] == 10.0


class TestRunCaching:
    def test_cache_returns_equal_but_independent_objects(self):
        """The store reuses the simulation but never the object graph."""
        a = common.run_thermostat("web-search", scale=0.02, seed=3)
        b = common.run_thermostat("web-search", scale=0.02, seed=3)
        assert a is not b
        assert a.summary() == b.summary()
        assert a.fault_summary() == b.fault_summary()

    def test_mutating_a_cached_result_does_not_leak(self):
        """Regression: lru_cache handed every caller one mutable result."""
        a = common.run_thermostat("web-search", scale=0.02, seed=3)
        baseline = a.stats.counter("total_slow_accesses").value
        a.stats.counter("total_slow_accesses").add(1e9)
        a.extras["poisoned"] = True
        b = common.run_thermostat("web-search", scale=0.02, seed=3)
        assert b.stats.counter("total_slow_accesses").value == baseline
        assert "poisoned" not in b.extras

    def test_different_params_different_runs(self):
        a = common.run_thermostat("web-search", scale=0.02, seed=3)
        b = common.run_thermostat("web-search", scale=0.02, seed=4)
        assert a.summary() != b.summary()

    def test_clear_cache(self):
        a = common.run_thermostat("web-search", scale=0.02, seed=3)
        common.get_store().clear_memory()
        b = common.run_thermostat("web-search", scale=0.02, seed=3)
        assert a is not b
        assert a.summary() == b.summary()


class TestPolicies:
    def test_alldram_policy_selectable(self):
        result = common.run_thermostat(
            "web-search", scale=0.02, seed=5, policy="all-dram", duration=90.0
        )
        assert result.final_cold_fraction == 0.0

    def test_kstaled_policy_selectable(self):
        result = common.run_thermostat(
            "web-search", scale=0.02, seed=5, policy="kstaled", duration=90.0
        )
        assert result.policy_name == "kstaled"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            common.run_thermostat("web-search", scale=0.02, policy="magic")
