"""End-to-end checks of the paper's claims (shape, not numbers).

These run the real experiment harness at a small scale and assert the
qualitative structure the paper reports for every figure, table and
extension experiment.  They are the slowest tests in the suite; the
figure and table checks share the suite runs through the experiments'
result store.  The design ablations (Sections 3.2, 3.5 and 4.4) live in
``tests/core/test_thermostat_policy.py``.
"""

import numpy as np
import pytest

from repro.cost.model import TABLE4_COST_RATIOS
from repro.experiments import (
    ext_counting,
    ext_faults,
    ext_fleet,
    ext_latency,
    ext_oracle,
    ext_thp_tradeoff,
    ext_wear,
    fig1_idle_fraction,
    fig2_accessbit_scatter,
    fig3_slowmem_rate,
    fig11_slowdown_sweep,
    table1_thp_gain,
    table2_footprints,
    table4_cost,
)
from repro.experiments.common import run_suite, run_thermostat
from repro.workloads import WORKLOAD_NAMES

SCALE = 0.05
SEED = 1
#: Seeds over which a noisy trajectory claim is stated.
ENSEMBLE_SEEDS = range(1, 9)

#: Figures 5-10: (min, max) final cold fraction and the throughput
#: degradation ceiling at this scale.
FOOTPRINT_BOUNDS = {
    "cassandra": (0.2, 0.55, 0.055),
    "mysql-tpcc": (0.33, 0.55, 0.04),
    "aerospike": (0.05, 0.25, 0.045),
    "redis": (0.04, 0.18, 0.055),
    "in-memory-analytics": (0.08, 0.3, 0.045),
    "web-search": (0.25, 0.5, 0.02),
}


@pytest.fixture(scope="module")
def suite_results():
    return {
        name: run_thermostat(name, scale=SCALE, seed=SEED)
        for name in WORKLOAD_NAMES
    }


@pytest.fixture(scope="module")
def ensemble():
    return [run_suite(scale=SCALE, seed=seed) for seed in ENSEMBLE_SEEDS]


class TestHeadlineClaims:
    def test_cold_fraction_ordering(self, suite_results):
        """TPCC and web-search demote far more than Redis and Aerospike."""
        cold = {n: r.final_cold_fraction for n, r in suite_results.items()}
        assert cold["mysql-tpcc"] > 2 * cold["redis"]
        assert cold["web-search"] > 2 * cold["aerospike"]

    def test_up_to_half_footprint_migrates(self, suite_results):
        """Abstract: 'migrates up to 50% of application footprint'."""
        best = max(r.final_cold_fraction for r in suite_results.values())
        assert 0.35 < best <= 0.60

    def test_slowdowns_near_target(self, suite_results):
        """All apps stay in the neighbourhood of the 3% target."""
        for name, result in suite_results.items():
            assert result.average_slowdown < 0.055, name

    def test_websearch_nearly_free(self, suite_results):
        """Figure 10: <1% degradation for web search."""
        assert suite_results["web-search"].throughput_degradation < 0.015

    def test_redis_limited_to_about_ten_percent(self, suite_results):
        """Section 6: Redis cannot give up much more than 10%."""
        assert suite_results["redis"].final_cold_fraction < 0.18

    def test_migration_traffic_within_bounds(self, suite_results):
        """Table 3: normalized traffic well below 30MB/s average."""
        for name, result in suite_results.items():
            assert result.migration_rate_mbps() / SCALE < 30.0, name
            assert result.correction_rate_mbps() / SCALE < 30.0, name
            assert result.peak_slow_traffic_mbps(window=30.0) / SCALE < 120.0, name

    def test_redis_has_highest_correction_traffic(self, suite_results):
        """Table 3: Redis suffers the most mis-classification."""
        corrections = {
            n: r.correction_rate_mbps() for n, r in suite_results.items()
        }
        assert corrections["redis"] == max(corrections.values())
        assert corrections["web-search"] == min(corrections.values())

    def test_cost_savings_headline(self, suite_results):
        """Abstract: 'reducing memory cost up to 30%' at 1/4 cost ratio."""
        from repro.cost.model import CostModel

        best = max(r.final_cold_fraction for r in suite_results.values())
        assert CostModel(0.25).savings_fraction(best) > 0.25


class TestFigures:
    def test_fig1_idle_fraction(self):
        """Over 50% of MySQL's pages are idle for 10s; placing Redis's idle
        pages would cost >10x the slowdown target."""
        results = fig1_idle_fraction.run(SCALE, SEED, 10)
        by_name = {r.workload: r for r in results}
        assert by_name["mysql-tpcc"].idle_fraction == max(
            r.idle_fraction for r in results
        )
        assert by_name["mysql-tpcc"].idle_fraction > 0.3
        # Idleness is a terrible placement signal for Redis, a fine one
        # for web-search.
        assert by_name["redis"].placement_slowdown > 0.03
        assert by_name["web-search"].placement_slowdown < 0.005

    def test_fig2_accessbit_scatter(self):
        """A 2MB page's Accessed-bit count is poorly correlated with its
        true access rate (Redis)."""
        result = fig2_accessbit_scatter.run("redis", SCALE, SEED, 250)
        assert abs(result.pearson_r()) < 0.5
        assert abs(result.spearman_r()) < 0.5
        # Same-signature pages span widely different rates.
        assert result.true_rates.max() > 10 * result.true_rates.min() + 1

    def test_fig3_slow_memory_rate(self):
        """The slow-memory access rate tracks the 30K acc/s budget."""
        by_name = {r.workload: r for r in fig3_slowmem_rate.run(0.03, SCALE, SEED)}
        # Budget-limited workloads settle near the target.
        for name in ("redis", "aerospike"):
            settled = by_name[name].settled_mean()
            assert 0.5 * 30_000 < settled < 2.0 * 30_000, name
        # Web search barely touches slow memory (its cold set is dead).
        assert by_name["web-search"].settled_mean() < 0.5 * 30_000
        # Nothing runs away: peaks stay within an order of magnitude.
        for name, result in by_name.items():
            assert result.peak_rate() < 12 * result.target_rate, name

    @pytest.mark.parametrize("name", list(FOOTPRINT_BOUNDS))
    def test_footprint_figure(self, suite_results, name):
        """Figures 5-10: final cold fraction and throughput degradation."""
        lo, hi, max_degradation = FOOTPRINT_BOUNDS[name]
        result = suite_results[name]
        assert lo <= result.final_cold_fraction <= hi
        assert result.throughput_degradation <= max_degradation

    def test_cassandra_footprint_grows(self, suite_results):
        """Figure 5: the footprint grows as memtables fill."""
        result = suite_results["cassandra"]
        hot = result.series("hot_2mb_bytes").values
        cold = result.series("cold_2mb_bytes").values
        assert hot[-1] + cold[-1] > hot[0] + cold[0]

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_cold_data_holds_after_warmup(self, ensemble, name):
        """Figures 5-10: cold data does not collapse after warm-up.

        On a flat trajectory a per-seed ``final >= quarter-mark`` check is
        a coin flip, so the claim is stated over seeds 1-8: the seed-mean
        final 2MB-cold bytes is at least half the seed-mean at the quarter
        mark.
        """
        series = [suite[name].series("cold_2mb_bytes").values for suite in ensemble]
        final = np.mean([values[-1] for values in series])
        quarter = np.mean([values[len(values) // 4] for values in series])
        assert final >= 0.5 * quarter


class TestFigure11Shape:
    def test_sweep_structure(self):
        cells = fig11_slowdown_sweep.run(scale=SCALE, seed=SEED)
        grouped = fig11_slowdown_sweep.by_workload(cells)

        def fractions(name):
            return [c.cold_fraction for c in grouped[name]]

        # Monotone non-decreasing for every workload (small tolerance for
        # run-to-run noise).
        for name, row in grouped.items():
            values = [c.cold_fraction for c in row]
            assert all(
                b >= a - 0.05 for a, b in zip(values, values[1:], strict=False)
            ), name

        # Aerospike and Redis scale strongly; TPCC and web-search saturate.
        aero = fractions("aerospike")
        assert aero[-1] > 1.8 * aero[0]
        redis = fractions("redis")
        assert redis[-1] > 1.6 * redis[0]
        tpcc = fractions("mysql-tpcc")
        assert tpcc[-1] < 1.35 * tpcc[0]
        search = fractions("web-search")
        assert search[-1] < 1.25 * search[0]

        # Every cell meets its (tolerance-padded) performance target.
        for cell in cells:
            assert cell.met_target, (cell.workload, cell.tolerable_slowdown)


class TestTable1Shape:
    def test_gains_match_paper_structure(self):
        rows = {r.workload: r for r in table1_thp_gain.run()}
        # Redis is the biggest winner; web-search gains nothing.
        assert rows["redis"].gain_virtualized == max(
            r.gain_virtualized for r in rows.values()
        )
        assert rows["web-search"].gain_virtualized < 0.01
        # Virtualization magnifies every gain.
        for name, row in rows.items():
            if row.gain_virtualized > 0.01:
                assert row.gain_virtualized > row.gain_native, name

    def test_gains_within_tolerance_of_paper(self):
        for row in table1_thp_gain.run():
            assert row.gain_virtualized == pytest.approx(
                row.paper_gain, abs=0.025
            ), row.workload


class TestTables:
    def test_table2_footprints(self):
        rows = table2_footprints.run(SCALE)
        assert len(rows) == 6
        for row in rows:
            model_total = row.resident_bytes + row.file_mapped_bytes
            paper_total = row.paper_resident + row.paper_file_mapped
            assert model_total == pytest.approx(paper_total * SCALE, rel=0.35), (
                row.workload
            )
        # Redis is the biggest footprint, web-search the smallest.
        by_name = {r.workload: r.paper_resident for r in rows}
        assert by_name["redis"] == max(by_name.values())
        assert by_name["web-search"] == min(by_name.values())

    def test_table4_cost(self):
        """10% (Aerospike) to 32% (Cassandra) of DRAM spending saved."""
        rows = table4_cost.run(SCALE, SEED)
        by_name = {r.workload: r for r in rows}
        # Big-cold-fraction workloads save the most.
        best = max(rows, key=lambda r: r.savings[0.25])
        assert best.workload in ("mysql-tpcc", "cassandra", "web-search")
        assert best.savings[0.25] > 0.2
        # Redis and Aerospike save the least.
        assert by_name["redis"].savings[0.25] < 0.15
        assert by_name["aerospike"].savings[0.25] < 0.15
        # Cheaper slow memory monotonically increases savings.
        for row in rows:
            savings = [row.savings[r] for r in TABLE4_COST_RATIOS]
            assert savings == sorted(savings)


class TestExtensions:
    def test_counting_backends(self):
        """Section 6.1: the stock 1KHz PEBS rate cannot resolve cold-page
        rates at the 30K acc/s operating point; BadgerTrap and the
        proposed extensions can."""
        results = {r.name: r for r in ext_counting.run(SEED).results}
        badger = next(v for k, v in results.items() if "badgertrap" in k)
        stock = next(v for k, v in results.items() if "1KHz" in k)
        extended = next(v for k, v in results.items() if "48b" in k)
        cm = next(v for k, v in results.items() if "CM bit" in k)
        assert badger.cold_rate_error < 0.1
        assert badger.overhead_fraction < 0.01
        assert stock.cold_rate_error > 5 * badger.cold_rate_error
        assert extended.cold_rate_error < 0.5 * stock.cold_rate_error
        assert cm.cold_rate_error < 0.1

    def test_faults_degrade_gracefully(self):
        rows = ext_faults.run(SCALE, SEED)
        assert len(rows) == len(ext_faults.FAILURE_RATES)
        baseline, worst = rows[0], rows[-1]
        # Flaky migrations surface as retries and backoff overhead.
        assert baseline.migration_retries == 0
        assert worst.migration_retries > 0
        assert worst.retry_overhead_seconds > baseline.retry_overhead_seconds
        assert worst.degraded_epochs > 0
        # Even at a 70% per-attempt failure rate the slowdown stays within
        # 2x of the fault-free run.
        assert worst.average_slowdown < max(2 * baseline.average_slowdown, 0.06)

    def test_fleet_resilience_gate(self):
        rows = ext_fleet.run(SCALE, SEED)
        assert [row["scenario"] for row in rows] == list(ext_fleet.DEFAULT_CHAOS)
        for row in rows:
            scorecard = row["scorecard"]
            assert scorecard["invariants"]["violations"] == 0
            slo = scorecard["slo"]
            assert slo["violations_with_response"] == slo["violations_total"]
        adversarial = next(r for r in rows if r["scenario"] == "adversarial")
        assert adversarial["scorecard"]["tenants"]["impossible"]["quarantined"]

    def test_latency_degradation(self):
        """Cassandra ~1% higher percentiles; web search no observable p99
        degradation; everything within a few percent."""
        rows = ext_latency.run(SCALE, SEED)
        by_name = {r.workload: r for r in rows}
        assert by_name["web-search"].p99 < 0.005
        assert by_name["cassandra"].p99 < 0.03
        for row in rows:
            assert row.mean < 0.04, row.workload
            assert row.p99 < 0.06, row.workload

    def test_oracle_gap(self):
        rows = ext_oracle.run(SCALE, SEED)
        by_name = {r.workload: r for r in rows}
        for row in rows:
            assert row.thermostat_cold <= row.oracle_cold + 0.05, row.workload
        assert by_name["mysql-tpcc"].coverage > 0.8
        assert by_name["web-search"].coverage > 0.75
        assert by_name["redis"].coverage < 0.7

    def test_thp_tradeoff(self):
        """Thermostat banks the memory savings while keeping the huge-page
        gain a 4KB-grain two-tier system gives up."""
        rows = ext_thp_tradeoff.run(SCALE, SEED)
        by_name = {r.workload: r for r in rows}
        for row in rows:
            assert row.thermostat_net >= row.tier_4kb_net - 1e-12, row.workload
        assert by_name["redis"].advantage > 0.25
        assert by_name["web-search"].advantage < 0.01
        assert by_name["mysql-tpcc"].thermostat_net > 1.0

    def test_wear(self):
        """Section 6: slow-memory traffic stays well below endurance
        limits, and Start-Gap levels a hotspot pattern."""
        for row in ext_wear.run_lifetimes(SCALE, SEED):
            assert row.lifetime_years_ideal > 20, row.workload
        start_gap = ext_wear.run_start_gap_demo(seed=SEED)
        assert start_gap.leveled.endurance_ratio() > 0.8
        assert start_gap.unleveled.endurance_ratio() < 0.1
        assert start_gap.improvement > 10
