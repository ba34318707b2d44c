"""Tests for the TPCC, analytics, and web-search models."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads.analytics import AnalyticsWorkload, analytics_template
from repro.workloads.tpcc import TPCC_TABLES, TpccWorkload, build_tpcc_rates
from repro.workloads.websearch import WebSearchWorkload, websearch_rates


@pytest.fixture
def rng():
    return np.random.default_rng(6)


class TestTpccTables:
    def test_mix_sums_to_one(self):
        assert sum(t.footprint_fraction for t in TPCC_TABLES) == pytest.approx(1.0)
        assert sum(t.traffic_fraction for t in TPCC_TABLES) == pytest.approx(1.0)

    def test_order_line_is_biggest_and_coldest(self):
        order_line = next(t for t in TPCC_TABLES if t.name == "order-line")
        assert order_line.footprint_fraction == max(
            t.footprint_fraction for t in TPCC_TABLES
        )
        assert order_line.traffic_fraction < 0.001


class TestBuildTpccRates:
    def test_total_rate(self, rng):
        rates = build_tpcc_rates(10_000, 5e5, rng)
        assert rates.sum() == pytest.approx(5e5, rel=1e-6)

    def test_cold_mass_matches_mix(self, rng):
        rates = build_tpcc_rates(10_000, 1e6, rng, shuffle=False)
        # order-line (32%) + history (10%) carry ~0.0003% of traffic.
        cold = rates[: int(0.42 * 10_000)].sum()
        assert cold < 1e-4 * 1e6

    def test_bad_mix_rejected(self, rng):
        from repro.workloads.tpcc import TpccTable

        with pytest.raises(WorkloadError):
            build_tpcc_rates(100, 1.0, rng, tables=(TpccTable("x", 0.5, 1.0),))

    def test_workload_class(self, rng):
        workload = TpccWorkload("tpcc", build_tpcc_rates(2048, 1e5, rng))
        assert workload.total_huge_pages == 4
        assert workload.total_access_rate() == pytest.approx(1e5, rel=1e-6)


def spark(rng):
    template = analytics_template(20 * 512, 1e5, rng)
    return AnalyticsWorkload("spark", template, 1e5, growth_duration=100)


class TestAnalytics:
    def test_footprint_grows(self, rng):
        workload = spark(rng)
        assert workload.num_huge_pages_at(0.0) < workload.num_huge_pages_at(100.0)
        assert workload.num_huge_pages_at(100.0) == 20

    def test_total_rate_constant_during_growth(self, rng):
        workload = spark(rng)
        assert workload.rates_at(0.0).sum() == pytest.approx(1e5)
        assert workload.rates_at(50.0).sum() == pytest.approx(1e5)

    def test_rates_match_resident_pages(self, rng):
        workload = spark(rng)
        rates = workload.rates_at(50.0)
        assert rates.size == workload.num_huge_pages_at(50.0) * SUBPAGES_PER_HUGE_PAGE

    def test_band_masses_validated(self, rng):
        with pytest.raises(WorkloadError):
            analytics_template(512, 1.0, rng, band_masses=(0.5, 0.2, 0.2))

    def test_bad_fractions_rejected(self, rng):
        with pytest.raises(WorkloadError):
            analytics_template(512, 1.0, rng, dataset_fraction=1.5)
        with pytest.raises(WorkloadError):
            analytics_template(0, 1.0, rng)


class TestWebSearch:
    def test_dead_band_nearly_idle(self, rng):
        workload = WebSearchWorkload("solr", websearch_rates(10_240, 1e6, rng))
        rates = workload.rates_at(0.0)
        sorted_rates = np.sort(rates)
        dead = sorted_rates[: int(0.35 * rates.size)]
        assert dead.sum() < 1e-3 * 1e6

    def test_total_rate(self, rng):
        workload = WebSearchWorkload("solr", websearch_rates(10_240, 1e6, rng))
        assert workload.total_access_rate() == pytest.approx(1e6, rel=1e-6)

    def test_low_write_fraction(self, rng):
        workload = WebSearchWorkload("solr", websearch_rates(512, 1.0, rng))
        assert workload.write_fraction < 0.1
