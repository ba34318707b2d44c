"""Tests for the slowdown-budget classifier."""

import numpy as np
import pytest

from repro.core.classifier import select_cold_pages
from repro.errors import ConfigError


class TestSelectColdPages:
    def test_takes_coldest_within_budget(self):
        ids = np.array([10, 20, 30, 40])
        rates = np.array([5.0, 1.0, 100.0, 2.0])
        result = select_cold_pages(ids, rates, budget=8.0)
        # Coldest first: ascending estimated rate, not ascending id.
        assert list(result.cold_pages) == [20, 40, 10]
        assert list(result.hot_pages) == [30]
        assert result.cold_rate == pytest.approx(8.0)

    def test_budget_is_aggregate_not_per_page(self):
        ids = np.arange(10)
        rates = np.full(10, 3.0)
        result = select_cold_pages(ids, rates, budget=10.0)
        assert result.cold_pages.size == 3  # 3 * 3 = 9 <= 10 < 12

    def test_zero_rate_pages_always_taken(self):
        ids = np.arange(5)
        rates = np.array([0.0, 0.0, 50.0, 0.0, 60.0])
        result = select_cold_pages(ids, rates, budget=0.0)
        assert list(result.cold_pages) == [0, 1, 3]  # equal rates: id order

    def test_empty_input(self):
        result = select_cold_pages(np.array([]), np.array([]), 100.0)
        assert result.cold_pages.size == 0
        assert result.cold_rate == 0.0

    def test_everything_fits(self):
        ids = np.arange(4)
        rates = np.ones(4)
        result = select_cold_pages(ids, rates, budget=100.0)
        assert result.cold_pages.size == 4
        assert result.hot_pages.size == 0

    def test_nothing_fits(self):
        ids = np.arange(4)
        rates = np.full(4, 50.0)
        result = select_cold_pages(ids, rates, budget=10.0)
        assert result.cold_pages.size == 0

    def test_deterministic_tiebreak(self):
        ids = np.array([9, 3, 7])
        rates = np.array([4.0, 4.0, 4.0])
        result = select_cold_pages(ids, rates, budget=8.0)
        assert list(result.cold_pages) == [3, 7]  # lowest ids win ties

    def test_outputs_in_ascending_rate_order(self):
        ids = np.array([30, 10, 20])
        rates = np.array([1.0, 3.0, 2.0])
        result = select_cold_pages(ids, rates, budget=6.0)
        assert list(result.cold_pages) == [30, 20, 10]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigError):
            select_cold_pages(np.array([1, 2]), np.array([1.0]), 10.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            select_cold_pages(np.array([1]), np.array([1.0]), -1.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            select_cold_pages(np.array([1]), np.array([-1.0]), 1.0)

    def test_invariant_cold_rate_within_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 100))
            ids = np.arange(n)
            rates = rng.exponential(10.0, size=n)
            budget = float(rng.uniform(0, 200))
            result = select_cold_pages(ids, rates, budget)
            assert result.cold_rate <= budget + 1e-9
