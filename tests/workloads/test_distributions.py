"""Tests for access-skew generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.distributions import (
    exponential_decay_rates,
    hotspot_rates,
    layout_order,
    tiered_rates,
    uniform_rates,
    zipfian_rates,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestUniform:
    def test_total_preserved(self):
        rates = uniform_rates(100, 5000.0)
        assert rates.sum() == pytest.approx(5000.0)
        assert np.allclose(rates, 50.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            uniform_rates(0, 100.0)
        with pytest.raises(WorkloadError):
            uniform_rates(10, -1.0)


class TestZipfian:
    def test_total_preserved(self, rng):
        rates = zipfian_rates(1000, 777.0, rng=rng)
        assert rates.sum() == pytest.approx(777.0)

    def test_skew_without_shuffle(self):
        rates = zipfian_rates(1000, 1.0, shuffle=False)
        assert rates[0] > rates[1] > rates[999]
        # Top 1% should carry disproportionate mass.
        assert rates[:10].sum() > 10 * rates.mean()

    def test_higher_exponent_more_skew(self):
        mild = zipfian_rates(1000, 1.0, exponent=0.5, shuffle=False)
        steep = zipfian_rates(1000, 1.0, exponent=1.5, shuffle=False)
        assert steep[0] > mild[0]

    def test_shuffle_requires_rng(self):
        with pytest.raises(WorkloadError):
            zipfian_rates(10, 1.0, rng=None, shuffle=True)


class TestHotspot:
    def test_paper_redis_skew(self, rng):
        """0.01% of pages take 90% of traffic."""
        rates = hotspot_rates(100_000, 1e6, hot_fraction=1e-4, hot_mass=0.9,
                              rng=rng, shuffle=False)
        hot_pages = max(1, int(1e-4 * 100_000))
        assert rates[:hot_pages].sum() == pytest.approx(0.9e6, rel=0.01)

    def test_validation(self, rng):
        with pytest.raises(WorkloadError):
            hotspot_rates(10, 1.0, hot_fraction=0.0, rng=rng)
        with pytest.raises(WorkloadError):
            hotspot_rates(10, 1.0, hot_mass=1.5, rng=rng)


class TestTiered:
    def test_band_masses(self, rng):
        rates = tiered_rates(
            1000, 100.0, bands=[(0.5, 0.1), (0.5, 0.9)], shuffle=False
        )
        assert rates[:500].sum() == pytest.approx(10.0, rel=0.01)
        assert rates[500:].sum() == pytest.approx(90.0, rel=0.01)

    def test_bands_must_sum_to_one(self, rng):
        with pytest.raises(WorkloadError):
            tiered_rates(100, 1.0, bands=[(0.5, 0.5)], rng=rng)

    def test_empty_bands_rejected(self, rng):
        with pytest.raises(WorkloadError):
            tiered_rates(100, 1.0, bands=[], rng=rng)

    def test_three_bands(self):
        rates = tiered_rates(
            300, 1.0, bands=[(0.2, 0.0), (0.3, 0.3), (0.5, 0.7)], shuffle=False
        )
        assert rates[:60].sum() == pytest.approx(0.0)
        assert rates.sum() == pytest.approx(1.0)


class TestExponentialDecay:
    def test_total_preserved(self, rng):
        rates = exponential_decay_rates(1000, 42.0, rng=rng)
        assert rates.sum() == pytest.approx(42.0)

    def test_decay_shape(self):
        rates = exponential_decay_rates(
            1000, 1.0, half_life_fraction=0.1, shuffle=False
        )
        # Rate halves every 10% of the footprint.
        assert rates[100] == pytest.approx(rates[0] / 2, rel=0.05)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            exponential_decay_rates(10, 1.0, half_life_fraction=0.0, shuffle=False)


class TestSpatialLayout:
    def test_preserves_multiset(self, rng):
        rates = np.arange(1000, dtype=float)
        laid = rates[layout_order(rates.size, rng)]
        assert np.allclose(np.sort(laid), rates)

    def test_preserves_locality(self, rng):
        """Nearby pages stay similar: rank displacement is bounded."""
        rates = np.arange(10_000, dtype=float)
        laid = rates[layout_order(rates.size, rng, mixing=0.02)]
        displacement = np.abs(np.argsort(laid) - np.arange(10_000))
        assert np.median(displacement) < 0.1 * 10_000

    def test_mixes_some_pages(self, rng):
        rates = np.arange(10_000, dtype=float)
        laid = rates[layout_order(rates.size, rng, mixing=0.02)]
        assert not np.array_equal(laid, rates)

    def test_zero_mixing_is_identity(self, rng):
        rates = np.arange(100, dtype=float)
        assert np.array_equal(rates[layout_order(100, rng, mixing=0.0)], rates)

    @pytest.mark.parametrize("n, mixing", [(0, 0.02), (1, 0.02), (100, 0.0)])
    def test_identity_draws_nothing(self, n, mixing):
        rng = np.random.default_rng(5)
        order = layout_order(n, rng, mixing=mixing)
        assert np.array_equal(order, np.arange(n))
        assert rng.random() == np.random.default_rng(5).random()

    def test_permutation_is_int32(self, rng):
        assert layout_order(10_000, rng).dtype == np.int32

    def test_huge_page_skew_survives(self, rng):
        """The property the Thermostat policy depends on: after layout, 2MB
        pages still have widely varying aggregate rates (a uniform shuffle
        would flatten them)."""
        per_page = np.concatenate([np.zeros(50_000), np.full(50_000, 10.0)])
        laid = per_page[layout_order(per_page.size, rng, mixing=0.02)]
        huge = laid[: (laid.size // 512) * 512].reshape(-1, 512).sum(axis=1)
        assert huge.std() > 0.5 * huge.mean()

    def test_negative_mixing_rejected(self, rng):
        with pytest.raises(WorkloadError):
            layout_order(10, rng, mixing=-1.0)
