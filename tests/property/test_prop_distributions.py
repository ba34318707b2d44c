"""Property-based tests for distribution generators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.distributions import (
    exponential_decay_rates,
    hotspot_rates,
    layout_order,
    tiered_rates,
    uniform_rates,
    zipfian_rates,
)

page_counts = st.integers(2, 5000)
total_rates = st.floats(1.0, 1e7, allow_nan=False)
seeds = st.integers(0, 2**31 - 1)


class TestMassConservation:
    @given(page_counts, total_rates, seeds)
    @settings(max_examples=100)
    def test_zipfian(self, pages, total, seed):
        rng = np.random.default_rng(seed)
        rates = zipfian_rates(pages, total, rng=rng)
        assert rates.sum() == np.float64(total) or np.isclose(rates.sum(), total)
        assert np.all(rates >= 0)

    @given(page_counts, total_rates, seeds)
    @settings(max_examples=100)
    def test_hotspot(self, pages, total, seed):
        rng = np.random.default_rng(seed)
        rates = hotspot_rates(pages, total, rng=rng)
        assert np.isclose(rates.sum(), total)
        assert np.all(rates >= 0)

    @given(page_counts, total_rates, seeds)
    @settings(max_examples=100)
    def test_decay(self, pages, total, seed):
        rng = np.random.default_rng(seed)
        rates = exponential_decay_rates(pages, total, rng=rng)
        assert np.isclose(rates.sum(), total)

    @given(page_counts, total_rates)
    @settings(max_examples=100)
    def test_uniform(self, pages, total):
        rates = uniform_rates(pages, total)
        assert np.isclose(rates.sum(), total)

    @given(
        page_counts,
        total_rates,
        st.lists(
            st.floats(0.05, 1.0), min_size=1, max_size=5
        ),
        seeds,
    )
    @settings(max_examples=100)
    def test_tiered(self, pages, total, raw_bands, seed):
        rng = np.random.default_rng(seed)
        fractions = np.asarray(raw_bands)
        fractions = fractions / fractions.sum()
        masses = np.roll(fractions, 1)  # any permutation summing to 1
        bands = list(zip(fractions.tolist(), masses.tolist(), strict=True))
        rates = tiered_rates(pages, total, bands, rng=rng)
        assert np.isclose(rates.sum(), total)
        assert np.all(rates >= 0)


class TestSpatialLayoutProperties:
    @given(page_counts, seeds, st.floats(0.0, 0.2))
    @settings(max_examples=100)
    def test_permutation(self, pages, seed, mixing):
        rng = np.random.default_rng(seed)
        order = layout_order(pages, rng, mixing=mixing)
        assert np.array_equal(np.sort(order), np.arange(pages))
