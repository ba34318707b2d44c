"""Property-based tests for the latency model."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.latency import LatencyModel, binomial_quantile

base_latencies = st.floats(1e-5, 1e-1, allow_nan=False)
accesses = st.floats(1.0, 200.0, allow_nan=False)
probabilities = st.floats(0.0, 1.0, allow_nan=False)


class TestLatencyProperties:
    @given(base_latencies, accesses, probabilities)
    @settings(max_examples=150)
    def test_mean_never_below_baseline(self, base, n, q):
        model = LatencyModel(base_latency=base, accesses_per_op=n)
        assert model.mean(q) >= base - 1e-15

    @given(base_latencies, accesses, probabilities, probabilities)
    @settings(max_examples=150)
    def test_mean_monotone_in_q(self, base, n, q1, q2):
        model = LatencyModel(base_latency=base, accesses_per_op=n)
        lo, hi = sorted((q1, q2))
        assert model.mean(lo) <= model.mean(hi) + 1e-15

    @given(base_latencies, accesses, probabilities)
    @settings(max_examples=150)
    def test_percentiles_ordered(self, base, n, q):
        model = LatencyModel(base_latency=base, accesses_per_op=n)
        p50 = model.percentile(q, 50)
        p95 = model.percentile(q, 95)
        p99 = model.percentile(q, 99)
        assert base <= p50 <= p95 <= p99

    @given(base_latencies, accesses, probabilities)
    @settings(max_examples=150)
    def test_degradation_non_negative(self, base, n, q):
        model = LatencyModel(base_latency=base, accesses_per_op=n)
        assert model.degradation(q) >= -1e-12
        assert model.degradation(q, 99) >= -1e-12


def exact_binomial_cdf(k: int, n: int, q: float) -> Fraction:
    q_exact = Fraction(q)
    return sum(
        math.comb(n, i) * q_exact**i * (1 - q_exact) ** (n - i)
        for i in range(k + 1)
    )


class TestBinomialQuantile:
    @given(
        st.integers(0, 200),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.001, 0.999, allow_nan=False),
    )
    # No deadline: the first example pays for importing scipy.
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_except_at_exact_ties(self, n, q, p):
        stats = pytest.importorskip("scipy.stats")
        ours = binomial_quantile(p, n, q)
        theirs = int(stats.binom.ppf(p, n, q))
        if ours != theirs:
            # Only where CDF(k) == p exactly may the two sides of the tie
            # round differently.
            assert abs(ours - theirs) == 1
            assert exact_binomial_cdf(min(ours, theirs), n, q) == Fraction(p)
