"""Tests for deterministic RNG plumbing."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.rng import DEFAULT_SEED, child_rng, label_seed, make_rng, retry_delay


class TestMakeRng:
    def test_default_seed_is_stable(self):
        a = make_rng()
        b = make_rng()
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_explicit_seed(self):
        a = make_rng(7)
        b = make_rng(7)
        assert np.array_equal(a.random(8), b.random(8))

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_none_maps_to_default(self):
        assert make_rng(None).random() == make_rng(DEFAULT_SEED).random()


class TestLabelSeed:
    def test_stable(self):
        assert label_seed("redis") == label_seed("redis")

    def test_distinct_labels(self):
        assert label_seed("redis") != label_seed("aerospike")

    def test_fits_in_63_bits(self):
        assert 0 <= label_seed("x" * 1000) < 2**63


class TestChildRng:
    def test_deterministic(self):
        a = child_rng(make_rng(3), "workload")
        b = child_rng(make_rng(3), "workload")
        assert np.array_equal(a.random(4), b.random(4))

    def test_labels_decorrelate(self):
        parent = make_rng(3)
        a = child_rng(parent, "one")
        b = child_rng(parent, "two")
        assert not np.array_equal(a.random(4), b.random(4))

    def test_order_independent(self):
        parent1 = make_rng(3)
        first = child_rng(parent1, "one").random()
        parent2 = make_rng(3)
        child_rng(parent2, "two")  # request in a different order
        second = child_rng(parent2, "one").random()
        assert first == second

    def test_child_differs_from_parent(self):
        parent = make_rng(3)
        child = child_rng(parent, "x")
        assert parent.random() != child.random()


class TestRetryDelay:
    """One backoff formula, bit-identical to the three it replaced."""

    bases = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
    attempts = st.integers(min_value=1, max_value=40)
    jitters = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @given(base=bases, attempt=attempts)
    def test_migration_expression(self, base, attempt):
        assert retry_delay(base, attempt) == base * 2.0 ** (attempt - 1)

    @given(base=bases, attempt=attempts, jitter=jitters, seed=seeds)
    def test_supervisor_expression(self, base, attempt, jitter, seed):
        draw = child_rng(make_rng(seed), f"backoff:k:{attempt}").uniform(0.0, jitter)
        delay = base * 2.0 ** (attempt - 1)
        assert retry_delay(base, attempt, draw) == delay * (1.0 + draw)

    @given(base=bases, attempt=attempts, jitter=jitters, seed=seeds)
    def test_service_expression(self, base, attempt, jitter, seed):
        draw = float(make_rng(seed).random())
        delay = base * (2 ** (attempt - 1))
        delay *= 1.0 + draw * jitter
        assert retry_delay(base, attempt, draw * jitter) == delay
