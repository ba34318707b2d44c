"""Tests for page sampling and poison-subpage selection."""

import numpy as np
import pytest

from repro.core.sampling import (
    CyclingSampler,
    choose_poison_subpages,
    poisoned_memory_fraction,
)
from repro.errors import ConfigError


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestChoosePoisonSubpages:
    def test_prefilter_limits_to_accessed(self, rng):
        accessed = np.zeros(512, dtype=bool)
        accessed[[3, 100, 400]] = True
        chosen = choose_poison_subpages(accessed, 50, rng)
        assert set(chosen) == {3, 100, 400}

    def test_cap_respected(self, rng):
        accessed = np.ones(512, dtype=bool)
        chosen = choose_poison_subpages(accessed, 50, rng)
        assert chosen.size == 50
        assert np.array_equal(chosen, np.unique(chosen))

    def test_no_accessed_pages_returns_empty(self, rng):
        chosen = choose_poison_subpages(np.zeros(512, bool), 50, rng)
        assert chosen.size == 0

    def test_without_prefilter_samples_everything(self, rng):
        """The naive-random-K ablation can pick never-accessed subpages."""
        accessed = np.zeros(512, dtype=bool)
        accessed[:2] = True
        chosen = choose_poison_subpages(accessed, 50, rng, use_prefilter=False)
        assert chosen.size == 50
        assert np.any(~accessed[chosen])

    def test_bad_cap_rejected(self, rng):
        with pytest.raises(ConfigError):
            choose_poison_subpages(np.ones(512, bool), 0, rng)


class TestPoisonedMemoryFraction:
    def test_paper_value(self):
        """5% sampled x 50/512 poisoned ~ 0.5% of memory (Section 3.2)."""
        assert poisoned_memory_fraction(0.05, 50) == pytest.approx(0.0049, abs=1e-4)

    def test_caps_at_sample_fraction(self):
        assert poisoned_memory_fraction(0.05, 1000) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ConfigError):
            poisoned_memory_fraction(0.0, 50)
        with pytest.raises(ConfigError):
            poisoned_memory_fraction(0.05, 0)


class TestCyclingSampler:
    def test_covers_everything_in_one_cycle(self, rng):
        sampler = CyclingSampler(rng)
        seen: set[int] = set()
        for _ in range(10):
            seen.update(sampler.next_sample(100, 0.1).tolist())
        assert seen == set(range(100))

    def test_no_repeats_within_cycle(self, rng):
        sampler = CyclingSampler(rng)
        first = sampler.next_sample(100, 0.1)
        second = sampler.next_sample(100, 0.1)
        assert not np.intersect1d(first, second).size

    def test_reshuffles_between_cycles(self, rng):
        sampler = CyclingSampler(rng)
        cycle1 = [tuple(sampler.next_sample(100, 0.5)) for _ in range(2)]
        cycle2 = [tuple(sampler.next_sample(100, 0.5)) for _ in range(2)]
        assert cycle1 != cycle2  # astronomically unlikely to collide

    def test_growth_restarts_pass(self, rng):
        sampler = CyclingSampler(rng)
        sampler.next_sample(100, 0.1)
        sample = sampler.next_sample(200, 0.1)
        assert sample.size == 20
        assert sample.max() < 200

    def test_empty_footprint(self, rng):
        assert CyclingSampler(rng).next_sample(0, 0.1).size == 0

    def test_bad_fraction_rejected(self, rng):
        with pytest.raises(ConfigError):
            CyclingSampler(rng).next_sample(10, 0.0)
