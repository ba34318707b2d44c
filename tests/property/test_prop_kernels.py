"""Property tests pinning the vectorized hot-path kernels to their
scalar references.

Four contracts:

* :func:`poison_scan_batch` consumes the *same RNG draws in the same
  order* as the scalar :func:`choose_poison_subpages` loop and poisons
  the same subpages.  Its per-page sums are identical whenever every
  capped count is a whole number: integer counts under a whole-number
  or infinite ``fault_cap``, as in every engine configuration.  So
  switching the policy to the batched kernel changed no simulation
  output.  With a fractional cap the two paths add a page's capped
  counts in different orders, and the sums agree only to within float64
  epsilon times the number of poisoned subpages.
* ``select_cold_pages`` returns its halves coldest-first (the ordering
  the demotion cap and backpressure truncation rely on).
* :class:`EpochProfile` is exact everywhere it answers (totals, resolved
  subpage rows) and refuses rows that were never drawn.
* The rate-vector builds, which draw the layout permutation first and
  scale in place, return the bytes of the stable-argsort layout of
  their unshuffled rates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import select_cold_pages
from repro.core.sampling import choose_poison_subpages, poison_scan_batch
from repro.rng import make_rng
from repro.sim.profile import EpochProfile
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads.analytics import analytics_template
from repro.workloads.base import pad_to_huge
from repro.workloads.distributions import (
    exponential_decay_rates,
    hotspot_rates,
    layout_order,
    tiered_rates,
    zipfian_rates,
)
from repro.workloads.tpcc import build_tpcc_rates


def _scalar_poison_scan(subpage_counts, max_poisoned, rng, use_prefilter, fault_cap):
    """The pre-vectorization per-page loop, verbatim."""
    num_pages = subpage_counts.shape[0]
    accessed = subpage_counts > 0
    poisoned_sums = np.zeros(num_pages)
    poisoned_pages = np.zeros(num_pages, dtype=np.int64)
    for i in range(num_pages):
        chosen = choose_poison_subpages(
            accessed[i], max_poisoned, rng, use_prefilter=use_prefilter
        )
        if chosen.size == 0:
            continue
        observed = np.minimum(subpage_counts[i, chosen], fault_cap)
        poisoned_sums[i] = float(observed.sum())
        poisoned_pages[i] = chosen.size
    return accessed.sum(axis=1), poisoned_sums, poisoned_pages


@st.composite
def scan_inputs(draw):
    num_pages = draw(st.integers(0, 12))
    num_subpages = draw(st.integers(1, 64))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**16))
    gen = np.random.default_rng(seed)
    counts = np.where(
        gen.random((num_pages, num_subpages)) < density,
        gen.integers(1, 5000, size=(num_pages, num_subpages)),
        0,
    )
    max_poisoned = draw(st.integers(1, 80))
    use_prefilter = draw(st.booleans())
    fault_cap = draw(st.sampled_from([np.inf, 10.0, 3000.0]))
    return counts, max_poisoned, use_prefilter, fault_cap, seed


@st.composite
def engine_scan_inputs(draw):
    """The shape of every engine call: up to 64 split pages of 512
    subpages, at most 50 poisoned each, rows from sparse to fully
    accessed (dense rows are where Floyd's collisions chain)."""
    num_pages = draw(st.integers(0, 64))
    seed = draw(st.integers(0, 2**16))
    gen = np.random.default_rng(seed)
    density = gen.uniform(draw(st.floats(0.0, 1.0)), 1.0, size=(num_pages, 1))
    counts = np.where(
        gen.random((num_pages, SUBPAGES_PER_HUGE_PAGE)) < density,
        gen.integers(1, 5000, size=(num_pages, SUBPAGES_PER_HUGE_PAGE)),
        0,
    )
    fault_cap = draw(st.sampled_from([np.inf, 100.0, 3000.0]))
    return counts, 50, draw(st.booleans()), fault_cap, seed


def _both_paths(counts, max_poisoned, use_prefilter, fault_cap, seed):
    """Scalar loop and batched kernel from one seed; asserts what must be
    exact whatever the cap: counts, picks per page, and the RNG state."""
    rng_scalar = np.random.default_rng(seed)
    rng_batch = np.random.default_rng(seed)
    num_accessed, sums, pages = _scalar_poison_scan(
        counts, max_poisoned, rng_scalar, use_prefilter, fault_cap
    )
    result = poison_scan_batch(
        counts,
        max_poisoned,
        rng_batch,
        use_prefilter=use_prefilter,
        fault_cap=fault_cap,
    )
    assert np.array_equal(result.num_accessed, num_accessed)
    assert np.array_equal(result.poisoned_per_page, pages)
    # Same draws consumed: the two streams must be in the same state.
    assert rng_scalar.integers(2**31) == rng_batch.integers(2**31)
    return result, sums, pages


def _floyd(population, size, rng):
    """Floyd's algorithm as ``Generator.choice`` runs it, one draw at a time.

    Returns the picks and each step's collision depth: 0 for a fresh
    draw, 1 for a draw that repeats an earlier draw, and ``d + 1`` for a
    draw equal to ``j`` of an earlier step of depth ``d``.  Consumes the
    shuffle's draws too, so ``rng`` ends where ``choice`` leaves it.
    """
    drawn: set[int] = set()
    depth_of: dict[int, int] = {}
    picks, depths = [], []
    for t in range(size):
        j = population - size + t
        value = int(rng.integers(0, j + 1))
        if value in drawn:
            depth = 1
        elif value in depth_of:
            depth = depth_of[value] + 1
        else:
            depth = 0
        pick = j if depth else value
        depth_of[pick] = depth
        drawn.add(value)
        picks.append(pick)
        depths.append(depth)
    for i in range(size - 1, 0, -1):
        rng.integers(0, i + 1)
    return picks, depths


class TestPoisonScanBatchEquivalence:
    @given(scan_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_loop_and_rng_stream(self, inputs):
        result, sums, _ = _both_paths(*inputs)
        assert np.array_equal(result.observed_sums, sums)

    @given(engine_scan_inputs())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_loop_on_engine_shaped_batches(self, inputs):
        result, sums, _ = _both_paths(*inputs)
        assert np.array_equal(result.observed_sums, sums)

    @given(scan_inputs(), st.sampled_from([2.7, 0.7000000000000001, 123.456]))
    @settings(max_examples=100, deadline=None)
    def test_fractional_cap_agrees_to_rounding(self, inputs, fault_cap):
        counts, max_poisoned, use_prefilter, _, seed = inputs
        result, sums, pages = _both_paths(
            counts, max_poisoned, use_prefilter, fault_cap, seed
        )
        # Two summation orders over n non-negative terms differ by at
        # most n float64 epsilons of the sum.
        tolerance = np.finfo(float).eps * pages * sums
        assert np.all(np.abs(result.observed_sums - sums) <= tolerance)

    def test_chained_collisions_replayed_to_the_fixed_point(self):
        """Page 0 (60 accessed subpages, 50 poisoned) collides in a chain
        three deep, so a kernel that applied the chain rule once would
        pick the wrong subpage."""
        gen = np.random.default_rng(1)
        counts = np.zeros((3, SUBPAGES_PER_HUGE_PAGE), dtype=np.int64)
        counts[0, gen.choice(SUBPAGES_PER_HUGE_PAGE, 60, replace=False)] = (
            gen.integers(1, 5000, 60)
        )
        counts[2] = gen.integers(1, 5000, SUBPAGES_PER_HUGE_PAGE)
        _, depths = _floyd(60, 50, np.random.default_rng(0))
        assert max(depths) >= 3
        result, sums, _ = _both_paths(counts, 50, True, 3000.0, seed=0)
        assert np.array_equal(result.observed_sums, sums)

    @pytest.mark.parametrize("population,size", [(1, 1), (60, 50), (512, 50), (9, 9)])
    def test_floyd_reference_is_numpys_choice(self, population, size):
        """The kernel's premise: ``choice(replace=False)`` is Floyd plus a
        shuffle over the same bounded draws.  Fails if NumPy changes it."""
        for seed in range(20):
            rng_floyd = np.random.default_rng(seed)
            rng_choice = np.random.default_rng(seed)
            picks, _ = _floyd(population, size, rng_floyd)
            chosen = rng_choice.choice(population, size, replace=False)
            assert sorted(picks) == sorted(chosen.tolist())
            assert rng_floyd.integers(2**31) == rng_choice.integers(2**31)


class TestColdPagesOrdering:
    @given(
        st.integers(0, 2**16),
        st.integers(1, 60),
        st.floats(0.0, 1e5, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_cold_pages_are_coldest_first(self, seed, n, budget):
        gen = np.random.default_rng(seed)
        ids = np.arange(n, dtype=np.int64)
        rates = np.round(gen.exponential(100.0, size=n), 3)
        result = select_cold_pages(ids, rates, budget)
        for half in (result.cold_pages, result.hot_pages):
            if half.size > 1:
                r = rates[half]
                assert np.all(np.diff(r) >= 0)
                # Ties broken by page id, so the order is deterministic.
                ties = np.diff(r) == 0
                assert np.all(np.diff(half)[ties] > 0)


class TestSampledProfile:
    def _make(self, seed=0, num_huge=20, resolve=(2, 5, 17)):
        gen = np.random.default_rng(seed)
        weights = gen.random((num_huge, SUBPAGES_PER_HUGE_PAGE))
        totals = gen.integers(0, 10_000, size=num_huge)
        resolve_ids = np.array(resolve, dtype=np.int64)
        rows = gen.multinomial(
            totals[resolve_ids],
            weights[resolve_ids] / weights[resolve_ids].sum(1, keepdims=True),
        )
        return (
            EpochProfile.sampled(
                start_time=0.0,
                duration=30.0,
                huge_totals=totals,
                resolved_ids=resolve_ids,
                resolved_rows=rows,
            ),
            totals,
            resolve_ids,
            rows,
        )

    def test_huge_counts_exact(self):
        profile, totals, _, _ = self._make()
        assert np.array_equal(profile.huge_counts(), totals)
        assert profile.total_accesses() == totals.sum()

    def test_resolved_rows_exact(self):
        profile, _, resolve_ids, rows = self._make()
        assert np.array_equal(profile.subpage_rows(resolve_ids), rows)
        assert np.array_equal(profile.resolved_ids, np.sort(resolve_ids))

    def test_unresolved_rows_refused(self):
        """Rows nobody drew are an error, not a guess."""
        import pytest

        from repro.errors import WorkloadError

        profile, _, _, _ = self._make()
        with pytest.raises(WorkloadError, match="not resolved"):
            profile.subpage_rows(np.array([2, 3]))
        with pytest.raises(WorkloadError, match="not resolved"):
            _ = profile.counts

    def test_derived_profiles_stay_consistent(self):
        """scaled() and without_pages() keep rows summing to totals."""
        profile, totals, resolve_ids, rows = self._make()
        half = profile.scaled(0.5)
        assert np.array_equal(half.subpage_rows(resolve_ids), np.rint(rows * 0.5))
        unresolved = np.setdiff1d(np.arange(totals.size), resolve_ids)
        assert np.array_equal(
            half.huge_counts()[unresolved], np.rint(totals[unresolved] * 0.5)
        )
        quiet = profile.without_pages(np.array([5, 6]))
        assert quiet.huge_counts()[[5, 6]].tolist() == [0, 0]
        assert not quiet.subpage_rows(np.array([5])).any()
        assert np.array_equal(quiet.subpage_rows(np.array([17])), rows[[2]])

    def test_row_sum_mismatch_rejected(self):
        import pytest

        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            EpochProfile.sampled(
                start_time=0.0,
                duration=30.0,
                huge_totals=np.array([10]),
                resolved_ids=np.array([0]),
                resolved_rows=np.full((1, SUBPAGES_PER_HUGE_PAGE), 1),
            )


class TestHierarchicalGeneration:
    def test_totals_match_rate_model(self):
        """Mean huge-page totals converge on rate x duration.

        Duty cycling and bursts are mean-one multipliers, so over many
        epochs each 2MB page's mean total is its summed subpage rate times
        the epoch (fixed seeds — a deterministic regression test, not a
        flaky statistical one).
        """
        from repro.workloads.base import RateModelWorkload

        gen = np.random.default_rng(7)
        rates = gen.exponential(2.0, size=8 * SUBPAGES_PER_HUGE_PAGE)
        workload = RateModelWorkload("dist", rates, burstiness=0.3)
        rng = make_rng(11)
        epochs = 200
        total = np.zeros(8)
        for _ in range(epochs):
            total += workload.epoch_profile(0.0, 30.0, rng, resolve=()).huge_counts()
        expected = rates.reshape(8, SUBPAGES_PER_HUGE_PAGE).sum(axis=1) * 30.0
        np.testing.assert_allclose(total / epochs, expected, rtol=0.05)

    def test_resolved_rows_sum_to_totals(self):
        from repro.workloads.base import RateModelWorkload

        gen = np.random.default_rng(3)
        rates = gen.exponential(5.0, size=6 * SUBPAGES_PER_HUGE_PAGE)
        workload = RateModelWorkload("res", rates)
        profile = workload.epoch_profile(
            0.0, 30.0, make_rng(1), resolve=np.array([1, 4])
        )
        rows = profile.subpage_rows(np.array([1, 4]))
        assert np.array_equal(rows.sum(axis=1), profile.huge_counts()[[1, 4]])


def _reference_positions(n, seed, mixing=0.02):
    """``arange(n) + mixing * n * normal``, out of place, drawn from a
    generator seeded ``seed``."""
    normal = np.random.default_rng(seed).standard_normal(n)
    return np.arange(n) + mixing * n * normal


def _reference_order(n, seed, mixing=0.02):
    """The reference layout permutation: a stable argsort of those positions."""
    return np.argsort(_reference_positions(n, seed, mixing), kind="stable")


def _same_bits(got, expected):
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestSpatialLayoutTieFree:
    def test_default_argsort_equals_stable_reference(self):
        """The layout jitter is continuous, so the default (unstable)
        argsort gives the same permutation as kind="stable" — the
        assumption behind dropping the slower stable sort — and drawing
        the positions in place moves no index."""
        n = 5000
        for seed in range(25):
            # Continuous draws: no exact float ties, so every argsort
            # kind yields the same (unique) permutation.
            assert np.unique(_reference_positions(n, seed)).size == n
            order = layout_order(n, np.random.default_rng(seed), mixing=0.02)
            assert np.array_equal(order, _reference_order(n, seed))


#: Each generator as ``build(n, rng, shuffle)``; the tiered cases use
#: Cassandra's and web-search's registry bands.
GENERATORS = {
    "zipfian": lambda n, rng, shuffle: zipfian_rates(
        n, 777.0, rng=rng, shuffle=shuffle
    ),
    "zipfian-steep": lambda n, rng, shuffle: zipfian_rates(
        n, 777.0, exponent=1.5, rng=rng, shuffle=shuffle
    ),
    "tiered": lambda n, rng, shuffle: tiered_rates(
        n,
        4.5e5,
        bands=[(0.20, 0.000002), (0.30, 0.1333), (0.50, 0.866698)],
        rng=rng,
        shuffle=shuffle,
    ),
    "tiered-web-search": lambda n, rng, shuffle: tiered_rates(
        n, 1.5e6, bands=[(0.40, 0.000001), (0.60, 0.999999)], rng=rng, shuffle=shuffle
    ),
    "hotspot": lambda n, rng, shuffle: hotspot_rates(
        n, 3.0e6, hot_fraction=1e-3, hot_mass=0.9, rng=rng, shuffle=shuffle
    ),
    "exponential-decay": lambda n, rng, shuffle: exponential_decay_rates(
        n, 1.4e6, half_life_fraction=0.2, rng=rng, shuffle=shuffle
    ),
    "tpcc": lambda n, rng, shuffle: build_tpcc_rates(n, 1.2e6, rng, shuffle=shuffle),
}


class TestPermutationFirstBuilds:
    """The generators draw their layout permutation before their rates
    and scale in place; what they return is bit-identical to laying out
    their unshuffled rates by the reference permutation."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_shuffled_equals_unshuffled_laid_out(self, name, seed):
        build = GENERATORS[name]
        n = 4099  # not a whole number of 2MB pages
        shuffled = build(n, np.random.default_rng(seed), True)
        flat = build(n, np.random.default_rng(seed), False)
        assert _same_bits(shuffled, flat[_reference_order(n, seed)])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "band_masses", [(0.005, 0.395, 0.60), (0.000002, 0.357998, 0.642)]
    )
    def test_analytics_template_equals_the_formula(self, band_masses, seed):
        pages, total_rate = 3000, 5.0e5
        padded = pad_to_huge(pages)
        dataset_pages = int(0.6 * padded)
        cold_pages = int(0.2 * dataset_pages)
        cold_mass, warm_mass, hot_mass = band_masses
        template = np.empty(padded)
        template[:cold_pages] = cold_mass / cold_pages
        template[cold_pages:dataset_pages] = warm_mass / (dataset_pages - cold_pages)
        template[dataset_pages:] = hot_mass / (padded - dataset_pages)
        expected = template[_reference_order(padded, seed)] * total_rate
        got = analytics_template(
            pages, total_rate, np.random.default_rng(seed), band_masses=band_masses
        )
        assert _same_bits(got, expected)
