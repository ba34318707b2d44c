"""The epoch-profile sampler: resolved rows are a view of one 2MB draw.

``Workload.epoch_profile`` draws one total per huge page and splits the
totals of the pages a caller resolves into 4KB rows.  These tests pin the
contract that makes the hot path (resolve only the split pages) agree
with the faithful one (resolve every page):

* whichever pages are resolved, the totals — and every later epoch's
  draws — are identical, because resolution never touches the main
  stream;
* resolved rows sum to their totals and follow the page's rate weights;
* deterministic (``stochastic=False``) profiles are the rounded per-4KB
  expectations, dense or sparse;
* reusing a read-only rate vector's 2MB sums across epochs draws exactly
  what summing every epoch draws, drift events included;
* evenly weighted rows drawn as uniform subpage picks follow the
  multinomial's law (occupancy and cell moments against their exact
  values), and every other row is still the multinomial, draw for draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import KstaledPolicy, StaticFractionPolicy
from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.rng import make_rng
from repro.sim.engine import EpochSimulation
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads import WORKLOAD_NAMES, make_workload
from repro.workloads.base import UNIFORM_PICK_MAX_TOTAL, RateModelWorkload, _split_totals
from repro.workloads.kv import KeyValueWorkload

EPOCHS = 6


def _draws(workload_factory, resolve, seed=3):
    """``EPOCHS`` profiles of a fresh workload, and the stream's next draw."""
    workload = workload_factory()
    rng = make_rng(seed)
    profiles = [
        workload.epoch_profile(30.0 * i, 30.0, rng, resolve=resolve(workload))
        for i in range(EPOCHS)
    ]
    return profiles, int(rng.integers(2**62))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_resolving_is_a_view_of_one_draw(name):
    """Dense, sparse and totals-only views share totals and stream."""

    def factory():
        return make_workload(name, scale=0.01)

    def every_seventh(workload):
        # Growing footprints only add pages, so the first epoch's ids stay valid.
        return np.arange(0, workload.num_huge_pages_at(0.0), 7)

    dense, dense_next = _draws(factory, lambda w: None)
    sparse, sparse_next = _draws(factory, every_seventh)
    bare, bare_next = _draws(factory, lambda w: ())
    assert dense_next == sparse_next == bare_next
    for full, part, none in zip(dense, sparse, bare, strict=True):
        assert np.array_equal(full.huge_counts(), part.huge_counts())
        assert np.array_equal(full.huge_counts(), none.huge_counts())
        assert np.array_equal(full.subpage_counts().sum(axis=1), full.huge_counts())
        ids = part.resolved_ids
        assert ids.size
        assert np.array_equal(part.subpage_rows(ids).sum(axis=1), part.huge_counts()[ids])
        assert none.resolved_ids.size == 0


def test_resolved_rows_follow_rate_weights():
    """A page's mean row converges on its subpage rates x duration."""
    rates = np.ones(2 * SUBPAGES_PER_HUGE_PAGE)
    rates[:64] = 40.0  # a hot corner inside page 0
    workload = RateModelWorkload("weights", rates, burstiness=0.2)
    rng = make_rng(9)
    rows = np.zeros((2, SUBPAGES_PER_HUGE_PAGE))
    epochs = 300
    for _ in range(epochs):
        rows += workload.epoch_profile(0.0, 30.0, rng, resolve=[0, 1]).subpage_rows([0, 1])
    mean = rows / epochs
    np.testing.assert_allclose(mean[0, :64].mean(), 40.0 * 30.0, rtol=0.05)
    np.testing.assert_allclose(mean[0, 64:].mean(), 30.0, rtol=0.05)
    np.testing.assert_allclose(mean[1].mean(), 30.0, rtol=0.05)


def test_deterministic_profiles_are_rounded_expectations():
    rates = np.linspace(0.0, 3.3, 3 * SUBPAGES_PER_HUGE_PAGE)
    workload = RateModelWorkload("ramp", rates)
    expected = np.rint(rates * 7.0).astype(np.int64)
    dense = workload.epoch_profile(0.0, 7.0, make_rng(1), stochastic=False)
    sparse = workload.epoch_profile(0.0, 7.0, make_rng(1), stochastic=False, resolve=[2])
    assert np.array_equal(dense.counts, expected)
    assert np.array_equal(sparse.huge_counts(), dense.huge_counts())
    assert np.array_equal(sparse.subpage_rows([2]), dense.subpage_rows([2]))


@pytest.mark.parametrize(
    ("name", "duration"),
    [
        ("redis", 300.0),
        ("aerospike", 660.0),  # crosses the drift events at 300 s and 600 s
        ("cassandra", 660.0),  # the footprint grows every epoch
    ],
)
def test_paired_policies_see_the_same_access_stream(name, duration):
    """The workload's draws do not depend on what the policy splits.

    Thermostat splits a rotating sample; kstaled demotes whatever went
    idle and a static policy a fixed share, and neither splits.  Every
    engine must still see the same 2MB traffic every epoch, so a paired
    policy comparison runs on one access stream.
    """
    seen = []
    for policy in (ThermostatPolicy(), KstaledPolicy(idle_scans=1), StaticFractionPolicy(0.3)):
        sim = EpochSimulation(
            make_workload(name, scale=0.01),
            policy,
            SimulationConfig(duration=duration, seed=4),
        )
        totals = []
        sim.profile_filter = lambda p, i, totals=totals: totals.append(p.huge_counts()) or p
        sim.run()
        seen.append(totals)
    first, *others = seen
    assert len(first) == round(duration / 30.0)
    for other in others:
        assert len(other) == len(first)
        for a, b in zip(first, other, strict=True):
            assert np.array_equal(a, b)


class _WritableRates(KeyValueWorkload):
    """Hands out a writable copy each epoch, which turns sum reuse off."""

    def rates_at(self, time):
        return super().rates_at(time).copy()


def test_reused_rate_sums_match_summing_every_epoch():
    """A drifting store draws the same epochs with and without reuse.

    Aerospike drifts every 300 s; 44 epochs of 30 s cross four drift
    events, each of which replaces the read-only vector with a new one.
    """
    reused = make_workload("aerospike", scale=0.01)
    summed = make_workload("aerospike", scale=0.01)
    summed.__class__ = _WritableRates
    num_huge = reused.total_huge_pages
    rng_reused, rng_summed = make_rng(5), make_rng(5)
    vectors = []
    for i in range(44):
        start = 30.0 * i
        resolve = np.arange(i % 7, num_huge, 7)
        a = reused.epoch_profile(start, 30.0, rng_reused, resolve=resolve)
        b = summed.epoch_profile(start, 30.0, rng_summed, resolve=resolve)
        assert np.array_equal(a.huge_counts(), b.huge_counts())
        assert np.array_equal(a.subpage_rows(resolve), b.subpage_rows(resolve))
        rates = reused.rates_at(start)
        if not vectors or vectors[-1] is not rates:
            vectors.append(rates)
    # The initial vector plus one per drift event at 300, 600, 900, 1200 s.
    assert len(vectors) == 5
    assert not np.array_equal(vectors[0], vectors[-1])
    assert int(rng_reused.integers(2**62)) == int(rng_summed.integers(2**62))


@pytest.mark.parametrize(
    "workload",
    [
        RateModelWorkload("static", np.ones(SUBPAGES_PER_HUGE_PAGE)),
        KeyValueWorkload(
            "kv", np.ones(4 * SUBPAGES_PER_HUGE_PAGE), drift_interval=10.0,
            drift_fraction=0.01,
        ),
    ],
    ids=["rate-model", "key-value"],
)
def test_static_rate_vectors_are_read_only(workload):
    """Rates that cannot change in place are what makes reuse sound."""
    for time in (0.0, 25.0):
        with pytest.raises(ValueError, match="read-only"):
            workload.rates_at(time)[0] = 5.0


# ---------------------------------------------------------------------------
# Row resolution: two exact draws of one law
# ---------------------------------------------------------------------------

K = SUBPAGES_PER_HUGE_PAGE


def _multinomial_split_totals(totals, huge_rates, weights, rng):
    """The all-multinomial split: the reference where no nonzero row qualifies."""
    safe = np.where(huge_rates > 0, huge_rates, 1.0)[:, None]
    pvals = np.where(huge_rates[:, None] > 0, weights / safe, 1.0 / SUBPAGES_PER_HUGE_PAGE)
    return rng.multinomial(totals, pvals)


def _even_rows(total, num_rows, rng, rate=2.5, chunk=500):
    """``num_rows`` evenly weighted rows of ``total``, in batches of ``chunk``."""
    weights = np.full((chunk, K), rate)
    huge_rates = weights.sum(axis=1)
    totals = np.full(chunk, total)
    return np.concatenate(
        [_split_totals(totals, huge_rates, weights, rng) for _ in range(num_rows // chunk)]
    )


#: Rows per total, totals, seed and the 4-standard-error bound below were
#: fixed before the first run.
EVEN_ROWS = 4000
EVEN_TOTALS = (1, 37, 512, 1224, UNIFORM_PICK_MAX_TOTAL)


def _within_4_se(observed, expected, se):
    # The relative slack covers float rounding only: T = 1 rows have no
    # spread (one touched subpage, a fixed cell variance).
    assert abs(observed - expected) <= 4.0 * se + 1e-9 * abs(expected)


@pytest.mark.parametrize("total", EVEN_TOTALS)
def test_even_rows_follow_the_multinomial_law(total):
    """Uniform-pick rows match Multinomial(T, 1/512) on what the policy reads.

    * every row sums to T;
    * the touched-subpage count (the Accessed-bit prefilter) has the exact
      occupancy mean 512 (1 - (1 - 1/512)^T), its standard error taken
      from the exact occupancy variance;
    * the per-cell means: Pearson's X^2 of the 512 cell totals has mean
      511 and variance 2 * 511 * (1 - 1/n) under the multinomial, n = N T;
    * the per-cell variance T (1/512)(511/512): each row's mean squared
      deviation has variance 4 C(T, 2) (1/512)(511/512) / 512^2, because
      sum x^2 = T + 2 (colliding pick pairs) and pair indicators are
      pairwise independent.
    """
    rows = _even_rows(total, EVEN_ROWS, make_rng(17))
    assert rows.shape == (EVEN_ROWS, K)
    assert np.all(rows.sum(axis=1) == total)
    p = 1.0 / K

    empty, both_empty = (1.0 - p) ** total, (1.0 - 2.0 * p) ** total
    occupancy_var = K * (K - 1) * both_empty + K * empty - (K * empty) ** 2
    touched = (rows > 0).sum(axis=1)
    _within_4_se(touched.mean(), K * (1.0 - empty), np.sqrt(max(occupancy_var, 0.0) / EVEN_ROWS))

    n = EVEN_ROWS * total
    cell_totals = rows.sum(axis=0)
    pearson = float(((cell_totals - n * p) ** 2).sum() / (n * p))
    _within_4_se(pearson, K - 1.0, np.sqrt(2.0 * (K - 1) * (1.0 - 1.0 / n)))

    cell_var = total * p * (1.0 - p)
    squares = (rows.astype(float) ** 2).sum(axis=1)
    row_var = squares / K - (total * p) ** 2
    pair_var = 4.0 * (total * (total - 1) / 2.0) * p * (1.0 - p) / K**2
    _within_4_se(row_var.mean(), cell_var, np.sqrt(pair_var / EVEN_ROWS))


@pytest.mark.parametrize(
    ("total", "nudge", "picks"),
    [
        (UNIFORM_PICK_MAX_TOTAL, False, True),
        (UNIFORM_PICK_MAX_TOTAL + 1, False, False),
        (1224, True, False),
    ],
    ids=["at-the-cutoff", "one-above-the-cutoff", "one-rate-one-ulp-off"],
)
def test_the_rule_picks_rows_by_their_rates_and_total(total, nudge, picks):
    """Rows just outside the rule still go through the multinomial."""
    weights = np.full((1, K), 2.5)
    if nudge:
        weights[0, 300] = np.nextafter(2.5, np.inf)
    huge_rates = weights.sum(axis=1)
    rng, reference = make_rng(5), make_rng(5)
    rows = _split_totals(np.array([total]), huge_rates, weights, rng)
    if picks:
        drawn = reference.integers(0, K, size=total, dtype=np.uint16)
        expected = np.bincount(drawn, minlength=K)[None, :]
    else:
        expected = _multinomial_split_totals(np.array([total]), huge_rates, weights, reference)
    assert np.array_equal(rows, expected)
    assert rng.bit_generator.state == reference.bit_generator.state


@st.composite
def unqualified_batches(draw):
    """Batches in which no row with a nonzero total is evenly weighted
    within the cutoff: unequal rates (some subpages idle), even rows
    above the cutoff, and zero totals (idle pages, or even rows that
    drew nothing), mixed in any order."""
    kinds = draw(st.lists(st.sampled_from(["unequal", "above", "zero", "idle"]), max_size=10))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    weights = np.zeros((len(kinds), K))
    totals = np.zeros(len(kinds), dtype=np.int64)
    for i, kind in enumerate(kinds):
        if kind == "unequal":
            weights[i] = gen.exponential(3.0, K) * (gen.random(K) < gen.uniform(0.05, 1.0))
            weights[i, gen.integers(K)] += 1.0
            totals[i] = gen.integers(0, 3 * UNIFORM_PICK_MAX_TOTAL)
        elif kind == "above":
            weights[i] = gen.exponential(3.0)
            totals[i] = gen.integers(UNIFORM_PICK_MAX_TOTAL + 1, 40 * UNIFORM_PICK_MAX_TOTAL)
        elif kind == "zero":
            weights[i] = gen.exponential(3.0)
    return totals, weights.sum(axis=1), weights, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(unqualified_batches())
def test_unqualified_batches_draw_exactly_the_multinomial(batch):
    """Where no nonzero row qualifies, rows and stream are the old ones."""
    totals, huge_rates, weights, seed = batch
    rng, reference = make_rng(seed), make_rng(seed)
    rows = _split_totals(totals, huge_rates, weights, rng)
    expected = _multinomial_split_totals(totals, huge_rates, weights, reference)
    assert np.array_equal(rows, expected)
    assert rng.bit_generator.state == reference.bit_generator.state
