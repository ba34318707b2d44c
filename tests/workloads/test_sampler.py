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
  expectations, dense or sparse.
"""

import numpy as np
import pytest

from repro.baselines import StaticFractionPolicy
from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.rng import make_rng
from repro.sim.engine import EpochSimulation
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads import WORKLOAD_NAMES, make_workload
from repro.workloads.base import RateModelWorkload
from repro.workloads.composite import CompositeWorkload

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


def test_composite_routes_resolved_ids_to_members():
    def factory():
        return CompositeWorkload(
            "pair",
            [make_workload("redis", scale=0.01), make_workload("web-search", scale=0.01)],
        )

    boundary = factory().member_range(1)[0]
    picks = np.array([boundary + 1, 0, boundary - 1])
    dense, _ = _draws(factory, lambda w: None)
    sparse, _ = _draws(factory, lambda w: picks)
    for full, part in zip(dense, sparse, strict=True):
        assert np.array_equal(full.huge_counts(), part.huge_counts())
        assert np.array_equal(part.subpage_rows(picks).sum(axis=1), full.huge_counts()[picks])


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


def test_paired_policies_see_the_same_access_stream():
    """The workload's draws do not depend on what the policy splits.

    Thermostat splits a rotating sample; a static policy splits nothing.
    Both engines must still see the same 2MB traffic every epoch, so a
    paired policy comparison runs on one access stream.
    """
    seen = []
    for policy in (ThermostatPolicy(), StaticFractionPolicy(0.3)):
        sim = EpochSimulation(
            make_workload("redis", scale=0.01),
            policy,
            SimulationConfig(duration=300.0, seed=4),
        )
        totals = []
        sim.profile_filter = lambda p, i, totals=totals: totals.append(p.huge_counts()) or p
        sim.run()
        seen.append(totals)
    first, second = seen
    assert len(first) == len(second) == 10
    for a, b in zip(first, second, strict=True):
        assert np.array_equal(a, b)
