"""Tests for the steppable engine interface (start/step/finish).

The fleet layer drives many engines in lockstep through ``step()``; these
tests pin the contract that the split run is bit-identical to ``run()``
and that the ``profile_filter`` hook behaves as documented.
"""

import numpy as np
import pytest

from repro.baselines import StaticFractionPolicy
from repro.config import SimulationConfig, ThermostatConfig
from repro.core.thermostat import ThermostatPolicy
from repro.errors import SimulationError
from repro.sim.engine import EpochSimulation
from repro.sim.profile import EpochProfile
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import RateModelWorkload


def make_workload(num_huge: int = 8, rate_per_page: float = 100.0) -> RateModelWorkload:
    rates = np.full(num_huge * SUBPAGES_PER_HUGE_PAGE, rate_per_page / 512)
    return RateModelWorkload("uniform", rates, baseline_ops_per_second=1000.0)


def make_engine(**config_kwargs) -> EpochSimulation:
    defaults = dict(duration=150, epoch=30, seed=5, stochastic=True)
    defaults.update(config_kwargs)
    return EpochSimulation(
        make_workload(),
        ThermostatPolicy(ThermostatConfig()),
        SimulationConfig(**defaults),
    )


class TestSteppable:
    def test_stepped_run_matches_monolithic_run(self):
        whole = make_engine().run()

        engine = make_engine()
        engine.start()
        for _ in range(engine.config.num_epochs):
            engine.step()
        stepped = engine.finish()

        assert np.array_equal(
            whole.series("slowdown").values, stepped.series("slowdown").values
        )
        assert np.array_equal(
            whole.series("cold_fraction").values,
            stepped.series("cold_fraction").values,
        )
        assert whole.average_slowdown == stepped.average_slowdown

    def test_epochs_run_counts_steps(self):
        engine = make_engine()
        engine.start()
        assert engine.epochs_run == 0
        engine.step()
        engine.step()
        assert engine.epochs_run == 2

    def test_double_start_rejected(self):
        engine = make_engine()
        engine.start()
        with pytest.raises(SimulationError, match="already started"):
            engine.start()

    def test_finish_requires_start(self):
        with pytest.raises(SimulationError, match="start"):
            make_engine().finish()

    def test_partial_run_result_is_usable(self):
        engine = make_engine()
        engine.start()
        engine.step()
        result = engine.finish()
        assert result.stats.counter("epochs").value == 1
        assert result.duration == pytest.approx(30.0)


class TestProfileFilter:
    def test_identity_filter_preserves_run(self):
        plain = make_engine().run()
        engine = make_engine()
        engine.profile_filter = lambda profile, epoch_index: profile
        filtered = engine.run()
        assert np.array_equal(
            plain.series("slowdown").values, filtered.series("slowdown").values
        )

    def test_scaling_filter_changes_observed_pressure(self):
        def amplify(profile, epoch_index):
            return profile.scaled(4)

        quiet = EpochSimulation(
            make_workload(),
            StaticFractionPolicy(0.5),
            SimulationConfig(duration=150, epoch=30, seed=5, stochastic=False),
        ).run()
        loud_engine = EpochSimulation(
            make_workload(),
            StaticFractionPolicy(0.5),
            SimulationConfig(duration=150, epoch=30, seed=5, stochastic=False),
        )
        loud_engine.profile_filter = amplify
        loud = loud_engine.run()
        assert loud.average_slowdown > quiet.average_slowdown

    def test_filter_changing_page_count_is_rejected(self):
        def truncate(profile, epoch_index):
            half = profile.num_huge_pages // 2
            return EpochProfile(
                start_time=profile.start_time,
                duration=profile.duration,
                counts=np.zeros(half * SUBPAGES_PER_HUGE_PAGE, dtype=np.int64),
                write_fraction=profile.write_fraction,
            )

        engine = make_engine()
        engine.profile_filter = truncate
        engine.start()
        with pytest.raises(SimulationError, match="page count"):
            engine.step()


def make_profile(engine, num_huge, fill=200.0):
    counts = np.full(num_huge * SUBPAGES_PER_HUGE_PAGE, fill)
    return EpochProfile(
        start_time=engine.clock.now,
        duration=engine.config.epoch,
        counts=counts,
        write_fraction=0.1,
    )


class TestIngestedProfiles:
    """step(profile=...) is the online service's entry into the engine."""

    def test_ingested_profile_consumes_no_workload_rng(self):
        # Two engines, same seed: one steps on workload draws, the other
        # first steps on an ingested profile.  The ingested step must not
        # advance the workload RNG, so the *next* workload-drawn epochs
        # stay bit-identical between an engine that never ingested and a
        # fresh engine stepping the same count of workload epochs.
        plain = make_engine()
        plain.start()
        plain.step()
        plain_profile_counts = []
        plain.profile_filter = lambda p, i: (
            plain_profile_counts.append(p.huge_counts().copy()) or p
        )
        plain.step()

        mixed = make_engine()
        mixed.start()
        mixed.step()
        mixed.step(profile=make_profile(mixed, mixed.state.num_huge_pages))
        mixed_profile_counts = []
        mixed.profile_filter = lambda p, i: (
            mixed_profile_counts.append(p.huge_counts().copy()) or p
        )
        mixed.step()

        assert np.array_equal(plain_profile_counts[0], mixed_profile_counts[0])

    def test_ingested_profile_grows_the_state(self):
        engine = make_engine(stochastic=False)
        engine.start()
        assert engine.state.num_huge_pages == 8
        engine.step(profile=make_profile(engine, 12))
        assert engine.state.num_huge_pages == 12

    def test_ingested_shrink_rejected(self):
        engine = make_engine(stochastic=False)
        engine.start()
        engine.step()
        with pytest.raises(SimulationError, match="ingested profile"):
            engine.step(profile=make_profile(engine, 4))

    def test_ingested_counts_drive_the_policy(self):
        engine = make_engine(stochastic=False)
        engine.start()
        hot = np.zeros(8 * SUBPAGES_PER_HUGE_PAGE)
        hot[: SUBPAGES_PER_HUGE_PAGE] = 10_000.0  # page 0 is scorching
        # Sampling rotates through pages across epochs; keep feeding the
        # same skewed profile until page 0 has been observed and ranked.
        seen_hot: set[int] = set()
        for _ in range(32):
            engine.step(
                profile=EpochProfile(
                    start_time=engine.clock.now,
                    duration=engine.config.epoch,
                    counts=hot,
                    write_fraction=0.1,
                )
            )
            seen_hot.update(engine.policy.last_plan.hot.tolist())
        assert 0 in seen_hot
        # Pages 1-7 never show activity, so they never rank hot.
        assert not seen_hot - {0}


class TestLastPlan:
    def test_last_plan_published_each_epoch(self):
        engine = make_engine()
        engine.start()
        assert engine.policy.last_plan.to_payload()["sampled"] == []
        engine.step()
        payload = engine.policy.last_plan.to_payload()
        assert set(payload) == {
            "demote", "deferred", "promote", "cold", "hot", "sampled",
        }
        assert all(isinstance(v, list) for v in payload.values())

    def test_payload_holds_plain_ints(self):
        engine = make_engine()
        engine.start()
        for _ in range(3):
            engine.step()
        payload = engine.policy.last_plan.to_payload()
        for values in payload.values():
            assert all(type(v) is int for v in values)
