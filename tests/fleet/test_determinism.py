"""Satellite: seeded fleet runs replay bit-identically, serial or parallel."""

import numpy as np

from repro.experiments import ext_fleet
from repro.fleet import FleetConfig, FleetSimulation, TenantSpec, scenario_schedule

SCALE = 0.01
DURATION = 300.0


def build(scenario="churn", seed=11):
    specs = [
        TenantSpec(name=f"t{i}", workload=w, scale=SCALE, seed=seed + i)
        for i, w in enumerate(("redis", "web-search"))
    ]
    extra, events = scenario_schedule(
        scenario, [s.name for s in specs], DURATION, SCALE
    )
    return FleetSimulation(
        specs + list(extra),
        events,
        FleetConfig(duration=DURATION, epoch=30.0, seed=seed),
    )


class TestReplay:
    def test_chaos_and_churn_replay_bit_identical(self):
        first = build().run()
        second = build().run()
        assert first.scorecard == second.scorecard
        assert first.scorecard_digest == second.scorecard_digest
        for name, result in first.results.items():
            twin = second.results[name]
            assert np.array_equal(
                result.stats.timeseries("slowdown").values,
                twin.stats.timeseries("slowdown").values,
            )

    def test_different_seed_differs(self):
        assert build(seed=11).run().scorecard_digest != build(seed=12).run().scorecard_digest

    def test_chaos_free_run_unchanged_by_chaos_machinery(self):
        # The chaos injector at rate 0 consumes no RNG: a fleet with an
        # empty schedule matches one whose schedule never opens a window.
        quiet = build(scenario="baseline").run()
        specs = [
            TenantSpec(name=f"t{i}", workload=w, scale=SCALE, seed=11 + i)
            for i, w in enumerate(("redis", "web-search"))
        ]
        never = FleetSimulation(
            specs,
            [],
            FleetConfig(duration=DURATION, epoch=30.0, seed=11),
        ).run()
        assert quiet.scorecard_digest == never.scorecard_digest


class TestExperimentParallelism:
    def test_jobs_matches_serial(self):
        scenarios = ("noisy-neighbor", "churn")
        serial = ext_fleet.run(
            scale=SCALE, seed=11, chaos=scenarios, tenants=2, jobs=1
        )
        fanned = ext_fleet.run(
            scale=SCALE, seed=11, chaos=scenarios, tenants=2, jobs=2
        )
        assert [r["digest"] for r in serial] == [r["digest"] for r in fanned]
        assert [r["scorecard"] for r in serial] == [r["scorecard"] for r in fanned]

    def test_render_is_stable(self):
        rows = ext_fleet.run(
            scale=SCALE, seed=11, chaos=("baseline",), tenants=2, jobs=1
        )
        assert ext_fleet.render(rows) == ext_fleet.render(rows)
