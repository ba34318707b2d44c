"""Smoke tests for the extension experiments (Section 6 material)."""

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    ext_counting,
    ext_fleet,
    ext_latency,
    ext_oracle,
    ext_service,
    ext_wear,
)

SCALE = 0.03
SEED = 1


class TestExtCounting:
    def test_runs_and_renders(self):
        comparison = ext_counting.run(seed=SEED)
        text = ext_counting.render(comparison)
        assert "badgertrap" in text
        assert len(comparison.results) == 4


class TestExtWear:
    def test_lifetimes(self):
        rows = ext_wear.run_lifetimes(scale=SCALE, seed=SEED)
        assert len(rows) == 6
        for row in rows:
            assert row.slow_write_rate_lines >= 0
            assert row.lifetime_years_ideal > row.lifetime_years_unleveled

    def test_start_gap_demo(self):
        result = ext_wear.run_start_gap_demo(num_lines=64, duration=400.0,
                                             seed=SEED)
        assert result.improvement > 5
        text = ext_wear.render(
            ext_wear.run_lifetimes(scale=SCALE, seed=SEED), result
        )
        assert "Start-Gap" in text


class TestExtLatency:
    def test_rows_and_bounds(self):
        rows = ext_latency.run(scale=SCALE, seed=SEED)
        assert len(rows) == 6
        for row in rows:
            assert 0.0 <= row.slow_probability <= 1.0
            assert row.mean >= 0.0
            assert row.p99 >= row.p95 - 1e-9 or row.p95 == 0.0
        assert "p99" in ext_latency.render(rows)


class TestExtOracle:
    def test_gap_structure(self):
        rows = ext_oracle.run(scale=SCALE, seed=SEED)
        assert len(rows) == 6
        for row in rows:
            assert row.thermostat_cold <= row.oracle_cold + 0.1, row.workload
        assert "oracle" in ext_oracle.render(rows)


class TestExtThpTradeoff:
    def test_thermostat_always_wins(self):
        from repro.experiments import ext_thp_tradeoff

        rows = ext_thp_tradeoff.run(scale=SCALE, seed=SEED)
        assert len(rows) == 6
        for row in rows:
            assert row.thermostat_net > row.tier_4kb_net - 1e-12
        by_name = {r.workload: r for r in rows}
        # Redis gains the most from staying huge-paged; web search is
        # indifferent (its THP gain is ~0).
        assert by_name["redis"].advantage == max(r.advantage for r in rows)
        assert by_name["web-search"].advantage < 0.01
        assert "thermostat" in ext_thp_tradeoff.render(rows)


class TestExtService:
    def test_gates_and_determinism(self):
        rows = ext_service.run(seed=SEED, decisions=40)
        assert [row["posture"] for row in rows] == ["clean", "chaos"]
        clean, chaos = rows
        assert clean["summary"]["degraded"] == 0
        assert clean["summary"]["fresh"] == clean["summary"]["decisions"]
        # The pinned chaos mix must actually exercise degradation.
        assert chaos["summary"]["degraded"] > 0
        text = ext_service.render(rows)
        assert "degraded" in text
        assert text == ext_service.render(ext_service.run(seed=SEED, decisions=40))


class TestRunnerFlags:
    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["ext-fleet", "--chaos", "nope"], "unknown chaos scenarios: nope"),
            (["ext-fleet", "--tenants", "0"], "--tenants must be >= 1 (got 0)"),
            (["ext-fleet", "--slo", "1.5"], "--slo must be in (0, 1) (got 1.5)"),
            (
                ["ext-service", "--service-decisions", "0"],
                "--service-decisions must be >= 1 (got 0)",
            ),
        ],
        ids=["chaos", "tenants", "slo", "service-decisions"],
    )
    def test_bad_flag_is_an_argparse_error(self, argv, message, capsys):
        from repro.experiments.runner import main as runner_main

        with pytest.raises(SystemExit) as exc:
            runner_main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("experiment", "kwargs", "message"),
        [
            (ext_service, {"decisions": 0}, "--service-decisions must be >= 1 (got 0)"),
            (ext_fleet, {"tenants": 0}, "--tenants must be >= 1 (got 0)"),
            (ext_fleet, {"slo": 0.0}, "--slo must be in (0, 1) (got 0.0)"),
            (ext_fleet, {"chaos": ()}, "--chaos must name at least one scenario"),
            (ext_fleet, {"chaos": ("nope",)}, "unknown chaos scenarios: nope"),
        ],
        ids=["decisions", "tenants", "slo", "no-chaos", "unknown-chaos"],
    )
    def test_library_caller_gets_the_same_check(self, experiment, kwargs, message):
        # Checked before any work starts, so the defaults never run.
        with pytest.raises(ConfigError) as exc:
            experiment.run(seed=SEED, **kwargs)
        assert message in str(exc.value)


class TestRunnerIncludesExtensions:
    def test_registry(self):
        from repro.experiments.runner import EXPERIMENTS

        for name in ("ext-counting", "ext-wear", "ext-latency", "ext-oracle",
                     "ext-thp", "ext-fleet", "ext-service"):
            assert name in EXPERIMENTS
