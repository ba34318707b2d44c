"""Tests for the repro.bench snapshot/compare subsystem."""

import json

import numpy as np
import pytest

from repro.bench.compare import compare_snapshots
from repro.bench.scenarios import (
    SCENARIOS,
    TIMING_REPEATS,
    Scenario,
    calibration_seconds,
    run_suite,
)
from repro.bench.snapshot import SCHEMA_VERSION, load_snapshot, write_snapshot
from repro.errors import ConfigError, SimulationError


def _snapshot(norm=1.0, slowdown=0.01):
    return {
        "schema_version": SCHEMA_VERSION,
        "calibration_seconds": 0.1,
        "scenarios": {
            "engine-small-redis": {
                "description": "x",
                "semantic": {"average_slowdown": slowdown, "epochs": 10.0},
                "perf": {"wall_seconds": 0.1 * norm, "normalized": norm},
            }
        },
    }


class TestSnapshotRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        body = {"calibration_seconds": 0.1, "scenarios": {}}
        write_snapshot(path, body)
        loaded = load_snapshot(path)
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["calibration_seconds"] == 0.1

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_snapshot(tmp_path / "nope.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_snapshot(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema_version": 999, "scenarios": {}}))
        with pytest.raises(ConfigError):
            load_snapshot(path)

    def test_sorted_keys_on_disk(self, tmp_path):
        """Canonical JSON keeps BENCH_*.json diffs reviewable."""
        path = tmp_path / "BENCH_c.json"
        write_snapshot(path, {"calibration_seconds": 0.1, "scenarios": {}})
        text = path.read_text()
        assert text.index("calibration_seconds") < text.index("scenarios")


class TestCompareGates:
    def test_identical_snapshots_pass(self):
        result = compare_snapshots(_snapshot(), _snapshot())
        assert result.ok
        assert result.checked == 3  # 2 semantic + 1 perf

    def test_semantic_drift_fails(self):
        result = compare_snapshots(_snapshot(slowdown=0.01), _snapshot(slowdown=0.011))
        assert not result.ok
        assert result.violations[0].kind == "semantic"
        assert result.violations[0].metric == "average_slowdown"

    def test_semantic_within_tolerance_passes(self):
        result = compare_snapshots(
            _snapshot(slowdown=0.01), _snapshot(slowdown=0.01 * (1 + 1e-9))
        )
        assert result.ok

    def test_perf_regression_fails(self):
        result = compare_snapshots(_snapshot(norm=1.0), _snapshot(norm=1.6))
        assert not result.ok
        assert result.violations[0].kind == "perf"

    def test_perf_improvement_passes(self):
        assert compare_snapshots(_snapshot(norm=1.0), _snapshot(norm=0.4)).ok

    def test_perf_allowance_configurable(self):
        current = _snapshot(norm=1.4)
        assert compare_snapshots(_snapshot(), current, perf_allowance=0.5).ok
        assert not compare_snapshots(_snapshot(), current, perf_allowance=0.2).ok

    def test_missing_scenario_fails(self):
        current = _snapshot()
        current["scenarios"] = {}
        result = compare_snapshots(_snapshot(), current)
        assert not result.ok
        assert result.violations[0].kind == "missing"

    def test_new_scenario_in_current_passes(self):
        current = _snapshot()
        current["scenarios"]["brand-new"] = {
            "semantic": {"x": 1.0},
            "perf": {"wall_seconds": 1.0, "normalized": 1.0},
        }
        assert compare_snapshots(_snapshot(), current).ok

    def test_describe_mentions_each_violation(self):
        result = compare_snapshots(_snapshot(), _snapshot(slowdown=9.0, norm=99.0))
        text = result.describe()
        assert "average_slowdown" in text
        assert "normalized" in text


class TestSuiteExecution:
    def test_calibration_is_positive(self):
        assert calibration_seconds(repeats=1) > 0.0

    def test_scenario_names_unique(self):
        names = [s.name for s in SCENARIOS]
        assert len(set(names)) == len(names)

    def test_run_suite_subset_and_determinism(self):
        one = run_suite(["engine-small-redis"])
        two = run_suite(["engine-small-redis"])
        assert list(one["scenarios"]) == ["engine-small-redis"]
        sem_one = one["scenarios"]["engine-small-redis"]["semantic"]
        sem_two = two["scenarios"]["engine-small-redis"]["semantic"]
        assert sem_one == sem_two
        assert one["scenarios"]["engine-small-redis"]["perf"]["normalized"] > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_suite(["no-such-scenario"])

    def test_scenario_time_is_fastest_of_repeats(self, monkeypatch):
        from repro.bench import scenarios

        calls = []

        def run():
            calls.append(1)
            return {"answer": 42.0}

        ticks = iter([0.0, 5.0, 10.0, 12.0, 20.0, 27.0])
        monkeypatch.setattr(scenarios, "SCENARIOS", (Scenario("fake", "x", run),))
        monkeypatch.setattr(scenarios, "calibration_seconds", lambda: 0.5)
        monkeypatch.setattr(scenarios.time, "perf_counter", lambda: next(ticks))
        body = run_suite(["fake"])
        assert len(calls) == TIMING_REPEATS == 3
        entry = body["scenarios"]["fake"]
        assert entry["semantic"] == {"answer": 42.0}
        assert entry["perf"] == {"wall_seconds": 2.0, "normalized": 4.0}

    def test_repeats_that_disagree_fail_the_run(self, monkeypatch, capsys):
        from repro.bench import scenarios
        from repro.bench.cli import main

        calls = []

        def drifting():
            calls.append(1)
            return {"stable": 1.0, "drifting": float(len(calls) % 2)}

        monkeypatch.setattr(
            scenarios, "SCENARIOS", (Scenario("flaky", "x", drifting),)
        )
        with pytest.raises(SimulationError, match=r"flaky.*\['drifting'\]"):
            run_suite(["flaky"])
        assert main(["run", "--scenario", "flaky"]) == 1
        assert "FAIL: flaky" in capsys.readouterr().out


class TestCli:
    def test_list_and_run_and_compare(self, tmp_path, capsys):
        from repro.bench.cli import main

        assert main(["list"]) == 0
        out = str(tmp_path / "BENCH_t.json")
        assert main(["run", "--scenario", "engine-small-redis", "--out", out]) == 0
        snapshot = load_snapshot(out)
        assert "engine-small-redis" in snapshot["scenarios"]
        assert main(["compare", out, out]) == 0
        # Corrupt a semantic metric: the gate must fail loudly.
        snapshot["scenarios"]["engine-small-redis"]["semantic"][
            "average_slowdown"
        ] *= 2.0
        bad = str(tmp_path / "BENCH_bad.json")
        write_snapshot(bad, {k: v for k, v in snapshot.items() if k != "schema_version"})
        assert main(["compare", out, bad]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out


def _write_snapshot(path, slowdown=0.01, **extra):
    body = {**_snapshot(slowdown=slowdown), **extra}
    del body["schema_version"]
    return str(write_snapshot(path, body))


class TestNumpyVersion:
    def test_run_records_numpy_version(self, tmp_path, monkeypatch):
        from repro.bench import scenarios
        from repro.bench.cli import main

        fake = Scenario("fake", "x", lambda: {"answer": 42.0})
        monkeypatch.setattr(scenarios, "SCENARIOS", (fake,))
        monkeypatch.setattr(scenarios, "calibration_seconds", lambda: 0.5)
        out = tmp_path / "BENCH_np.json"
        assert main(["run", "--scenario", "fake", "--out", str(out)]) == 0
        snapshot = load_snapshot(out)
        assert snapshot["schema_version"] == SCHEMA_VERSION == 1
        assert snapshot["numpy"] == np.__version__

    def test_compare_names_both_versions_unless_equal(self, tmp_path, capsys):
        from repro.bench.cli import main

        unrecorded = _write_snapshot(tmp_path / "BENCH_u.json")
        old = _write_snapshot(tmp_path / "BENCH_a.json", numpy="1.26.4")
        new = _write_snapshot(tmp_path / "BENCH_b.json", numpy="2.4.6")
        assert main(["compare", unrecorded, new]) == 0
        assert "numpy: baseline not recorded, current 2.4.6" in capsys.readouterr().out
        assert main(["compare", old, new]) == 0
        assert "numpy: baseline 1.26.4, current 2.4.6" in capsys.readouterr().out
        assert main(["compare", new, new]) == 0
        assert "numpy" not in capsys.readouterr().out

    def test_version_note_leaves_the_exit_status_alone(self, tmp_path, capsys):
        from repro.bench.cli import main

        old = _write_snapshot(tmp_path / "BENCH_a.json")
        drifted = _write_snapshot(tmp_path / "BENCH_b.json", slowdown=9.0, numpy="2.4.6")
        assert main(["compare", old, drifted]) == 1
        out = capsys.readouterr().out
        assert "numpy: baseline not recorded" in out
        assert "FAIL" in out
