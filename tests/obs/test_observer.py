"""End-to-end observability tests: observer seam, determinism, artifacts.

The contract under test is PR 4's ``--audit`` rule extended to
``--trace/--metrics/--self-profile``: an observed run is *bit-identical*
to a plain run (same RNG consumption, same payload, same cache key) —
observability only ever adds artifact files on the side.
"""

import dataclasses
import json
import pickle

import pytest

from repro.config import SupervisorConfig
from repro.errors import ObservabilityError
from repro.experiments import supervisor
from repro.experiments.parallel import (
    TEST_FAULT_ENV,
    ResultStore,
    RunSpec,
    _execute_spec_payload,
    run_label,
    run_many,
)
from repro.experiments.supervisor import run_supervised
from repro.obs import (
    NULL_OBSERVER,
    OBS_ENV,
    NullObserver,
    ObsConfig,
    Observer,
    collect_run_metrics,
    config_from_env,
)
from repro.obs.profiling import PhaseProfiler, merge_rollups, render_profile_table
from repro.obs.tracer import read_jsonl
from repro.obs.validate import main as validate_main
from repro.obs.validate import validate_directory

SPEC = RunSpec(workload="web-search", scale=0.02, duration=90.0, seed=3)
OTHER = RunSpec(workload="redis", scale=0.02, duration=90.0, seed=3)


def install_env(monkeypatch, config: ObsConfig) -> None:
    """Publish ``config`` the way the runner does, with pytest cleanup."""
    monkeypatch.setenv(
        OBS_ENV, json.dumps(dataclasses.asdict(config), sort_keys=True)
    )


class TestNullObserver:
    def test_inactive_and_inert(self):
        obs = NullObserver()
        assert obs.active is False
        assert obs.tracer is None and obs.metrics is None and obs.profiler is None
        with obs.phase("scan"):
            pass
        obs.emit("engine", "epoch", time=0.0, slow_rate=1.0)
        obs.inc("repro_engine_epochs_total")
        obs.set_gauge("repro_engine_cold_fraction", 0.5)
        obs.observe("repro_engine_epoch_slowdown", 0.1, (1.0, 2.0))

    def test_shared_instance_is_the_engine_default(self):
        from repro.sim import engine, policy

        assert engine.NULL_OBSERVER is NULL_OBSERVER
        assert policy.PlacementPolicy.observer is NULL_OBSERVER
        assert NULL_OBSERVER.active is False


class TestObserver:
    def test_pillars_follow_flags(self):
        obs = Observer(trace=True)
        assert obs.active and obs.tracer is not None
        assert obs.metrics is None and obs.profiler is None
        obs.emit("engine", "epoch", time=0.0)
        obs.inc("repro_engine_epochs_total")  # metrics off: no-op, no error
        assert len(obs.tracer) == 1

    def test_observe_handles_scalars_and_arrays(self):
        import numpy as np

        obs = Observer(metrics=True)
        obs.observe("repro_test_hist", 0.5, (1.0, 10.0))
        obs.observe("repro_test_hist", np.array([0.2, 5.0, 100.0]), (1.0, 10.0))
        hist = obs.metrics.histograms["repro_test_hist"]
        assert hist.counts == [2, 1, 1]

    def test_phase_times_accumulate(self):
        obs = Observer(profile=True)
        with obs.phase("scan"):
            pass
        with obs.phase("scan"):
            pass
        assert obs.profiler.calls["scan"] == 2


class TestObsConfig:
    def test_env_round_trip(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        config = ObsConfig(trace=True, metrics=True, out_dir="somewhere")
        install_env(monkeypatch, config)
        assert config_from_env() == config

    def test_absent_or_disabled_env_reads_none(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        assert config_from_env() is None
        install_env(monkeypatch, ObsConfig())  # all pillars off
        assert config_from_env() is None

    def test_make_observer(self):
        assert ObsConfig().make_observer() is NULL_OBSERVER
        obs = ObsConfig(trace=True).make_observer(process="x")
        assert obs.active and obs.tracer.process == "x"


class TestBitIdenticalRuns:
    def test_traced_run_matches_plain_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        plain = _execute_spec_payload(SPEC)
        config = ObsConfig(
            trace=True, metrics=True, self_profile=True, out_dir=str(tmp_path)
        )
        install_env(monkeypatch, config)
        traced = _execute_spec_payload(SPEC)
        assert pickle.dumps(traced) == pickle.dumps(plain)

        label = run_label(SPEC)
        events = read_jsonl(tmp_path / f"trace_{label}.jsonl", validate=True)
        assert events, "a traced run must record events"
        epochs = [e for e in events if e["cat"] == "engine" and e["name"] == "epoch"]
        assert len(epochs) == 3  # 90s / 30s epochs
        snapshot = json.loads((tmp_path / f"metrics_{label}.json").read_text())
        assert snapshot["counters"]["repro_engine_epochs_total"] == 3
        profile = json.loads((tmp_path / f"profile_{label}.json").read_text())
        assert {row["phase"] for row in profile["phases"]} >= {"profile", "charge", "classify"}
        assert validate_directory(tmp_path)["traces"] == 1

    def test_observability_never_changes_the_cache_key(self):
        # ObsConfig lives in the environment, not the spec: nothing to assert
        # beyond the spec's key being observability-free by construction.
        assert "trace" not in dataclasses.asdict(SPEC)
        assert SPEC.cache_key() == dataclasses.replace(SPEC).cache_key()


class TestParallelDeterminism:
    def test_jobs_produce_identical_artifacts(self, tmp_path, monkeypatch):
        """--jobs N and serial runs write byte-identical traces/metrics."""
        specs = [SPEC, OTHER]
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        # self_profile off: wall-clock rollups are legitimately run-dependent.
        for out_dir, jobs in ((serial_dir, 1), (parallel_dir, 2)):
            install_env(
                monkeypatch,
                ObsConfig(trace=True, metrics=True, out_dir=str(out_dir)),
            )
            run_many(specs, jobs=jobs, store=ResultStore())
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        assert serial_files == sorted(p.name for p in parallel_dir.iterdir())
        assert len([n for n in serial_files if n.startswith("trace_")]) == 4
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes(), name
        merged_serial = collect_run_metrics(serial_dir).snapshot()
        assert merged_serial == collect_run_metrics(parallel_dir).snapshot()
        assert merged_serial["counters"]["repro_engine_epochs_total"] == 6


class TestSupervisorObservability:
    def test_successful_batch_spans_attempts(self):
        obs = Observer(trace=True, metrics=True, process="supervisor")
        batch = run_supervised(
            [SPEC], store=ResultStore(), config=SupervisorConfig(),
            observer=obs,
        )
        assert not batch.quarantined
        attempts = [e for e in obs.tracer.events if e.name == "attempt"]
        assert len(attempts) == 1
        assert attempts[0].args["outcome"] == "ok"
        assert attempts[0].args["attempt"] == 1
        assert attempts[0].args["workload"] == "web-search"
        assert attempts[0].duration >= 0.0
        assert obs.metrics.counters["repro_supervisor_attempts_total"].value == 1

    def test_resumed_tasks_are_annotated(self):
        store = ResultStore()
        run_supervised([SPEC], store=store, config=SupervisorConfig())
        obs = Observer(trace=True, metrics=True, process="supervisor")
        run_supervised(
            [SPEC], store=store, config=SupervisorConfig(), observer=obs
        )
        names = [e.name for e in obs.tracer.events]
        assert names == ["resumed"]
        assert obs.metrics.counters["repro_supervisor_resumed_total"].value == 1

    def test_crash_and_retry_are_annotated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_SECONDS", 0.01)
        marker = tmp_path / "crash-once"
        monkeypatch.setenv(TEST_FAULT_ENV, f"web-search:exit@{marker}")
        obs = Observer(trace=True, metrics=True, process="supervisor")
        batch = run_supervised(
            [SPEC], store=ResultStore(), config=SupervisorConfig(),
            observer=obs,
        )
        assert not batch.quarantined and batch.retried == 1
        attempts = [e for e in obs.tracer.events if e.name == "attempt"]
        assert [e.args["attempt"] for e in attempts] == [1, 2]
        assert attempts[0].args["outcome"] != "ok"
        assert attempts[1].args["outcome"] == "ok"
        assert "retry_scheduled" in [e.name for e in obs.tracer.events]
        assert obs.metrics.counters["repro_supervisor_retries_total"].value == 1


class TestProfiler:
    def test_rollup_orders_by_cost_and_shares_sum_to_one(self):
        profiler = PhaseProfiler()
        profiler.add("scan", 3.0, calls=2)
        profiler.add("classify", 1.0, calls=4)
        rows = profiler.rollup()
        assert [r["phase"] for r in rows] == ["scan", "classify"]
        assert rows[0]["mean_ms"] == pytest.approx(1500.0)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_merge_rollups_adds_worker_tables(self):
        profiler = PhaseProfiler()
        profiler.add("scan", 2.0, calls=1)
        merged = merge_rollups([profiler.rollup(), profiler.rollup()])
        assert merged[0]["total_seconds"] == pytest.approx(4.0)
        assert merged[0]["calls"] == 2

    def test_render_profile_table(self):
        profiler = PhaseProfiler()
        profiler.add("scan", 2.0, calls=1)
        table = render_profile_table(profiler.rollup())
        lines = table.splitlines()
        assert lines[0] == "[self-profile]"
        assert lines[1].split() == ["phase", "calls", "total_s", "mean_ms", "share"]
        assert "scan" in lines[2] and "100.0%" in lines[2]
        assert render_profile_table([]).endswith("(no phases recorded)")


class TestValidateDirectory:
    def _write_artifacts(self, out_dir):
        config = ObsConfig(trace=True, metrics=True, out_dir=str(out_dir))
        obs = config.make_observer(process="unit")
        obs.emit("engine", "epoch", time=0.0, duration=30.0, slow_rate=0.1)
        obs.inc("repro_engine_epochs_total")
        from repro.obs import write_run_artifacts

        write_run_artifacts(config, "unit_run", obs)
        return out_dir

    def test_valid_directory_passes(self, tmp_path, capsys):
        self._write_artifacts(tmp_path)
        checked = validate_directory(tmp_path)
        assert checked == {"traces": 1, "events": 1, "metrics": 1, "flights": 0}
        assert validate_main([str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("ok: 1 trace(s)")

    def test_missing_chrome_twin_fails(self, tmp_path):
        self._write_artifacts(tmp_path)
        (tmp_path / "trace_unit_run.chrome.json").unlink()
        with pytest.raises(ObservabilityError, match="Chrome twin"):
            validate_directory(tmp_path)

    def test_stale_merged_metrics_fail(self, tmp_path):
        self._write_artifacts(tmp_path)
        (tmp_path / "metrics.json").write_text(
            json.dumps({"counters": {"repro_x_y": 99.0}, "gauges": {}, "histograms": {}})
        )
        with pytest.raises(ObservabilityError, match="disagrees"):
            validate_directory(tmp_path)

    def test_empty_directory_is_invalid_via_cli(self, tmp_path, capsys):
        assert validate_main([str(tmp_path)]) == 1
        assert "no observability artifacts" in capsys.readouterr().err

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(ObservabilityError, match="not a directory"):
            validate_directory(tmp_path / "missing")
