"""Tests for supervised execution: crashes, hangs, retries, quarantine, resume.

Worker misbehaviour is injected through the ``REPRO_TEST_FAULT``
environment variable (see :mod:`repro.experiments.parallel`), which is
the only faulting mechanism that crosses the process boundary into pool
workers.  A ``@marker`` suffix makes a directive fire once, so "crash
then succeed on retry" is expressible.
"""

import json

import pytest
from test_parallel import SPEC, assert_results_identical

from repro import config as config_module
from repro.config import SupervisorConfig
from repro.errors import ConfigError, QuarantinedTaskError
from repro.experiments import common, supervisor
from repro.experiments.parallel import (
    TEST_FAULT_ENV,
    ResultStore,
    RunSpec,
    _execute_spec_payload,
    run_many,
)
from repro.experiments.runner import main as runner_main
from repro.experiments.supervisor import run_supervised

#: A second fast spec so batches have an innocent bystander.
OTHER = RunSpec(workload="redis", scale=0.02, duration=90.0, seed=7)


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    """Fast-retry posture for tests: backoff measured in milliseconds."""
    monkeypatch.setattr(supervisor, "BACKOFF_SECONDS", 0.01)
    monkeypatch.setattr(supervisor, "BACKOFF_JITTER", 0.1)


def clean_results(*specs):
    """Unsupervised reference results (run before any fault env is set)."""
    return run_many(list(specs), store=ResultStore())


@pytest.fixture(autouse=True)
def _reset_common_state():
    """Runner invocations mutate process-wide experiment plumbing."""
    yield
    common.configure_supervisor(None)
    common.configure_audit(False)
    common.configure_store()


class TestConfig:
    def test_parent_timeout_scales_worker_budget(self):
        budget = SupervisorConfig(timeout=5.0).parent_timeout
        assert budget == 7.5 + config_module.PARENT_GRACE_SECONDS
        assert SupervisorConfig().parent_timeout is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(timeout=0.0)
        with pytest.raises(ConfigError):
            SupervisorConfig(max_attempts=0)


class TestCleanBatch:
    def test_matches_run_many(self):
        reference = clean_results(SPEC, OTHER)
        batch = run_supervised(
            [SPEC, OTHER], jobs=2, store=ResultStore(), config=SupervisorConfig()
        )
        assert batch.quarantined == []
        assert (batch.resumed, batch.retried, batch.attempts) == (0, 0, {})
        for got, want in zip(batch.results, reference, strict=True):
            assert_results_identical(got, want)
        batch.raise_on_quarantine()  # no-op on a clean batch

    def test_duplicates_collapse_to_one_task(self):
        batch = run_supervised(
            [SPEC, SPEC], jobs=2, store=ResultStore(), config=SupervisorConfig()
        )
        assert_results_identical(batch.results[0], batch.results[1])


class TestCrashRecovery:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_crash_is_retried(self, jobs, tmp_path, monkeypatch):
        reference = clean_results(SPEC, OTHER)
        marker = tmp_path / "crash-once"
        monkeypatch.setenv(TEST_FAULT_ENV, f"web-search:exit@{marker}")
        batch = run_supervised(
            [SPEC, OTHER],
            jobs=jobs,
            store=ResultStore(),
            config=SupervisorConfig(),
        )
        assert marker.exists()
        assert batch.quarantined == []
        assert batch.retried >= 1
        assert batch.attempts[SPEC.cache_key()] >= 1
        for got, want in zip(batch.results, reference, strict=True):
            assert_results_identical(got, want)

    def test_hang_cut_short_by_worker_alarm(self, tmp_path, monkeypatch):
        marker = tmp_path / "hang-once"
        monkeypatch.setenv(TEST_FAULT_ENV, f"web-search:hang:30@{marker}")
        batch = run_supervised(
            [SPEC],
            store=ResultStore(),
            config=SupervisorConfig(timeout=0.5),
        )
        assert marker.exists()
        assert batch.quarantined == []
        assert batch.attempts[SPEC.cache_key()] == 1
        assert batch.results[0] is not None

    def test_hard_hang_killed_by_parent_backstop(self, tmp_path, monkeypatch):
        """A hang that blocks SIGALRM outlives the in-worker alarm; only
        the parent-side deadline can recover — by killing and rebuilding
        the pool."""
        marker = tmp_path / "hang-once"
        monkeypatch.setenv(TEST_FAULT_ENV, f"web-search:hard-hang:30@{marker}")
        monkeypatch.setattr(config_module, "PARENT_GRACE_SECONDS", 0.2)
        batch = run_supervised(
            [SPEC], store=ResultStore(), config=SupervisorConfig(timeout=0.4)
        )
        assert batch.quarantined == []
        assert batch.results[0] is not None
        assert batch.attempts[SPEC.cache_key()] == 1


class TestWorkerThreadFallback:
    """_supervised_worker must not require the main thread for its budget.

    ``signal.signal`` raises ``ValueError`` off the main thread; the
    worker entry point has to detect that and fall back to a
    monotonic-deadline timer that hard-exits the process instead.
    """

    def test_runs_to_completion_off_the_main_thread(self):
        import threading

        from repro.experiments.supervisor import _supervised_worker

        outcome = {}

        def call():
            try:
                outcome["payload"] = _supervised_worker(SPEC, timeout=60.0)
            except BaseException as exc:  # noqa: BLE001 - recording for assert
                outcome["error"] = exc

        thread = threading.Thread(target=call)
        thread.start()
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert "error" not in outcome, f"worker raised: {outcome.get('error')!r}"
        store = ResultStore()
        store.put_payload(SPEC.cache_key(), outcome["payload"])
        assert_results_identical(
            store.load(SPEC.cache_key()), clean_results(SPEC)[0]
        )

    def test_fallback_timer_kills_the_process_on_expiry(self, tmp_path):
        """Off the main thread with a blown budget, the worker hard-exits
        with TIMEOUT_EXIT_CODE (run in a subprocess: the exit is fatal)."""
        import os
        import subprocess
        import sys

        script = """
import threading
from repro.experiments.parallel import RunSpec
from repro.experiments.supervisor import _supervised_worker

spec = RunSpec(workload="web-search", scale=0.02, duration=90.0, seed=7)
thread = threading.Thread(
    target=_supervised_worker, args=(spec, 0.2), daemon=True
)
thread.start()
thread.join(timeout=60.0)
raise SystemExit(7)  # only reached if the timer never fired
"""
        env = dict(os.environ)
        env[TEST_FAULT_ENV] = "web-search:hang:600"
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
            capture_output=True, text=True,
        )
        from repro.experiments.supervisor import TIMEOUT_EXIT_CODE

        assert proc.returncode == TIMEOUT_EXIT_CODE, proc.stderr

    def test_timer_firing_after_completion_does_not_kill(self):
        """A timer that fires while (or after) the task returns must not
        hard-exit: the result is already computed and the exit would
        discard it and charge the attempt as a death.  The timer is
        stubbed so its callback can be invoked deliberately after the
        worker finished, past the deadline (run in a subprocess: a
        regression here is a fatal os._exit)."""
        import os
        import subprocess
        import sys

        script = """
import threading
import time

import repro.experiments.supervisor as sup
from repro.experiments.parallel import RunSpec

captured = {}

class FakeTimer:
    def __init__(self, interval, function):
        captured["expire"] = function
        self.daemon = True

    def start(self):
        pass

    def cancel(self):
        pass

threading.Timer = FakeTimer  # the worker must arm the fallback timer
spec = RunSpec(workload="web-search", scale=0.02, duration=90.0, seed=7)
outcome = {}
thread = threading.Thread(
    target=lambda: outcome.update(p=sup._supervised_worker(spec, 0.001))
)
thread.start()
thread.join(timeout=60.0)
assert "p" in outcome, "worker did not finish"
time.sleep(0.01)  # deadline (1ms) is long past
captured["expire"]()  # late firing: must be a no-op, not os._exit(41)
raise SystemExit(7)
"""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert proc.returncode == 7, proc.stderr


class TestQuarantine:
    def test_always_failing_task_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "web-search:raise")
        quarantine = tmp_path / "quarantine.json"
        batch = run_supervised(
            [SPEC, OTHER],
            jobs=2,
            store=ResultStore(),
            config=SupervisorConfig(
                max_attempts=2, quarantine_path=str(quarantine)
            ),
        )
        # The healthy bystander still completed.
        assert batch.results[1] is not None
        assert batch.results[0] is None
        (entry,) = batch.quarantined
        assert entry.workload == "web-search"
        assert entry.attempts == 2
        assert entry.error_type == "RuntimeError"
        assert len(entry.tracebacks) == 2
        assert all("injected test fault" in t for t in entry.tracebacks)

        report = json.loads(quarantine.read_text())
        assert report["version"] == 1
        (raw,) = report["entries"]
        assert raw["spec"]["workload"] == "web-search"
        assert raw["attempts"] == 2

        with pytest.raises(QuarantinedTaskError, match="web-search"):
            batch.raise_on_quarantine()

    def test_observed_quarantine_writes_flight_dump(self, tmp_path, monkeypatch):
        from repro.obs import Observer
        from repro.obs.live import validate_flight_dump

        monkeypatch.setenv(TEST_FAULT_ENV, "web-search:raise")
        quarantine = tmp_path / "quarantine.json"
        obs = Observer(trace=True, metrics=True, process="supervisor")
        batch = run_supervised(
            [SPEC],
            store=ResultStore(),
            config=SupervisorConfig(
                max_attempts=2, quarantine_path=str(quarantine)
            ),
            observer=obs,
        )
        (entry,) = batch.quarantined
        # The dump sits next to quarantine.json and revalidates; its path
        # is recorded in the entry (and therefore in quarantine.json).
        assert entry.flight_dump is not None
        dump_path = tmp_path / entry.flight_dump.rsplit("/", 1)[-1]
        assert dump_path.exists()
        payload = json.loads(dump_path.read_text())
        validate_flight_dump(payload)
        assert payload["label"] == "supervisor"
        names = [e["name"] for e in payload["entries"]]
        assert "attempt" in names and "quarantined" in names
        raw = json.loads(quarantine.read_text())
        assert raw["entries"][0]["flight_dump"] == entry.flight_dump
        # The failure line surfaces the dump path for operators.
        with pytest.raises(QuarantinedTaskError, match=r"\[flight: "):
            batch.raise_on_quarantine()

    def test_quarantine_dump_is_the_trace_tail(self, tmp_path, monkeypatch):
        from repro.obs import Observer

        monkeypatch.setenv(TEST_FAULT_ENV, "web-search:raise")
        obs = Observer(trace=True, process="supervisor")
        batch = run_supervised(
            [SPEC],
            store=ResultStore(),
            config=SupervisorConfig(
                max_attempts=2,
                quarantine_path=str(tmp_path / "quarantine.json"),
            ),
            observer=obs,
        )
        (entry,) = batch.quarantined
        dump_path = tmp_path / entry.flight_dump.rsplit("/", 1)[-1]
        payload = json.loads(dump_path.read_text())
        # attempt, retry_scheduled, attempt, quarantined — then the dump.
        trace = [event.to_dict() for event in obs.tracer.events]
        assert len(trace) == 4
        assert payload["entries"] == trace
        assert payload["records_total"] == len(trace)
        # The per-batch recorder is detached when the batch ends.
        assert obs.recorder is None

    def test_unobserved_quarantine_has_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "web-search:raise")
        quarantine = tmp_path / "quarantine.json"
        batch = run_supervised(
            [SPEC],
            store=ResultStore(),
            config=SupervisorConfig(
                max_attempts=2, quarantine_path=str(quarantine)
            ),
        )
        (entry,) = batch.quarantined
        assert entry.flight_dump is None
        assert not list(tmp_path.glob("flight_*.json"))

    def test_clean_batch_clears_stale_quarantine(self, tmp_path):
        quarantine = tmp_path / "quarantine.json"
        quarantine.write_text("{}")
        run_supervised(
            [SPEC],
            store=ResultStore(),
            config=SupervisorConfig(quarantine_path=str(quarantine)),
        )
        assert not quarantine.exists()


class TestResume:
    def test_resumes_from_partial_store(self, tmp_path, monkeypatch):
        reference = clean_results(SPEC, OTHER)
        # Simulate a killed run: one result checkpointed, one stale tmp.
        ResultStore(tmp_path).put_payload(
            OTHER.cache_key(), _execute_spec_payload(OTHER)
        )
        (tmp_path / "half-written.json.tmp").write_text("{")

        # Were the finished run re-executed, it would crash: proof the
        # resume really is store-first.
        monkeypatch.setenv(TEST_FAULT_ENV, "redis:raise")
        store = ResultStore(tmp_path)
        batch = run_supervised(
            [SPEC, OTHER], jobs=2, store=store, config=SupervisorConfig()
        )
        assert not (tmp_path / "half-written.json.tmp").exists()
        assert batch.resumed == 1
        assert batch.quarantined == []
        for got, want in zip(batch.results, reference, strict=True):
            assert_results_identical(got, want)


class TestAuditOnRetry:
    def test_retry_runs_audited(self, monkeypatch):
        """assert-audit fails any unaudited attempt, so success proves
        the retry carried audit=True."""
        monkeypatch.setenv(TEST_FAULT_ENV, "web-search:assert-audit")
        batch = run_supervised(
            [SPEC], store=ResultStore(), config=SupervisorConfig()
        )
        assert batch.quarantined == []
        assert batch.attempts[SPEC.cache_key()] == 1
        assert batch.results[0] is not None

    def test_invariant_violating_retry_quarantined(self, tmp_path, monkeypatch):
        """A retry that only 'succeeds' by corrupting engine state must be
        quarantined, not cached."""
        marker = tmp_path / "crash-once"
        monkeypatch.setenv(
            TEST_FAULT_ENV, f"web-search:exit@{marker};web-search:corrupt"
        )
        store = ResultStore()
        batch = run_supervised(
            [SPEC],
            store=store,
            config=SupervisorConfig(max_attempts=2),
        )
        (entry,) = batch.quarantined
        assert entry.error_type == "InvariantViolation"
        assert SPEC.cache_key() not in store


class TestRunnerIntegration:
    SCALE = "0.02"

    def test_resume_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            runner_main(["fig3", "--resume"])

    def test_quarantine_exits_2_with_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "web-search:raise")
        code = runner_main(
            [
                "fig3",
                "--scale", self.SCALE,
                "--jobs", "2",
                "--retries", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "[FAILED fig3: QuarantinedTaskError" in out
        assert "[supervisor:" in out and "1 quarantined" in out
        assert (tmp_path / "cache" / "quarantine.json").exists()

    def test_supervised_run_is_identical_and_exits_0(self, tmp_path, capsys):
        args = ["fig3", "--scale", self.SCALE, "--jobs", "2"]
        assert runner_main(args) == 0
        plain = capsys.readouterr().out
        supervised_args = args + [
            "--retries", "1",
            "--audit",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert runner_main(supervised_args) == 0
        supervised = capsys.readouterr().out

        def body(text):
            return [ln for ln in text.splitlines() if not ln.startswith("[")]

        assert body(plain) == body(supervised)

    def test_ext_faults_runs_under_the_batch_flags(self, tmp_path, monkeypatch):
        # assert-audit fails any unaudited run, so exit 0 proves --audit
        # reached every one of ext-faults' runs.
        monkeypatch.setenv(TEST_FAULT_ENV, "redis:assert-audit")
        args = ["ext-faults", "--scale", "0.01", "--audit"]
        assert runner_main(args + ["--cache-dir", str(tmp_path / "cache")]) == 0

    @pytest.mark.parametrize("experiment", ["fig11", "ext-oracle"])
    def test_sweep_fetches_each_run_once(self, experiment, tmp_path, capsys):
        args = [experiment, "--scale", "0.01", "--jobs", "2"]
        assert runner_main(args + ["--cache-dir", str(tmp_path / "plain")]) == 0
        assert "[result store: 0 hits," in capsys.readouterr().out
        supervised = args + ["--retries", "1", "--cache-dir", str(tmp_path / "sup")]
        assert runner_main(supervised) == 0
        out = capsys.readouterr().out
        assert "[result store: 0 hits," in out
        assert "0 retried, 0 quarantined, 0 resumed]" in out
