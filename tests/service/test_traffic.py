"""Synthetic traffic driver and chaos soak (short variants for CI tier 1)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.core import PlacementService, ServiceConfig
from repro.service.traffic import TrafficConfig, drive, generate_lines
from repro.service.wal import scan_log, verify_log


class TestGenerator:
    def test_deterministic(self):
        config = TrafficConfig(seed=3, decisions=20)
        first = list(generate_lines(config))
        second = list(generate_lines(config))
        assert first == second
        assert sum(1 for _, is_decide in first if is_decide) == 20

    def test_lines_parse(self):
        from repro.service.events import parse_event

        for line, _ in generate_lines(TrafficConfig(seed=1, decisions=5)):
            parse_event(line)


class TestDrive:
    def test_clean_run_all_fresh(self):
        service = PlacementService(config=ServiceConfig(seed=5))
        report = drive(service, TrafficConfig(seed=5, decisions=30))
        assert report.decisions == 30
        assert report.degraded == 0
        assert report.shed == 0
        assert report.p99_latency < 1.0

    def test_report_is_deterministic(self):
        def run():
            service = PlacementService(config=ServiceConfig(seed=5))
            return drive(service, TrafficConfig(seed=5, decisions=25)).summary()

        assert run() == run()


class TestChaosSoak:
    def test_soak_responses_valid_fresh_or_degraded(self, tmp_path):
        """Every response under chaos is fresh or explicitly degraded."""
        service = PlacementService(
            config=ServiceConfig(seed=11), wal_dir=str(tmp_path / "wal")
        )
        responses = []
        config = TrafficConfig(seed=11, decisions=120, chaos=True)
        report = drive(service, config, emit=responses.append)
        service.close()
        assert report.decisions == len(responses)
        assert report.decisions > 0
        for response in responses:
            payload = response.to_payload()
            if payload["degraded"]:
                assert payload["reason"] != ""
                assert payload["seq"] is None
            else:
                assert payload["seq"] is not None
                assert set(payload["plan"]) == {
                    "demote", "deferred", "promote", "cold", "hot", "sampled",
                }
        # Chaos at these rates must actually produce degraded serves.
        assert report.degraded > 0
        assert report.degraded == service.counters["decisions_degraded"]
        # Latency stays bounded: one stall + deadline budget, not unbounded.
        assert report.p99_latency < 0.5
        # The WAL only holds acked (fresh) decisions.
        report_verify = verify_log(tmp_path / "wal")
        assert report_verify["ok"]
        assert report_verify["acked"] == report.decisions - report.degraded

    def test_soak_is_deterministic(self, tmp_path):
        def run(tag):
            service = PlacementService(
                config=ServiceConfig(seed=11),
                wal_dir=str(tmp_path / f"wal-{tag}"),
            )
            report = drive(
                service, TrafficConfig(seed=11, decisions=60, chaos=True)
            )
            service.close()
            return report.summary()

        assert run("a") == run("b")


@pytest.mark.slow
class TestCrashSurvival:
    def test_kill9_mid_stream_loses_no_acked_decisions(self, tmp_path):
        """kill -9 the service mid-soak, restart --resume, byte-diff the log."""
        wal = tmp_path / "wal"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        cmd = [
            sys.executable, "-m", "repro.service", "synth",
            "--decisions", "50000", "--seed", "11",
            "--wal-dir", str(wal), "--chaos",
        ]
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        log_path = wal / "decisions.jsonl"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if log_path.exists() and log_path.stat().st_size > 20_000:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("service produced no acked decisions before timeout")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        before = log_path.read_bytes()
        scan = scan_log(log_path)
        acked_before = len(scan.records)
        assert acked_before > 0

        # Restart with --resume and finish a short run on the same WAL.
        report = subprocess.run(
            [
                sys.executable, "-m", "repro.service", "synth",
                "--decisions", "50", "--seed", "12",
                "--wal-dir", str(wal), "--resume",
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert report.returncode == 0, report.stderr
        after = log_path.read_bytes()
        intact = before[: scan.intact_bytes]
        # Zero acked decisions lost: the intact pre-crash prefix is preserved
        # byte-for-byte, and new decisions only append after it.
        assert after[: len(intact)] == intact
        check = subprocess.run(
            [
                sys.executable, "-m", "repro.service", "verify",
                "--wal-dir", str(wal),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert check.returncode == 0, check.stdout + check.stderr
        final = json.loads(check.stdout)
        assert final["ok"]
        assert final["acked"] >= acked_before + 1
