"""WAL durability: torn tails, recovery, checkpoint reconciliation."""

import json

import pytest

from repro.errors import ServiceError
from repro.service.core import PlacementService, ServiceConfig
from repro.service.events import DecideEvent
from repro.service.traffic import TrafficConfig, drive
from repro.service.wal import (
    Checkpoint,
    DecisionLog,
    recover,
    scan_log,
    verify_log,
)


def _record(seq, tenant="t0", request_id=None):
    return {
        "seq": seq,
        "tenant": tenant,
        "request_id": request_id or f"req-{seq}",
        "epoch_index": seq - 1,
        "plan": {"demote": [seq]},
    }


class TestDecisionLog:
    def test_append_and_scan(self, tmp_path):
        with DecisionLog(tmp_path) as log:
            log.append(_record(1))
            log.append(_record(2))
        scan = scan_log(tmp_path / "decisions.jsonl")
        assert [r["seq"] for r in scan.records] == [1, 2]
        assert not scan.torn_tail

    def test_torn_tail_detected_and_intact_prefix_kept(self, tmp_path):
        with DecisionLog(tmp_path) as log:
            log.append(_record(1))
            log.append(_record(2))
        path = tmp_path / "decisions.jsonl"
        whole = path.read_bytes()
        # Crash mid-append: the final line is cut in half.
        path.write_bytes(whole[: len(whole) - 20])
        scan = scan_log(path)
        assert scan.torn_tail
        assert [r["seq"] for r in scan.records] == [1]
        assert whole[: scan.intact_bytes].endswith(b"\n")

    def test_missing_log(self, tmp_path):
        scan = scan_log(tmp_path / "absent.jsonl")
        assert scan.records == [] and not scan.torn_tail


class TestRecovery:
    def test_rebuilds_acks_and_cache(self, tmp_path):
        with DecisionLog(tmp_path) as log:
            log.append(_record(1, tenant="a"))
            log.append(_record(2, tenant="b"))
            log.append(_record(3, tenant="a"))
        state = recover(tmp_path)
        assert state.last_seq == 3
        assert {rid: d.seq for rid, d in state.acked.items()} == {
            "req-1": 1, "req-2": 2, "req-3": 3,
        }
        # Newest per tenant wins.
        assert {t: d.seq for t, d in state.last_good.items()} == {"a": 3, "b": 2}

    def test_duplicate_seq_is_corruption_not_crash(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        lines = [json.dumps(_record(1)), json.dumps(_record(1, request_id="other"))]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="strictly increasing"):
            recover(tmp_path)

    def test_duplicate_request_id_rejected(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        lines = [
            json.dumps(_record(1, request_id="same")),
            json.dumps(_record(2, request_id="same")),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="duplicate ack"):
            recover(tmp_path)

    def test_log_wins_over_stale_checkpoint(self, tmp_path):
        with DecisionLog(tmp_path) as log:
            for seq in range(1, 6):
                log.append(_record(seq))
        Checkpoint(seq=2, acked=2, ingest_lines=10).write(tmp_path)
        state = recover(tmp_path)
        assert state.last_seq == 5
        assert state.log_ahead_of_checkpoint

    def test_empty_dir(self, tmp_path):
        state = recover(tmp_path)
        assert state.last_seq == 0 and state.acked == {}

    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    def test_resume_rebuilds_the_live_ack_view(self, chaos, tmp_path):
        config = ServiceConfig(seed=5)
        live = PlacementService(config, wal_dir=str(tmp_path))
        drive(live, TrafficConfig(seed=5, tenants=3, decisions=80, chaos=chaos))
        live.close()
        revived = PlacementService(config, wal_dir=str(tmp_path), resume=True)
        assert revived.acked == live.acked
        # Each tenant's newest decision: what degraded serving answers with.
        assert revived.last_good == live.last_good
        assert len(live.last_good) == 3
        assert len(live.acked) > len(live.last_good)
        for request_id, decision in live.acked.items():
            event = DecideEvent(tenant=decision.tenant, request_id=request_id)
            replay = revived.decide(event, now=0.0)
            assert not replay.degraded
            assert (replay.seq, replay.plan) == (decision.seq, decision.plan)
        assert revived.counters["idempotent_acks"] == len(live.acked)


class TestVerify:
    def test_clean_log_ok(self, tmp_path):
        with DecisionLog(tmp_path) as log:
            log.append(_record(1))
        report = verify_log(tmp_path)
        assert report["ok"] and report["acked"] == 1

    def test_checkpoint_ahead_of_log_is_loss(self, tmp_path):
        with DecisionLog(tmp_path) as log:
            log.append(_record(1))
        Checkpoint(seq=9, acked=9).write(tmp_path)
        report = verify_log(tmp_path)
        assert not report["ok"]
        assert "lost" in report["errors"][0]

    def test_corrupt_log_reported(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        path.write_text(json.dumps(_record(2)) + "\n" + json.dumps(_record(1)) + "\n")
        report = verify_log(tmp_path)
        assert not report["ok"]
