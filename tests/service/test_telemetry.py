"""Live telemetry wired through the service: spans, scrapes, dumps.

The contract mirrors the batch observability rule: a service without an
observer answers exactly as an observed one does, and with a live
:class:`~repro.obs.Observer` attached every decision — fresh, degraded,
idempotent, or shed — carries a schema-valid span tree on the service's
virtual clock.  An observer carrying a
:class:`~repro.obs.live.FlightRecorder` keeps the tail of that trace in
its ring.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs import NULL_OBSERVER, Observer
from repro.obs.live import FlightRecorder, deterministic_id
from repro.obs.metrics import parse_prometheus_text
from repro.obs.tracer import validate_event
from repro.service import core
from repro.service.core import PlacementService, ServiceConfig
from repro.service.traffic import TrafficConfig, drive


def live_observer(dump_dir=None, label="service", capacity=256):
    """The observer ``python -m repro.service --telemetry-dir`` builds."""
    return Observer(
        trace=True,
        metrics=True,
        process="repro-service",
        recorder=FlightRecorder(capacity=capacity, dump_dir=dump_dir, label=label),
    )


def make_service(observer=None, **kwargs):
    config = ServiceConfig(seed=7, **kwargs.pop("config", {}))
    return PlacementService(config=config, observer=observer, **kwargs)


def feed_profile(service, tenant="t0", pages=4, count=5000, now=0.0):
    for page in range(pages):
        line = json.dumps(
            {"kind": "access", "tenant": tenant, "page": page, "count": count}
        )
        assert service.ingest_line(line, now=now).status == "queued"


def decide(service, tenant="t0", request_id="r1", now=0.0, enqueue_at=None, **extra):
    line = json.dumps(
        {"kind": "decide", "tenant": tenant, "request_id": request_id, **extra}
    )
    at = enqueue_at if enqueue_at is not None else now
    assert service.ingest_line(line, now=at).status == "queued"
    responses = service.drain(now)
    assert len(responses) == 1
    return responses[0]


def spans_of(observer, trace_id=None):
    events = [e for e in observer.tracer.events if e.category == "span"]
    if trace_id is not None:
        events = [e for e in events if e.args["trace_id"] == trace_id]
    return events


class TestDecisionSpanTrees:
    def test_fresh_decision_spans_queue_decide_ack(self):
        observer = live_observer()
        service = make_service(observer=observer)
        feed_profile(service)
        decide(service, request_id="r1", enqueue_at=1.0, now=1.5)

        spans = spans_of(observer)
        by_name = {s.name: s for s in spans}
        assert set(by_name) == {
            "request", "queue", "decide", "attempt", "wal_ack",
        }
        root = by_name["request"]
        assert root.args["outcome"] == "acked"
        assert "parent_id" not in root.args
        assert root.time == 1.0  # starts at enqueue, on the virtual clock
        # Every child points at the root; the attempt nests under decide.
        assert by_name["queue"].args["parent_id"] == root.args["span_id"]
        assert by_name["queue"].duration == pytest.approx(0.5)
        decide_span = by_name["decide"]
        assert decide_span.args["parent_id"] == root.args["span_id"]
        assert by_name["attempt"].args["parent_id"] == decide_span.args["span_id"]
        assert by_name["attempt"].args["outcome"] == "ok"
        assert by_name["wal_ack"].args["seq"] == 1
        # One trace id ties the tree together, and every event revalidates.
        trace_ids = {s.args["trace_id"] for s in spans}
        assert len(trace_ids) == 1
        for span in spans:
            validate_event(
                {
                    "cat": "span",
                    "name": span.name,
                    "time": span.time,
                    "args": span.args,
                }
            )

    def test_idempotent_replay_gets_its_own_tree(self):
        observer = live_observer()
        service = make_service(observer=observer)
        feed_profile(service)
        decide(service, request_id="r1")
        decide(service, request_id="r1", now=2.0)  # replayed ack
        names = [s.name for s in spans_of(observer)]
        assert "idempotent_ack" in names
        assert service.traces_total == 2

    def test_degraded_decision_carries_reason(self):
        observer = live_observer()
        service = make_service(observer=observer)
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        decide(service, request_id="r1")
        by_name = {s.name: s for s in spans_of(observer)}
        assert by_name["request"].args["outcome"] == "degraded"
        assert by_name["degraded"].args["reason"] == "engine-error"
        assert by_name["degraded"].args["had_cache"] is False
        # Every failed attempt appears, a retry span covering its backoff.
        attempts = [s for s in spans_of(observer) if s.name == "attempt"]
        assert [a.args["attempt"] for a in attempts] == list(
            range(1, core.MAX_ATTEMPTS + 1)
        )
        assert attempts[0].args["outcome"] == "engine-error"
        assert attempts[0].duration > 0.0  # backoff is virtual time spent

    def test_shed_decision_gets_terminal_tree(self):
        observer = live_observer()
        service = make_service(observer=observer, config={"queue_capacity": 2})
        # Three low-priority decides into a 2-slot queue: one is shed.
        for i in range(3):
            line = json.dumps(
                {
                    "kind": "decide",
                    "tenant": "t0",
                    "request_id": f"r{i}",
                    "priority": 0,
                }
            )
            service.ingest_line(line, now=float(i))
        shed = [
            s for s in spans_of(observer)
            if s.name == "request" and s.args["outcome"] == "shed"
        ]
        assert len(shed) == 1

    def test_off_path_is_byte_identical(self):
        """Responses with an observer attached match a bare service's."""
        def run(observer):
            service = make_service(observer=observer)
            feed_profile(service)
            payloads = []
            for i in range(5):
                response = decide(
                    service, request_id=f"r{i}", now=float(i)
                )
                payloads.append(response.to_payload())
            return json.dumps(payloads, sort_keys=True)

        assert run(None) == run(live_observer())
        assert run(None) == run(NULL_OBSERVER)


class TestFlightDumps:
    def test_breaker_open_dumps_flight_recorder(self, tmp_path):
        service = make_service(observer=live_observer(dump_dir=tmp_path))
        feed_profile(service)
        decide(service, request_id="warm")
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        decide(service, request_id="f1", now=1.0)
        decide(service, request_id="f2", now=1.1)
        dumps = sorted(tmp_path.glob("flight_service_*_breaker-open.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert payload["reason"] == "breaker-open"
        names = [e["name"] for e in payload["entries"]]
        assert "breaker_transition" in names

    def test_request_quarantine_dumps(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "POISON_REQUEST_THRESHOLD", 1)
        service = make_service(observer=live_observer(dump_dir=tmp_path))
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        decide(service, request_id="poison")
        assert list(tmp_path.glob("flight_service_*_quarantine.json"))

    def test_control_event_triggers_dump_and_counter(self, tmp_path):
        service = make_service(observer=live_observer(dump_dir=tmp_path))
        line = json.dumps(
            {"kind": "control", "action": "flight-dump", "tag": "ci"}
        )
        assert service.ingest_line(line, now=1.0).status == "queued"
        assert service.drain(1.0) == []
        assert service.counters["control_total"] == 1
        assert list(tmp_path.glob("flight_service_*_control-ci.json"))

    def test_control_checkpoint_without_wal_is_noop(self):
        service = make_service(observer=live_observer())
        line = json.dumps({"kind": "control", "action": "checkpoint"})
        service.ingest_line(line)
        service.drain(0.0)
        assert service.counters["control_total"] == 1
        assert service.counters["checkpoints"] == 0  # no wal_dir


class TestMetricsSurface:
    def test_metrics_registry_matches_counters(self):
        service = make_service()
        feed_profile(service)
        decide(service, request_id="r1")
        registry = service.metrics_registry()
        snap = registry.snapshot()
        assert snap["counters"]["repro_service_decisions_total"] == 1.0
        assert snap["counters"]["repro_service_events_total"] == 5.0
        hist = snap["histograms"]["repro_service_decision_latency_seconds"]
        assert sum(hist["counts"]) == 1
        # Scrapes are idempotent: same counters on a second scrape.
        assert service.metrics_registry().snapshot() == snap

    def test_exposition_passes_the_strict_parser(self):
        observer = live_observer()
        service = make_service(observer=observer)
        feed_profile(service)
        decide(service, request_id="r1")
        text = service.metrics_registry().to_prometheus_text()
        parsed = parse_prometheus_text(text)
        assert parsed == service.metrics_registry().snapshot()
        assert "repro_service_decision_latency_seconds" in parsed["histograms"]

    def test_degraded_reasons_become_counters(self):
        service = make_service()
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        decide(service, request_id="r1")
        snap = service.metrics_registry().snapshot()
        assert snap["counters"]["repro_service_degraded_engine_error_total"] == 1.0

    def test_statusz_shape(self):
        observer = live_observer()
        service = make_service(observer=observer)
        feed_profile(service)
        decide(service, request_id="r1")
        status = service.statusz(now=1.0)
        assert set(status) == {
            "health", "queue_depths", "latency_seconds", "metrics", "telemetry",
        }
        assert status["latency_seconds"]["count"] == 1
        assert status["telemetry"]["active"] is True
        assert make_service().statusz()["telemetry"] == {"active": False}
        assert status["health"]["degraded_by_reason"] == {}
        json.dumps(status)  # the page must serialize (the /statusz route)

    def test_statusz_quantiles_cover_a_bounded_window(self, monkeypatch):
        monkeypatch.setattr(core, "STATUSZ_LATENCY_WINDOW", 4)
        service = make_service()
        latencies = []
        for i in range(10):
            feed_profile(service, now=float(i))
            latencies.append(
                decide(service, request_id=f"r{i}", now=float(i)).latency_seconds
            )
        summary = service.statusz(now=10.0)["latency_seconds"]
        assert summary["count"] == 10
        assert list(service.latencies) == latencies[-4:]
        assert summary["max"] == max(latencies[-4:])
        assert summary["p50"] == pytest.approx(float(np.median(latencies[-4:])))


class TestHttpRoutes:
    def _serve(self, raw: bytes, observer=None) -> bytes:
        from repro.service.server import serve_http

        async def run() -> bytes:
            service = make_service(observer=observer)
            feed_profile(service)
            decide(service, request_id="r1")
            server = await serve_http(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(raw)
                await writer.drain()
                data = await reader.read()
                writer.close()
                return data
            finally:
                server.close()
                await server.wait_closed()

        return asyncio.run(run())

    def test_metrics_route_serves_strict_prometheus(self):
        response = self._serve(b"GET /metrics HTTP/1.1\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 200 OK")
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"text/plain; version=0.0.4" in head
        parsed = parse_prometheus_text(body.decode())
        assert parsed["counters"]["repro_service_decisions_total"] == 1.0
        assert "repro_service_decision_latency_seconds" in parsed["histograms"]

    def test_statusz_route_serves_json(self):
        response = self._serve(
            b"GET /statusz HTTP/1.1\r\n\r\n",
            observer=live_observer(),
        )
        assert response.startswith(b"HTTP/1.1 200 OK")
        _, _, body = response.partition(b"\r\n\r\n")
        status = json.loads(body)
        assert status["telemetry"]["active"] is True
        assert status["health"]["counters"]["decisions_total"] == 1

    def test_healthz_still_served(self):
        response = self._serve(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert b'"counters"' in response


class TestObserverSink:
    def test_trace_ids_deterministic_across_instances(self):
        def request_trace_ids(observer):
            service = make_service(observer=observer)
            feed_profile(service)
            decide(service, request_id="r1")
            decide(service, request_id="r1", now=1.0)  # idempotent replay
            return [
                s.args["trace_id"] for s in spans_of(observer) if s.name == "request"
            ]

        first = request_trace_ids(live_observer())
        assert first == request_trace_ids(live_observer())
        assert first[0] == deterministic_id("service", "t0", 0, "r1")
        # The per-service sequence separates repeats of one request_id.
        assert first[0] != first[1]
        # The recorder's label seeds the ids (one id space per posture).
        assert request_trace_ids(live_observer(label="chaos")) != first

    def test_span_trees_feed_tracer_and_recorder(self):
        observer = live_observer()
        service = make_service(observer=observer)
        feed_profile(service)
        decide(service, request_id="r1")
        spans = [e.to_dict() for e in spans_of(observer)]
        assert len(spans) == 5
        assert [e for e in observer.recorder.entries if e["cat"] == "span"] == spans
        counters = observer.metrics.counters
        assert counters["repro_service_spans_total"].value == len(spans)

    def test_statusz_telemetry_shape(self):
        service = make_service(observer=live_observer(label="unit"))
        feed_profile(service)
        decide(service, request_id="r1")
        status = service.statusz()["telemetry"]
        assert status["active"] is True
        assert status["label"] == "unit"
        assert status["traces_total"] == 1
        assert status["trace_events"] == len(service.observer.tracer)
        assert status["flight_recorder"]["records_total"] == status["trace_events"]

    def test_chaos_drive_ring_is_the_trace_tail(self):
        capacity = 64
        observer = live_observer(capacity=capacity)
        service = PlacementService(config=ServiceConfig(seed=3), observer=observer)
        report = drive(
            service,
            TrafficConfig(seed=3, tenants=3, decisions=60, chaos=True),
        )
        trace = [event.to_dict() for event in observer.tracer.events]
        assert report.degraded and any(e["cat"] == "fault" for e in trace)
        assert len(trace) > capacity
        assert list(observer.recorder.entries) == trace[-capacity:]
        assert observer.recorder.records_total == len(trace)
