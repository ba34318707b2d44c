"""Tests for the live telemetry pieces (repro.obs.live).

RequestTrace span trees, the bounded FlightRecorder (ring, dumps,
spills, caps), dump validation, and the recorder riding on an
Observer — all deterministic: ids derive from values, never clocks or
RNG.
"""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import NULL_OBSERVER, NullObserver, Observer
from repro.obs.live import (
    FLIGHT_VERSION,
    FlightRecorder,
    RequestTrace,
    deterministic_id,
    validate_flight_dump,
)
from repro.obs.tracer import validate_event


def tick(recorder, time):
    recorder.record_event({"cat": "service", "name": "tick", "time": time})


class TestDeterministicId:
    def test_stable_and_distinct(self):
        assert deterministic_id("a", 1) == deterministic_id("a", 1)
        assert deterministic_id("a", 1) != deterministic_id("a", 2)
        assert deterministic_id("a", 1) != deterministic_id("a1")

    def test_shape(self):
        ident = deterministic_id("tenant-0", 7, "req-000001")
        assert len(ident) == 16
        assert all(c in "0123456789abcdef" for c in ident)


class TestRequestTrace:
    def test_spans_are_schema_valid_events(self):
        trace = RequestTrace(trace_id="abc123", tenant="t0")
        root = trace.span("request", start=1.0, duration=0.5, outcome="acked")
        trace.span("decide", start=1.2, duration=0.3, parent=root)
        events = trace.events
        assert len(events) == 2
        for event in events:
            validate_event(event)
            assert event["cat"] == "span"
            assert event["args"]["trace_id"] == "abc123"
            assert event["args"]["tenant"] == "t0"
        assert "parent_id" not in events[0]["args"]
        assert events[1]["args"]["parent_id"] == root

    def test_span_ids_deterministic_by_position(self):
        a = RequestTrace(trace_id="x", tenant="t")
        b = RequestTrace(trace_id="x", tenant="t")
        assert a.span("request", 0.0) == b.span("request", 0.0)
        assert a.span("decide", 0.0) != a.events[0]["args"]["span_id"]

    def test_negative_times_clamp_to_zero(self):
        trace = RequestTrace(trace_id="x", tenant="t")
        trace.span("request", start=-1.0, duration=-2.0)
        # duration of 0 is omitted entirely (falsy), start clamps.
        assert trace.events[0]["time"] == 0.0
        assert "dur" not in trace.events[0]


class TestFlightRecorder:
    def test_ring_bounds_memory_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            tick(recorder, float(i))
        assert len(recorder.entries) == 3
        assert recorder.records_total == 5
        assert recorder.dropped == 2
        assert [e["time"] for e in recorder.entries] == [2.0, 3.0, 4.0]

    def test_record_event_validates(self):
        recorder = FlightRecorder()
        with pytest.raises(ObservabilityError):
            recorder.record_event({"cat": "not-a-category", "name": "x", "time": 0.0})

    def test_dump_writes_numbered_valid_files(self, tmp_path):
        recorder = FlightRecorder(dump_dir=tmp_path, label="unit")
        tick(recorder, 1.0)
        first = recorder.dump("breaker OPEN!", now=2.0)
        second = recorder.dump("breaker OPEN!", now=3.0)
        assert first.name == "flight_unit_0000_breaker-open.json"
        assert second.name == "flight_unit_0001_breaker-open.json"
        payload = json.loads(first.read_text())
        validate_flight_dump(payload)
        assert payload["version"] == FLIGHT_VERSION
        assert payload["label"] == "unit"
        assert payload["reason"] == "breaker OPEN!"
        assert payload["time"] == 2.0
        assert len(payload["entries"]) == 1
        assert recorder.last_dump_path == str(second)

    def test_dump_without_dir_returns_none(self):
        recorder = FlightRecorder()
        tick(recorder, 0.0)
        assert recorder.dump("reason") is None

    def test_dump_cap(self, tmp_path):
        recorder = FlightRecorder(dump_dir=tmp_path, label="cap")
        tick(recorder, 0.0)
        for _ in range(FlightRecorder.MAX_DUMPS):
            assert recorder.dump("r") is not None
        assert recorder.dump("r") is None
        assert recorder.dumps_total == FlightRecorder.MAX_DUMPS
        # The spill file keeps working past the cap.
        assert recorder.spill() is not None

    def test_periodic_spill_rotates_one_file(self, tmp_path):
        recorder = FlightRecorder(dump_dir=tmp_path, label="sp", spill_every=4)
        for i in range(9):
            tick(recorder, float(i))
        spill = tmp_path / "flight_sp_spill.json"
        assert spill.exists()
        assert recorder.spills_total == 2
        payload = json.loads(spill.read_text())
        validate_flight_dump(payload)
        assert payload["reason"] == "spill"
        # The spill's timestamp tracks the newest record it holds.
        assert payload["time"] == 7.0

    def test_status_keys(self):
        recorder = FlightRecorder(capacity=2)
        tick(recorder, 0.0)
        status = recorder.status()
        assert status["capacity"] == 2
        assert status["entries"] == 1
        assert status["records_total"] == 1
        assert status["dumps_total"] == 0

    def test_bad_construction_raises(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder(capacity=0)
        with pytest.raises(ObservabilityError):
            FlightRecorder(label="Not A Slug")


class TestValidateFlightDump:
    def _good(self):
        return {
            "version": FLIGHT_VERSION,
            "label": "service",
            "reason": "test",
            "time": 0.0,
            "entries": [{"cat": "service", "name": "tick", "time": 0.0}],
        }

    def test_good_payload_passes(self):
        validate_flight_dump(self._good())

    def test_missing_key_raises(self):
        payload = self._good()
        del payload["reason"]
        with pytest.raises(ObservabilityError, match="missing 'reason'"):
            validate_flight_dump(payload)

    def test_wrong_version_raises(self):
        payload = self._good()
        payload["version"] = FLIGHT_VERSION + 1
        with pytest.raises(ObservabilityError, match="version"):
            validate_flight_dump(payload)

    def test_non_list_entries_raises(self):
        payload = self._good()
        payload["entries"] = {}
        with pytest.raises(ObservabilityError, match="list"):
            validate_flight_dump(payload)

    def test_invalid_entry_raises_with_index(self):
        payload = self._good()
        payload["entries"].append({"cat": "nope", "name": "x", "time": 0.0})
        with pytest.raises(ObservabilityError, match="entry 1"):
            validate_flight_dump(payload)


class TestNullObserverSink:
    def test_inactive_and_inert(self):
        null = NullObserver()
        assert null.active is False
        assert null.recorder is None and null.metrics is None
        null.emit("service", "tick", 0.0)
        assert null.dump("reason") is None

    def test_shared_instance(self):
        assert NULL_OBSERVER.active is False
        assert isinstance(NULL_OBSERVER, NullObserver)
        assert NULL_OBSERVER.recorder is None


class TestObserverRecorder:
    def test_emit_lands_in_tracer_and_ring_exactly_once(self):
        recorder = FlightRecorder()
        observer = Observer(trace=True, recorder=recorder)
        observer.emit("service", "shed", 2.0, priority=1, kind="access")
        assert len(observer.tracer) == 1
        assert recorder.records_total == 1
        (entry,) = recorder.entries
        assert entry == observer.tracer.events[0].to_dict()

    def test_emit_mirrors_to_both(self):
        recorder = FlightRecorder()
        observer = Observer(trace=True, recorder=recorder)
        observer.emit("fault", "clock_stall", 1.0, duration=0.5, model="cs")
        assert len(observer.tracer) == 1
        (entry,) = recorder.entries
        assert entry == {
            "cat": "fault",
            "name": "clock_stall",
            "time": 1.0,
            "dur": 0.5,
            "args": {"model": "cs"},
        }

    def test_ring_without_tracer(self):
        recorder = FlightRecorder()
        observer = Observer(metrics=True, recorder=recorder)
        observer.emit("control", "flight-dump", 3.0, tag="ci")
        assert observer.tracer is None
        assert recorder.entries[0]["args"] == {"tag": "ci"}

    def test_dump_goes_through_the_recorder(self, tmp_path):
        observer = Observer(
            trace=True, recorder=FlightRecorder(dump_dir=tmp_path, label="unit")
        )
        observer.emit("service", "tick", 1.0)
        path = observer.dump("breaker-open", now=1.0)
        assert path.name == "flight_unit_0000_breaker-open.json"
        assert Observer(trace=True).dump("breaker-open") is None
