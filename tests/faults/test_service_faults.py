"""Unit tests for the service-path fault models and injector."""

import json

import pytest

from repro.errors import FaultInjectionError
from repro.faults.models import (
    ClockStallFaultModel,
    CorruptEventFaultModel,
    SlowConsumerFaultModel,
)
from repro.faults.service import ServiceFaultInjector
from repro.rng import make_rng


class TestSlowConsumerFaultModel:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            SlowConsumerFaultModel(1.5, 0.1)
        with pytest.raises(FaultInjectionError):
            SlowConsumerFaultModel(0.5, -0.1)
        with pytest.raises(FaultInjectionError):
            SlowConsumerFaultModel(0.5, 0.1, duration_ticks=0)

    def test_stall_window_spans_duration(self):
        model = SlowConsumerFaultModel(1.0, 0.2, duration_ticks=3)
        model.bind(make_rng(0))
        # Rate 1.0 opens a window immediately; the first draw covers
        # ticks 0-2 without further draws.
        assert [model.stall_this_tick() for _ in range(3)] == [0.2] * 3

    def test_zero_rate_never_stalls(self):
        model = SlowConsumerFaultModel(0.0, 0.2)
        model.bind(make_rng(0))
        assert all(model.stall_this_tick() == 0.0 for _ in range(20))

    def test_deterministic_given_stream(self):
        def draws(seed):
            model = SlowConsumerFaultModel(0.3, 0.1, duration_ticks=2)
            model.bind(make_rng(seed))
            return [model.stall_this_tick() for _ in range(50)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)


class TestCorruptEventFaultModel:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            CorruptEventFaultModel(-0.1)
        with pytest.raises(FaultInjectionError):
            CorruptEventFaultModel(1.1)

    def test_zero_rate_never_corrupts(self):
        assert CorruptEventFaultModel(0.0).should_corrupt() is False

    def test_corruptions_break_json_parsing(self):
        model = CorruptEventFaultModel(1.0)
        model.bind(make_rng(0))
        payload = json.dumps({"tenant": "t0", "kind": "access", "page": 12})
        for _ in range(100):
            mangled = model.corrupt_payload(payload)
            assert mangled != payload
            try:
                parsed = json.loads(mangled)
            except (json.JSONDecodeError, ValueError):
                continue
            # If it still parses it must not be the original valid event.
            assert parsed != json.loads(payload)

    def test_empty_payload_still_mangled(self):
        model = CorruptEventFaultModel(1.0)
        model.bind(make_rng(0))
        assert model.corrupt_payload("") == "\x00"

    def test_deterministic_given_stream(self):
        def mangled(seed):
            model = CorruptEventFaultModel(1.0)
            model.bind(make_rng(seed))
            return [model.corrupt_payload('{"a": 1, "b": 2}') for _ in range(20)]

        assert mangled(3) == mangled(3)


class TestClockStallFaultModel:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            ClockStallFaultModel(1.5, 0.1)
        with pytest.raises(FaultInjectionError):
            ClockStallFaultModel(0.5, -1.0)

    def test_certain_stall(self):
        model = ClockStallFaultModel(1.0, 0.75)
        model.bind(make_rng(0))
        assert model.stall_this_tick() == pytest.approx(0.75)

    def test_zero_rate_never_stalls(self):
        model = ClockStallFaultModel(0.0, 0.75)
        model.bind(make_rng(0))
        assert model.stall_this_tick() == 0.0


class TestServiceFaultInjector:
    def test_inert_injector_has_no_models(self):
        injector = ServiceFaultInjector(make_rng(0))
        assert injector.slow_consumer is None
        assert injector.consumer_stall_seconds() == 0.0
        assert injector.clock_stall_seconds() == 0.0
        assert injector.maybe_corrupt("{}") == ("{}", False)

    def test_models_fire_through_the_facade(self):
        injector = ServiceFaultInjector(
            make_rng(0),
            slow_consumer=SlowConsumerFaultModel(1.0, 0.1),
            corrupt_event=CorruptEventFaultModel(1.0),
            clock_stall=ClockStallFaultModel(1.0, 0.5),
        )
        assert injector.consumer_stall_seconds() == pytest.approx(0.1)
        assert injector.clock_stall_seconds() == pytest.approx(0.5)
        payload, corrupted = injector.maybe_corrupt('{"x": 1}')
        assert corrupted
        assert payload != '{"x": 1}'

    def test_streams_are_decorrelated(self):
        # Enabling corruption must not shift the slow-consumer schedule.
        def stall_schedule(corrupt_event):
            injector = ServiceFaultInjector(
                make_rng(11),
                slow_consumer=SlowConsumerFaultModel(0.3, 0.1),
                corrupt_event=corrupt_event,
            )
            return [injector.consumer_stall_seconds() for _ in range(50)]

        assert stall_schedule(None) == stall_schedule(CorruptEventFaultModel(0.5))
