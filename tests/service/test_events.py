"""Wire-schema validation tests."""

import json

import pytest

from repro.errors import EventValidationError
from repro.faults.models import CorruptEventFaultModel
from repro.rng import make_rng
from repro.service.events import (
    MAX_EVENT_COUNT,
    AccessEvent,
    DecideEvent,
    SnapshotEvent,
    parse_event,
)


def _line(**kwargs):
    return json.dumps(kwargs)


class TestParseAccess:
    def test_roundtrip(self):
        event = parse_event(_line(kind="access", tenant="t0", page=3, count=10))
        assert isinstance(event, AccessEvent)
        assert (event.tenant, event.page, event.count) == ("t0", 3, 10)
        assert event.subpage is None

    def test_subpage_bounds(self):
        parse_event(_line(kind="access", tenant="t", page=0, count=1, subpage=511))
        with pytest.raises(EventValidationError):
            parse_event(
                _line(kind="access", tenant="t", page=0, count=1, subpage=512)
            )

    def test_negative_count_rejected(self):
        with pytest.raises(EventValidationError):
            parse_event(_line(kind="access", tenant="t", page=0, count=-1))

    def test_huge_page_bound(self):
        with pytest.raises(EventValidationError):
            parse_event(_line(kind="access", tenant="t", page=1 << 30, count=1))

    def test_cap_bounds_a_single_tenant_footprint(self):
        from repro.service.events import MAX_HUGE_PAGES

        # The pending profile keeps one int64 total per huge page plus
        # the one 512-slot int64 row an event can create; even with every
        # page's row held, the cap keeps one tenant modest (64 MiB), not
        # merely sub-petabyte.
        assert MAX_HUGE_PAGES * 512 * 8 <= 64 * 1024 * 1024
        parse_event(
            _line(kind="access", tenant="t", page=MAX_HUGE_PAGES - 1, count=1)
        )
        with pytest.raises(EventValidationError):
            parse_event(
                _line(kind="access", tenant="t", page=MAX_HUGE_PAGES, count=1)
            )
        with pytest.raises(EventValidationError):
            parse_event(
                _line(
                    kind="snapshot",
                    tenant="t",
                    counts=[0] * (MAX_HUGE_PAGES + 1),
                )
            )


def _count_line(kind, count):
    """One access or snapshot event carrying ``count``."""
    if kind == "access":
        return _line(kind="access", tenant="t", page=0, count=count)
    return _line(kind="snapshot", tenant="t", counts=[1, count])


class TestCountBound:
    """A count the int64 pending profile cannot hold is rejected at parse."""

    @pytest.mark.parametrize(
        "count",
        [MAX_EVENT_COUNT + 1, 1 << 63, 10**30],
        ids=["bound+1", "2^63", "10^30"],
    )
    @pytest.mark.parametrize("kind", ["access", "snapshot"])
    def test_oversize_count_rejected(self, kind, count):
        with pytest.raises(EventValidationError, match="count"):
            parse_event(_count_line(kind, count))

    def test_the_bound_itself_is_accepted(self):
        access = parse_event(_count_line("access", MAX_EVENT_COUNT))
        snapshot = parse_event(_count_line("snapshot", MAX_EVENT_COUNT))
        assert access.count == MAX_EVENT_COUNT
        assert snapshot.counts == (1, MAX_EVENT_COUNT)


class TestParseSnapshot:
    def test_roundtrip(self):
        event = parse_event(_line(kind="snapshot", tenant="t0", counts=[1, 0, 5]))
        assert isinstance(event, SnapshotEvent)
        assert event.counts == (1, 0, 5)

    def test_empty_counts_rejected(self):
        with pytest.raises(EventValidationError):
            parse_event(_line(kind="snapshot", tenant="t0", counts=[]))

    def test_non_int_counts_rejected(self):
        with pytest.raises(EventValidationError):
            parse_event(_line(kind="snapshot", tenant="t0", counts=[1, "x"]))


class TestParseDecide:
    def test_roundtrip(self):
        event = parse_event(
            _line(kind="decide", tenant="t0", request_id="r1", priority=3)
        )
        assert isinstance(event, DecideEvent)
        assert event.request_id == "r1"
        assert event.priority == 3

    def test_missing_request_id(self):
        with pytest.raises(EventValidationError):
            parse_event(_line(kind="decide", tenant="t0"))

    def test_deadline_must_be_positive(self):
        with pytest.raises(EventValidationError):
            parse_event(
                _line(kind="decide", tenant="t0", request_id="r", deadline_seconds=0)
            )


class TestGarbageRejection:
    @pytest.mark.parametrize(
        "line",
        [
            "",
            "not json at all",
            "[1, 2, 3]",
            '"just a string"',
            '{"kind": "unknown", "tenant": "t"}',
            '{"tenant": "t"}',
            '{"kind": "access", "page": 0, "count": 1}',  # no tenant
            '{"kind": "access", "tenant": "", "page": 0, "count": 1}',
            '{"kind": "decide", "tenant": "t", "request_id": "r", "priority": 9}',
            # JSON booleans are not numbers, though Python's bool is an int.
            '{"kind": "access", "tenant": "t", "page": true, "count": 1}',
            '{"kind": "access", "tenant": "t", "page": 0, "count": true}',
            '{"kind": "access", "tenant": "t", "page": 0, "count": 1, "subpage": true}',
            '{"kind": "snapshot", "tenant": "t", "counts": [1, false]}',
            '{"kind": "decide", "tenant": "t", "request_id": "r", "priority": true}',
            '{"kind": "decide", "tenant": "t", "request_id": "r", "deadline_seconds": true}',
        ],
    )
    def test_rejected(self, line):
        with pytest.raises(EventValidationError):
            parse_event(line)

    def test_every_fault_model_corruption_is_rejected(self):
        """The corrupt-event fault shapes must never half-parse."""
        model = CorruptEventFaultModel(1.0)
        model.bind(make_rng(0))
        clean = _line(kind="access", tenant="t0", page=3, count=10)
        for _ in range(200):
            mangled = model.corrupt_payload(clean)
            with pytest.raises(EventValidationError):
                parse_event(mangled)
