"""Placement service core: decisions, degradation, durability, poison,
and the sparse pending profile held to the dense one it replaced."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError, SimulationError, WorkloadError
from repro.obs import Observer
from repro.service import core
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.core import PlacementService, ServiceConfig
from repro.service.events import AccessEvent, DecideEvent, SnapshotEvent
from repro.service.traffic import TrafficConfig, drive
from repro.service.wal import LOG_NAME
from repro.sim.engine import EpochSimulation
from repro.sim.profile import EpochProfile
from repro.units import SUBPAGES_PER_HUGE_PAGE


def make_service(**kwargs):
    return PlacementService(config=ServiceConfig(seed=7), **kwargs)


def feed_profile(service, tenant="t0", pages=4, count=5000):
    for page in range(pages):
        line = json.dumps(
            {"kind": "access", "tenant": tenant, "page": page, "count": count}
        )
        assert service.ingest_line(line).status == "queued"


def decide(service, tenant="t0", request_id="r1", now=0.0, stall=0.0, **extra):
    line = json.dumps(
        {"kind": "decide", "tenant": tenant, "request_id": request_id, **extra}
    )
    assert service.ingest_line(line).status == "queued"
    responses = service.drain(now, stall_seconds=stall)
    assert len(responses) == 1
    return responses[0]


class TestFreshDecisions:
    def test_access_events_produce_a_plan(self):
        service = make_service()
        feed_profile(service)
        response = decide(service)
        assert not response.degraded
        assert response.seq == 1
        assert response.reason == ""
        assert set(response.plan) == {
            "demote", "deferred", "promote", "cold", "hot", "sampled",
        }
        assert response.epoch_index == 0

    def test_snapshot_replaces_accumulated_counts(self):
        service = make_service()
        feed_profile(service, count=999_999)
        line = json.dumps(
            {"kind": "snapshot", "tenant": "t0", "counts": [0, 0, 0, 0]}
        )
        service.ingest_line(line)
        response = decide(service)
        assert not response.degraded
        # The snapshot zeroed the profile: nothing is hot.
        assert response.plan["hot"] == []

    def test_pending_profile_clears_after_decision(self):
        service = make_service()
        feed_profile(service)
        decide(service, request_id="r1")
        state = service.tenants["t0"]
        assert state.rows == {}
        assert state.totals.size == 4
        assert not state.totals.any()

    def test_tenant_footprint_grows_online(self):
        service = make_service()
        feed_profile(service, pages=2)
        decide(service, request_id="r1")
        feed_profile(service, pages=8)  # pages 0-7: footprint grows
        response = decide(service, request_id="r2")
        assert not response.degraded
        assert service.tenants["t0"].num_huge_pages == 8

    def test_decisions_are_deterministic(self):
        def run():
            service = make_service()
            feed_profile(service)
            return decide(service).to_payload()

        assert run() == run()


class TestTenantGrowth:
    def test_tenant_growing_after_first_decide_stays_fresh(self):
        service = make_service()
        feed_profile(service, pages=1)
        assert not decide(service, request_id="r1").degraded
        # The engine now exists, sized at the first decide; the tenant
        # then grows to the top of a 4 GB footprint.
        line = json.dumps(
            {"kind": "access", "tenant": "t0", "page": 2047, "count": 5000}
        )
        assert service.ingest_line(line).status == "queued"
        response = decide(service, request_id="r2", now=1.0)
        assert not response.degraded, response.reason
        assert response.seq == 2
        assert service.counters["engine_failures"] == 0
        assert service.tenants["t0"].engine.state.num_huge_pages == 2048


class TestDegradedServing:
    def test_engine_error_serves_last_known_good_flagged(self):
        service = make_service()
        feed_profile(service)
        fresh = decide(service, request_id="r1")
        calls = []

        def hook(tenant, epoch):
            calls.append(tenant)
            raise SimulationError("injected engine fault")

        service.engine_fault_hook = hook
        feed_profile(service)
        degraded = decide(service, request_id="r2", now=1.0)
        assert degraded.degraded
        assert degraded.seq is None  # degraded responses are never acked
        assert degraded.reason == "engine-error"
        assert degraded.plan == fresh.plan  # last-known-good, not silence
        assert degraded.epoch_index == fresh.epoch_index
        assert len(calls) == core.MAX_ATTEMPTS

    def test_degraded_without_cache_is_explicit(self):
        service = make_service()
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        response = decide(service, request_id="r1")
        assert response.degraded
        assert response.plan == {}
        assert service.counters["degraded_no_cache"] == 1

    def test_breaker_trips_and_serves_from_cache(self):
        service = make_service()
        feed_profile(service)
        decide(service, request_id="warm")
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        # Five consecutive failures trip it; each decide fails three times.
        decide(service, request_id="f1", now=1.0)
        decide(service, request_id="f2", now=1.1)
        assert service.breaker.state == OPEN
        response = decide(service, request_id="f3", now=1.2)
        assert response.degraded and response.reason == "breaker-open"
        # While open the engine is never touched.
        failures_before = service.counters["engine_failures"]
        decide(service, request_id="f4", now=1.3)
        assert service.counters["engine_failures"] == failures_before

    def test_breaker_recovers_through_half_open_probes(self):
        service = make_service()
        feed_profile(service)
        decide(service, request_id="warm")
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        decide(service, request_id="f1", now=1.0)
        decide(service, request_id="f2", now=1.1)
        assert service.breaker.state == OPEN
        service.engine_fault_hook = None  # engine healed
        feed_profile(service)
        response = decide(service, request_id="probe1", now=5.0)
        assert not response.degraded  # the probe went through
        assert service.breaker.state == HALF_OPEN
        feed_profile(service)
        response = decide(service, request_id="probe2", now=5.1)
        assert not response.degraded  # a second success closes it
        assert service.breaker.state == CLOSED

    def test_stall_blows_deadline(self):
        service = make_service()
        feed_profile(service)
        decide(service, request_id="warm")
        feed_profile(service)
        response = decide(service, request_id="r2", now=1.0, stall=10.0)
        assert response.degraded and response.reason == "deadline"
        assert response.latency_seconds == pytest.approx(10.0)

    def test_per_request_deadline_override(self):
        service = make_service()
        feed_profile(service)
        response = decide(
            service, request_id="r1", stall=0.2, deadline_seconds=0.5
        )
        assert not response.degraded  # generous budget absorbs the stall


class TestPoisonHandling:
    def test_repeated_engine_failures_quarantine_the_request(self, monkeypatch):
        # High breaker threshold so the poison path (attempts exhausted,
        # not breaker-open) is what answers each retry of the request.
        monkeypatch.setattr(core, "BREAKER_FAILURE_THRESHOLD", 100)
        service = make_service()
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("poison")
        )
        for retry in range(core.POISON_REQUEST_THRESHOLD):
            assert "bad" not in service.quarantined_requests
            decide(service, request_id="bad", now=10.0 * retry)
        assert "bad" in service.quarantined_requests
        # Quarantined: answered degraded without touching the engine.
        failures_before = service.counters["engine_failures"]
        response = decide(service, request_id="bad", now=20.0)
        assert response.degraded and response.reason == "quarantined"
        assert service.counters["engine_failures"] == failures_before

    def test_corrupt_source_is_quarantined(self):
        service = make_service()
        for index in range(core.POISON_SOURCE_THRESHOLD):
            result = service.ingest_line("garbage", source="peer-1")
        assert result.status == "quarantined-source"
        assert "peer-1" in service.quarantined_sources
        # Other sources are unaffected.
        ok = service.ingest_line(
            json.dumps({"kind": "access", "tenant": "t", "page": 0, "count": 1}),
            source="peer-2",
        )
        assert ok.status == "queued"

    def test_valid_event_resets_corrupt_streak(self):
        service = make_service()
        for _ in range(core.POISON_SOURCE_THRESHOLD - 1):
            service.ingest_line("garbage", source="s")
        service.ingest_line(
            json.dumps({"kind": "access", "tenant": "t", "page": 0, "count": 1}),
            source="s",
        )
        for _ in range(core.POISON_SOURCE_THRESHOLD - 1):
            service.ingest_line("garbage", source="s")
        assert "s" not in service.quarantined_sources

    def test_oversize_count_is_poison_and_the_next_decide_is_fresh(self):
        service = make_service()
        oversize = json.dumps(
            {"kind": "access", "tenant": "t0", "page": 0, "count": 10**30}
        )
        assert service.ingest_line(oversize, source="s").status == "rejected"
        assert service.counters["corrupt_total"] == 1
        feed_profile(service)
        response = decide(service)
        assert not response.degraded and response.seq == 1
        # The rejection fed the source's poison streak like any corrupt line.
        for _ in range(core.POISON_SOURCE_THRESHOLD - 1):
            service.ingest_line(oversize, source="s")
        assert "s" in service.quarantined_sources


class TestDurability:
    def test_acks_survive_restart(self, tmp_path):
        wal = str(tmp_path / "wal")
        service = make_service(wal_dir=wal)
        feed_profile(service)
        first = decide(service, request_id="r1")
        # No close(): simulate a hard crash.
        revived = make_service(wal_dir=wal, resume=True)
        assert revived.seq == 1
        assert {rid: d.seq for rid, d in revived.acked.items()} == {"r1": 1}
        replay = decide(revived, request_id="r1", now=99.0)
        assert not replay.degraded
        assert replay.seq == first.seq  # idempotent, no duplicate ack
        assert revived.counters["idempotent_acks"] == 1

    def test_replay_returns_the_recorded_plan_not_the_latest(self, tmp_path):
        wal = str(tmp_path / "wal")
        service = make_service(wal_dir=wal)
        feed_profile(service)
        first = decide(service, request_id="r1")
        # A newer decision for the same tenant over a very different
        # profile must not leak into r1's replay.
        line = json.dumps(
            {"kind": "snapshot", "tenant": "t0", "counts": [0, 0, 0, 0]}
        )
        service.ingest_line(line)
        second = decide(service, request_id="r2", now=1.0)
        assert second.plan != first.plan
        replay = decide(service, request_id="r1", now=2.0)
        assert replay.seq == first.seq
        assert replay.plan == first.plan  # recorded ack back verbatim
        assert replay.epoch_index == first.epoch_index
        # The per-request record survives a hard crash + resume, too.
        revived = make_service(wal_dir=wal, resume=True)
        replayed = decide(revived, request_id="r1", now=3.0)
        assert replayed.seq == first.seq
        assert replayed.plan == first.plan
        assert replayed.epoch_index == first.epoch_index

    def test_fresh_start_truncates_a_torn_only_log(self, tmp_path):
        wal = tmp_path / "wal"
        wal.mkdir()
        log_path = wal / "decisions.jsonl"
        # Crash during the first-ever append: the log holds nothing but
        # a torn line.  A fresh (resume=False) start must drop it before
        # appending, or the first new record lands on the partial bytes
        # and a later recovery truncates every ack after this start.
        log_path.write_bytes(b'{"seq": 1, "ten')
        service = make_service(wal_dir=str(wal))
        feed_profile(service)
        first = decide(service, request_id="r1")
        assert first.seq == 1
        # No close(): hard crash; recovery must see the acked decision.
        revived = make_service(wal_dir=str(wal), resume=True)
        assert {rid: d.seq for rid, d in revived.acked.items()} == {"r1": 1}
        assert revived.seq == 1

    def test_fresh_service_refuses_dirty_wal_dir(self, tmp_path):
        wal = str(tmp_path / "wal")
        service = make_service(wal_dir=wal)
        feed_profile(service)
        decide(service)
        with pytest.raises(ServiceError, match="resume"):
            make_service(wal_dir=wal)

    def test_torn_tail_is_truncated_on_resume(self, tmp_path):
        wal = str(tmp_path / "wal")
        service = make_service(wal_dir=wal)
        feed_profile(service)
        decide(service, request_id="r1")
        feed_profile(service)
        decide(service, request_id="r2", now=1.0)
        log_path = tmp_path / "wal" / "decisions.jsonl"
        intact_then_torn = log_path.read_bytes()[:-15]
        log_path.write_bytes(intact_then_torn)
        revived = make_service(wal_dir=wal, resume=True)
        assert revived.seq == 1  # r2's torn record was never acked
        data = log_path.read_bytes()
        assert data.endswith(b"\n")  # torn bytes gone
        feed_profile(revived)
        again = decide(revived, request_id="r2", now=2.0)
        assert again.seq == 2  # reuses the freed sequence number cleanly

    def test_checkpoint_interval(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "CHECKPOINT_EVERY", 2)
        wal = str(tmp_path / "wal")
        service = make_service(wal_dir=wal)
        for index in range(4):
            feed_profile(service)
            decide(service, request_id=f"r{index}", now=float(index))
        assert service.counters["checkpoints"] == 2
        # The checkpoint counts the ack that triggered it.
        checkpoint = json.loads((tmp_path / "wal" / "checkpoint.json").read_text())
        assert (checkpoint["seq"], checkpoint["acked"]) == (4, 4)


class TestHealthAndMetrics:
    def test_health_payload(self):
        service = make_service()
        feed_profile(service)
        decide(service)
        health = service.health()
        assert health["wal"]["seq"] == 1
        assert health["breaker"]["state"] == CLOSED
        assert health["counters"]["decisions_fresh"] == 1
        assert service.ready()

    def test_not_ready_when_breaker_open(self):
        service = make_service()
        service.engine_fault_hook = lambda t, e: (_ for _ in ()).throw(
            SimulationError("down")
        )
        decide(service, request_id="f1", now=0.0)
        decide(service, request_id="f2", now=0.1)
        assert service.breaker.state == OPEN
        assert not service.ready()

    def test_observer_counts_sheds_and_degraded(self):
        observer = Observer(trace=True, metrics=True)
        service = PlacementService(
            config=ServiceConfig(queue_capacity=2), observer=observer
        )
        for index in range(6):
            line = json.dumps(
                {"kind": "access", "tenant": "t", "page": 0, "count": 1}
            )
            service.ingest_line(line)
        counters = service.metrics_registry().snapshot()["counters"]
        assert counters["repro_service_shed_total"] == 4.0
        assert counters["repro_service_events_total"] == 6.0
        shed_events = [
            e for e in observer.tracer.events if e.name == "shed"
        ]
        assert len(shed_events) == 4

    def test_observed_run_matches_unobserved(self):
        def run(observer):
            service = PlacementService(
                config=ServiceConfig(seed=7), observer=observer
            )
            feed_profile(service)
            return decide(service).to_payload()

        assert run(None) == run(Observer(trace=True, metrics=True))


class DenseTenantState(core.TenantState):
    """A tenant whose pending profile is the dense per-4KB array the
    sparse store replaced.

    Its rules are the old service code's, verbatim: the tests below hold
    the store to it, and it stands in for the store in a whole service.
    """

    def __init__(self, name):
        super().__init__(name)
        self.pending = np.zeros(SUBPAGES_PER_HUGE_PAGE, dtype=np.int64)

    @property
    def num_huge_pages(self):
        return self.pending.size // SUBPAGES_PER_HUGE_PAGE

    def ensure_capacity(self, huge_pages):
        if huge_pages <= self.num_huge_pages:
            return
        grown = np.zeros(huge_pages * SUBPAGES_PER_HUGE_PAGE, dtype=np.int64)
        grown[: self.pending.size] = self.pending
        self.pending = grown

    def add_access(self, event):
        self.ensure_capacity(event.page + 1)
        base = event.page * SUBPAGES_PER_HUGE_PAGE
        if event.subpage is not None:
            self.pending[base + event.subpage] += event.count
        else:
            whole, remainder = divmod(event.count, SUBPAGES_PER_HUGE_PAGE)
            if whole:
                self.pending[base : base + SUBPAGES_PER_HUGE_PAGE] += whole
            if remainder:
                self.pending[base : base + remainder] += 1

    def replace(self, event):
        self.ensure_capacity(len(event.counts))
        counts = np.asarray(event.counts, dtype=np.int64)
        whole = counts // SUBPAGES_PER_HUGE_PAGE
        remainder = counts % SUBPAGES_PER_HUGE_PAGE
        fresh = np.repeat(whole, SUBPAGES_PER_HUGE_PAGE)
        offsets = np.arange(counts.size * SUBPAGES_PER_HUGE_PAGE) % (
            SUBPAGES_PER_HUGE_PAGE
        )
        fresh += (offsets < np.repeat(remainder, SUBPAGES_PER_HUGE_PAGE)).astype(
            np.int64
        )
        pending = np.zeros_like(self.pending)
        pending[: fresh.size] = fresh
        self.pending = pending

    def take_profile(self, start_time, resolve=None):
        profile = EpochProfile(
            start_time=start_time,
            duration=core.EPOCH_SECONDS,
            counts=self.pending,
            write_fraction=0.1,
        )
        self.pending = np.zeros_like(self.pending)
        return profile


TENANTS = ("a", "b")
# Mostly a few pages, so the sampled ones see accesses; sometimes pages
# past the footprint, so it grows.
PAGES = st.integers(0, 7) | st.integers(8, 24)
# Counts off and on multiples of 512.
COUNTS = st.integers(0, 2000) | st.sampled_from([1, 511, 512, 513, 1024, 1537])
EVENTS = st.lists(
    st.one_of(
        st.builds(
            AccessEvent,
            tenant=st.sampled_from(TENANTS),
            page=PAGES,
            count=COUNTS,
            subpage=st.none() | st.integers(0, SUBPAGES_PER_HUGE_PAGE - 1),
        ),
        st.builds(
            SnapshotEvent,
            tenant=st.sampled_from(TENANTS),
            counts=st.lists(COUNTS, min_size=1, max_size=24).map(tuple),
        ),
        st.builds(
            DecideEvent, tenant=st.sampled_from(TENANTS), request_id=st.just("")
        ),
    ),
    max_size=60,
)


def apply(state, event):
    """Feed one access or snapshot to a tenant's pending profile."""
    if isinstance(event, AccessEvent):
        state.add_access(event)
    else:
        state.replace(event)


class TestSparsePendingProfile:
    @settings(max_examples=60, deadline=None)
    @given(events=EVENTS)
    def test_store_matches_dense_reference(self, events):
        state = core.TenantState("a")
        reference = DenseTenantState("a")
        for event in events:
            if not isinstance(event, DecideEvent):
                apply(state, event)
                apply(reference, event)
                continue
            assert state.num_huge_pages == reference.num_huge_pages
            every = np.arange(state.num_huge_pages)
            profile = state.take_profile(0.0, every)
            expected = reference.take_profile(0.0)
            np.testing.assert_array_equal(profile.huge_counts(), expected.huge_counts())
            np.testing.assert_array_equal(
                profile.subpage_rows(every), expected.subpage_counts()
            )
            assert state.rows == {}
            assert not state.totals.any()

    @settings(max_examples=40, deadline=None)
    @given(events=EVENTS)
    def test_engine_receives_the_reference_profile(self, events):
        service = make_service()
        references = {tenant: DenseTenantState(tenant) for tenant in TENANTS}
        received = []
        step = EpochSimulation.step

        def spy(engine, profile=None):
            received.append((profile, np.flatnonzero(engine.state.split)))
            step(engine, profile=profile)

        with mock.patch.object(EpochSimulation, "step", spy):
            for index, event in enumerate(events):
                reference = references[event.tenant]
                if not isinstance(event, DecideEvent):
                    service.enqueue(event)
                    apply(reference, event)
                    continue
                service.enqueue(DecideEvent(event.tenant, request_id=f"r{index}"))
                [response] = service.drain(now=float(index))
                assert not response.degraded, response.reason
                # Compared after the decide returns: the profile the
                # engine was handed must still read what it read then.
                profile, split = received[-1]
                expected = reference.take_profile(0.0)
                np.testing.assert_array_equal(
                    profile.huge_counts(), expected.huge_counts()
                )
                np.testing.assert_array_equal(
                    profile.subpage_rows(split), expected.subpage_rows(split)
                )
                unsplit = np.setdiff1d(np.arange(profile.num_huge_pages), split)
                if unsplit.size:
                    with pytest.raises(WorkloadError, match="not resolved"):
                        profile.subpage_rows(unsplit[:1])
                state = service.tenants[event.tenant]
                assert state.num_huge_pages == reference.num_huge_pages
                assert state.rows == {}
                assert not state.totals.any()

    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    def test_drive_wal_matches_dense_reference(self, chaos, tmp_path, monkeypatch):
        config = TrafficConfig(
            seed=11, tenants=3, huge_pages=64, decisions=120, chaos=chaos
        )

        def wal_bytes(name):
            service = PlacementService(
                config=ServiceConfig(seed=11), wal_dir=str(tmp_path / name)
            )
            report = drive(service, config)
            service.close()
            assert report.fresh > 0
            return (tmp_path / name / LOG_NAME).read_bytes()

        sparse = wal_bytes("sparse")
        monkeypatch.setattr(core, "TenantState", DenseTenantState)
        assert wal_bytes("dense") == sparse
