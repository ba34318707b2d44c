"""The placement service core: sans-IO, clock-free, deterministic.

Everything that makes the service *robust* lives here as explicit state
machines driven by ``now`` floats the shell supplies:

* a :class:`~repro.service.queue.BoundedIngressQueue` between the wire
  and the engine (backpressure high-watermark, shed-coldest-first);
* a :class:`~repro.service.breaker.CircuitBreaker` around the policy
  engine (consecutive failures or blown deadlines trip it; half-open
  probes close it);
* per-request deadlines with seeded-jitter retry backoff (the backoff
  stream is a named child RNG, so retry schedules replay bit-identically
  under a fixed seed);
* one ack index: each acked decision under its request id, and each
  tenant's newest one for degraded serving — breaker open or deadline
  blown answers with that last-known-good plan, always flagged
  ``degraded=true`` and never acked;
* write-ahead durability (:mod:`repro.service.wal`): fresh decisions are
  fsynced to the acked-decision log *before* the ack exists, and restart
  with ``resume=True`` rebuilds the ack index from the log so
  already-acked requests are answered idempotently — zero lost acks,
  zero duplicate acks;
* poison handling in the PR-4 supervisor's spirit: corrupt events are
  rejected at parse (repeated poison from one source quarantines the
  source) and a request that keeps crashing the engine is quarantined
  rather than retried forever.

Observability goes through one :class:`~repro.obs.Observer` (default
:data:`~repro.obs.NULL_OBSERVER`, one attribute read per guard).  With a
live observer the service emits its events and builds each decision's
span tree (:class:`~repro.obs.live.RequestTrace`, deterministic ids
seeded by the flight recorder's label); an observer carrying a
:class:`~repro.obs.live.FlightRecorder` keeps the tail of that stream in
its ring and dumps it on breaker-open, quarantine, and ``control``
events.  Responses are identical with and without an observer.

Latency is *virtual*: stalls injected by the fault layer and retry
backoff advance a per-request virtual clock that is checked against the
deadline.  The asyncio shell (:mod:`repro.service.server`) maps virtual
time onto its event loop; the synthetic driver and the tests use it
directly, which is what makes p99 latency a deterministic, benchmarkable
number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.config import SimulationConfig
from repro.core.thermostat import ThermostatPolicy
from repro.errors import ConfigError, ReproError, ServiceError
from repro.mem.numa import NumaTopology
from repro.mem.tiers import TierSpec
from repro.obs import NULL_OBSERVER
from repro.obs.live import RequestTrace, deterministic_id
from repro.obs.metrics import SECONDS_BUCKETS, MetricHistogram, MetricsRegistry
from repro.rng import child_rng, make_rng, retry_delay
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.events import (
    MAX_HUGE_PAGES,
    AccessEvent,
    ControlEvent,
    DecideEvent,
    DecisionResponse,
    EventValidationError,
    IngressEvent,
    SnapshotEvent,
    parse_event,
)
from repro.service.queue import BoundedIngressQueue
from repro.service.wal import (
    CachedDecision,
    Checkpoint,
    DecisionLog,
    recover,
    scan_log,
    truncate_torn_tail,
)
from repro.sim.engine import EpochSimulation
from repro.sim.profile import EpochProfile
from repro.units import HUGE_PAGE_SIZE, SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import Workload


#: Queue-depth fraction at which backpressure engages.
BACKPRESSURE_WATERMARK = 0.8
#: Engine attempts per request before giving up (1 = no retries).
MAX_ATTEMPTS = 3
#: Backoff after the first failed attempt, seconds; doubles per retry.
BACKOFF_SECONDS = 0.005
#: Multiplicative jitter upper bound: delay *= 1 + U[0, jitter).
BACKOFF_JITTER = 0.5
#: Consecutive engine failures that trip the breaker.
BREAKER_FAILURE_THRESHOLD = 5
#: Seconds the breaker stays open before allowing a probe.
BREAKER_RESET_SECONDS = 2.0
#: Consecutive probe successes that close the breaker.
BREAKER_HALF_OPEN_SUCCESSES = 2
#: Engine failures for one request_id before it is quarantined.
POISON_REQUEST_THRESHOLD = 2
#: Consecutive corrupt events from one source before it is quarantined.
POISON_SOURCE_THRESHOLD = 5
#: Acked decisions between checkpoint snapshots.
CHECKPOINT_EVERY = 64
#: Virtual seconds of observation each engine epoch represents.
EPOCH_SECONDS = 1.0
#: Latest answered decisions whose latencies ``/statusz`` takes quantiles of.
STATUSZ_LATENCY_WINDOW = 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the online placement service (the CLI's flags)."""

    #: RNG seed for the retry-jitter streams (deterministic schedules).
    seed: int = 0
    #: Ingress queue capacity (events).
    queue_capacity: int = 4096
    #: Default per-request latency budget, seconds.
    deadline_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise ConfigError(
                f"deadline_seconds must be positive: {self.deadline_seconds}"
            )


class IngestedWorkload(Workload):
    """A footprint-only workload standing in for a streamed tenant.

    The service never asks it for an access profile — every engine step
    receives an externally ingested :class:`EpochProfile` — so its rate
    model is all zeros and exists only to satisfy the engine's
    construction contract (initial footprint, baseline throughput).
    """

    def __init__(self, name: str, huge_pages: int) -> None:
        super().__init__(
            name=name,
            resident_bytes=max(huge_pages, 1) * HUGE_PAGE_SIZE,
        )

    def rates_at(self, time: float) -> np.ndarray:
        return np.zeros(self.total_base_pages)


def _add_spread(row: np.ndarray, count: int) -> None:
    """Spread ``count`` over a 4KB row: ``count // 512`` on every subpage
    and one more on each of the first ``count % 512``."""
    whole, remainder = divmod(count, SUBPAGES_PER_HUGE_PAGE)
    row += whole
    row[:remainder] += 1


@dataclass
class TenantState:
    """Everything the service tracks per tenant, its pending profile included."""

    name: str
    #: Accesses per huge page since the last decision; sized to the footprint.
    totals: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    #: 4KB rows of the pages accesses touched since then; any other
    #: page's row is its total spread by :func:`_add_spread`.
    rows: dict[int, np.ndarray] = field(default_factory=dict)
    engine: EpochSimulation | None = None
    policy: ThermostatPolicy | None = None

    @property
    def num_huge_pages(self) -> int:
        return self.totals.size

    def add_access(self, event: AccessEvent) -> None:
        """Add an access event's count to its subpage, or spread it over the page."""
        page = event.page
        if page >= self.totals.size:
            self.totals = np.pad(self.totals, (0, page + 1 - self.totals.size))
        row = self.rows.get(page)
        if row is None:
            row = self.rows[page] = np.zeros(SUBPAGES_PER_HUGE_PAGE, dtype=np.int64)
            _add_spread(row, int(self.totals[page]))
        if event.subpage is None:
            _add_spread(row, event.count)
        else:
            row[event.subpage] += event.count
        self.totals[page] += event.count

    def replace(self, event: SnapshotEvent) -> None:
        """The snapshot becomes the whole pending profile; pages past it read 0."""
        counts = np.asarray(event.counts, dtype=np.int64)
        self.totals = np.pad(counts, (0, max(self.totals.size - counts.size, 0)))
        self.rows.clear()

    def take_profile(self, start_time: float, resolve: np.ndarray) -> EpochProfile:
        """The pending profile with 4KB rows for ``resolve``; empties the store.

        The profile keeps the totals array, so the store starts a new one.
        """
        totals = self.totals
        rows = np.zeros((resolve.size, SUBPAGES_PER_HUGE_PAGE), dtype=np.int64)
        for k in np.flatnonzero(totals[resolve]).tolist():
            page = int(resolve[k])
            if page in self.rows:
                rows[k] = self.rows[page]
            else:
                _add_spread(rows[k], int(totals[page]))
        self.totals, self.rows = np.zeros_like(totals), {}
        return EpochProfile.sampled(start_time, EPOCH_SECONDS, totals, resolve, rows)


@dataclass(frozen=True)
class IngestResult:
    """What happened to one ingested line."""

    status: str  # "queued" | "shed" | "rejected" | "quarantined-source"
    error: str = ""


class PlacementService:
    """The sans-IO service core; one instance per process."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        wal_dir: str | None = None,
        resume: bool = False,
        observer=None,
    ) -> None:
        self.config = config or ServiceConfig()
        #: The observability sink: events, span trees, metrics, and (with
        #: a recorder attached) the flight ring.
        self.observer = observer if observer is not None else NULL_OBSERVER
        recorder = self.observer.recorder
        #: Seeds trace ids; the recorder's label keeps ids per posture.
        self._trace_label = recorder.label if recorder is not None else "service"
        #: Span trees built so far (also the per-service trace sequence).
        self.traces_total = 0
        self.queue = BoundedIngressQueue(
            self.config.queue_capacity, BACKPRESSURE_WATERMARK
        )
        self.breaker = CircuitBreaker(
            failure_threshold=BREAKER_FAILURE_THRESHOLD,
            reset_timeout=BREAKER_RESET_SECONDS,
            half_open_successes=BREAKER_HALF_OPEN_SUCCESSES,
        )
        self.tenants: dict[str, TenantState] = {}
        self._retry_rng = child_rng(make_rng(self.config.seed), "service:retry")
        # Durability.
        self.wal_dir = wal_dir
        self.log: DecisionLog | None = None
        self.seq = 0
        #: The ack index.  request_id → the decision acked under it, so an
        #: idempotent replay returns that plan verbatim ...
        self.acked: dict[str, CachedDecision] = {}
        #: ... and tenant → its newest acked decision, the last-known-good
        #: plan degraded serving answers with.
        self.last_good: dict[str, CachedDecision] = {}
        self.ingest_lines = 0
        self._acks_since_checkpoint = 0
        # Poison tracking.
        self.quarantined_requests: set[str] = set()
        self.request_failures: dict[str, int] = {}
        self.quarantined_sources: set[str] = set()
        self._source_corrupt_streaks: dict[str, int] = {}
        # Counters surfaced by health() and the metrics registry.
        self.counters: dict[str, int] = {
            "events_total": 0,
            "corrupt_total": 0,
            "shed_total": 0,
            "decisions_total": 0,
            "decisions_fresh": 0,
            "decisions_degraded": 0,
            "degraded_no_cache": 0,
            "engine_failures": 0,
            "retries": 0,
            "quarantined_requests": 0,
            "quarantined_sources": 0,
            "idempotent_acks": 0,
            "checkpoints": 0,
            "control_total": 0,
        }
        #: Degraded serves broken down by reason (statusz, flight dumps).
        self.degraded_by_reason: dict[str, int] = {}
        #: Breaker transitions already emitted through the observer.
        self._seen_breaker_transitions = 0
        #: Virtual latency of the latest answered decisions, seconds (the
        #: ``/statusz`` quantiles).
        self.latencies: deque[float] = deque(maxlen=STATUSZ_LATENCY_WINDOW)
        #: Every answered decision's latency, bucketed for ``/metrics``.
        self.latency_histogram = MetricHistogram(
            "repro_service_decision_latency_seconds", SECONDS_BUCKETS
        )
        #: Test/chaos hook: called as ``hook(tenant_name, epoch_index)``
        #: immediately before each engine step; raising a
        #: :class:`ReproError` simulates an engine fault.  Never set in
        #: production paths.
        self.engine_fault_hook = None
        if wal_dir is not None:
            self._open_log(wal_dir, resume)

    def _open_log(self, wal_dir: str, resume: bool) -> None:
        """Scan the log once: refuse acks unless resuming, adopt them if
        resuming, and drop a torn (never-acked) tail before appending.

        A fresh start reads only the log, never ``checkpoint.json``.
        """
        log = DecisionLog(wal_dir)
        scan = scan_log(log.path)
        if scan.records and not resume:
            raise ServiceError(
                f"WAL directory {wal_dir!r} already holds "
                f"{len(scan.records)} acked decision(s); pass "
                "resume=True (--resume) to continue it"
            )
        if resume:
            state = recover(wal_dir, scan)
            self.seq = state.last_seq
            self.acked, self.last_good = state.acked, state.last_good
            self.ingest_lines = state.checkpoint.ingest_lines
            if self.observer.active:
                self.observer.emit(
                    "service",
                    "recovered",
                    0.0,
                    acked=len(self.acked),
                    last_seq=self.seq,
                    torn_tail=state.torn_tail,
                    log_ahead_of_checkpoint=state.log_ahead_of_checkpoint,
                )
        if scan.torn_tail:
            # Appends must never land on the same line as partial bytes
            # from a crashed process: a later recovery would stop there
            # and drop every ack recorded after this start.
            truncate_torn_tail(log.path, scan.intact_bytes)
        self.log = log

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest_line(
        self, line: str, source: str = "default", now: float = 0.0
    ) -> IngestResult:
        """Validate and enqueue one wire line from ``source``.

        ``now`` is the shell's virtual clock at admission; it stamps the
        queue item so decision spans can carry real queue-wait durations.
        """
        self.ingest_lines += 1
        if source in self.quarantined_sources:
            return IngestResult(status="quarantined-source")
        try:
            event = parse_event(line)
        except EventValidationError as exc:
            self.counters["corrupt_total"] += 1
            streak = self._source_corrupt_streaks.get(source, 0) + 1
            self._source_corrupt_streaks[source] = streak
            if streak >= POISON_SOURCE_THRESHOLD:
                self.quarantined_sources.add(source)
                self.counters["quarantined_sources"] += 1
                if self.observer.active:
                    self.observer.emit(
                        "service", "source_quarantined", now, source=source
                    )
                    self.observer.dump("source-quarantine", now)
                return IngestResult(
                    status="quarantined-source", error=str(exc)
                )
            return IngestResult(status="rejected", error=str(exc))
        self._source_corrupt_streaks[source] = 0
        return self.enqueue(event, now=now)

    def enqueue(self, event: IngressEvent, now: float = 0.0) -> IngestResult:
        """Admit one parsed event into the bounded ingress queue."""
        self.counters["events_total"] += 1
        shed = self.queue.push(event, event.priority, now=now)
        self.counters["shed_total"] += len(shed)
        if self.observer.active:
            for item in shed:
                self.observer.emit(
                    "service",
                    "shed",
                    now,
                    priority=item.priority,
                    kind=getattr(item.event, "kind", "?"),
                )
            for item in shed:
                # Shed decisions still get a (terminal) span tree, so a
                # trace consumer sees every decide outcome, not just the
                # ones that reached the engine.
                if isinstance(item.event, DecideEvent):
                    trace = self._begin_trace(
                        item.event.tenant, item.event.request_id
                    )
                    root = trace.span(
                        "request",
                        start=item.enqueued_at,
                        request_id=item.event.request_id,
                        outcome="shed",
                    )
                    trace.span(
                        "shed", start=now, parent=root, priority=item.priority
                    )
                    self._emit_trace(trace)
        was_shed = bool(shed) and shed[0].event is event
        return IngestResult(status="shed" if was_shed else "queued")

    @property
    def should_backpressure(self) -> bool:
        return self.queue.should_backpressure

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def process_next(
        self, now: float, stall_seconds: float = 0.0
    ) -> DecisionResponse | None:
        """Pop and apply the oldest queued event.

        ``stall_seconds`` is per-item consumer latency the environment
        injected (the slow-consumer fault model); it advances the virtual
        clock of decision requests and can blow their deadlines.  Returns
        a response for decide events, ``None`` otherwise.
        """
        item = self.queue.pop()
        if item is None:
            return None
        event = item.event
        if isinstance(event, AccessEvent):
            self._tenant(event.tenant).add_access(event)
            return None
        if isinstance(event, SnapshotEvent):
            self._tenant(event.tenant).replace(event)
            return None
        if isinstance(event, DecideEvent):
            return self.decide(
                event, now, stall_seconds=stall_seconds, queued_at=item.enqueued_at
            )
        if isinstance(event, ControlEvent):
            self._apply_control(event, now)
            return None
        raise ServiceError(f"unknown queued event: {event!r}")

    def drain(self, now: float, stall_seconds: float = 0.0) -> list[DecisionResponse]:
        """Process everything queued; responses in service order."""
        responses: list[DecisionResponse] = []
        while self.queue.depth:
            response = self.process_next(now, stall_seconds=stall_seconds)
            if response is not None:
                responses.append(response)
        return responses

    def _tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = self.tenants[name] = TenantState(name)
        return state

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def decide(
        self,
        event: DecideEvent,
        now: float,
        stall_seconds: float = 0.0,
        queued_at: float | None = None,
    ) -> DecisionResponse:
        """Answer one placement request (fresh if possible, else degraded).

        ``queued_at`` is the virtual time the request entered the ingress
        queue (its span tree then carries the real queue wait); ``None``
        means the request bypassed the queue (direct calls, tests).
        """
        self.counters["decisions_total"] += 1
        # Engine-attempt spans, collected only when observed (None
        # doubles as the "no tracing" flag for _finish).
        attempts: list[dict] | None = [] if self.observer.active else None
        reason, latency = "", 0.0
        # Idempotent replay: an already-acked request gets the decision
        # recorded under its ack back, without touching the engine or the
        # log (the tenant may have a newer plan since).
        decision = self.acked.get(event.request_id)
        if decision is not None:
            self.counters["idempotent_acks"] += 1
        elif event.request_id in self.quarantined_requests:
            reason = "quarantined"
        else:
            decision, reason, latency = self._run_engine(
                event, now, stall_seconds, attempts
            )
        if reason:
            # Serve last-known-good, flagged — never silently stale.
            self.counters["decisions_degraded"] += 1
            by_reason = self.degraded_by_reason
            by_reason[reason] = by_reason.get(reason, 0) + 1
            decision = self.last_good.get(event.tenant)
            if decision is None:
                self.counters["degraded_no_cache"] += 1
        response = DecisionResponse(
            tenant=event.tenant,
            request_id=event.request_id,
            degraded=bool(reason),
            seq=decision.seq if decision is not None and not reason else None,
            reason=reason,
            plan=decision.plan if decision is not None else {},
            epoch_index=decision.epoch_index if decision is not None else -1,
            latency_seconds=latency,
        )
        self._finish(response, now, queued_at, attempts)
        return response

    def _run_engine(
        self,
        event: DecideEvent,
        now: float,
        stall_seconds: float,
        attempts: list[dict] | None,
    ) -> tuple[CachedDecision | None, str, float]:
        """Step the tenant's engine under deadline, breaker and retries.

        Returns the acked decision (or ``None``), the degraded reason
        (``""`` when acked) and the request's virtual latency.
        """
        deadline = now + (
            event.deadline_seconds
            if event.deadline_seconds is not None
            else self.config.deadline_seconds
        )
        virtual_now = now + stall_seconds
        attempt = 0
        while True:
            if virtual_now > deadline:
                self.breaker.record_failure(virtual_now)
                return None, "deadline", virtual_now - now
            if not self.breaker.allow(virtual_now):
                return None, "breaker-open", virtual_now - now
            attempt += 1
            attempt_start = virtual_now
            try:
                plan, epoch_index = self._engine_step(event.tenant)
            except ReproError:
                outcome = "engine-error"
                self.counters["engine_failures"] += 1
                self.breaker.record_failure(virtual_now)
                if attempt < MAX_ATTEMPTS:
                    self.counters["retries"] += 1
                    # The attempt span covers its backoff: virtual time
                    # the failure cost this request.
                    virtual_now += retry_delay(
                        BACKOFF_SECONDS,
                        attempt,
                        float(self._retry_rng.random()) * BACKOFF_JITTER,
                    )
                else:
                    self._count_request_failure(event, virtual_now)
            else:
                outcome = "ok"
                self.breaker.record_success(virtual_now)
            if attempts is not None:
                attempts.append(
                    {
                        "attempt": attempt,
                        "start": attempt_start,
                        "dur": virtual_now - attempt_start,
                        "outcome": outcome,
                    }
                )
            if outcome == "ok":
                return self._ack(event, plan, epoch_index), "", virtual_now - now
            if attempt >= MAX_ATTEMPTS:
                return None, "engine-error", virtual_now - now

    def _count_request_failure(self, event: DecideEvent, now: float) -> None:
        """Count one exhausted request; repeated ones are quarantined."""
        failures = self.request_failures.get(event.request_id, 0) + 1
        self.request_failures[event.request_id] = failures
        if failures >= POISON_REQUEST_THRESHOLD:
            self.quarantined_requests.add(event.request_id)
            self.counters["quarantined_requests"] += 1
            if self.observer.active:
                self.observer.emit(
                    "service",
                    "request_quarantined",
                    now,
                    request_id=event.request_id,
                    tenant=event.tenant,
                )
                self.observer.dump("quarantine", now)

    def _apply_control(self, event: ControlEvent, now: float) -> None:
        """Apply one control-plane instruction (flight dump, checkpoint)."""
        self.counters["control_total"] += 1
        if self.observer.active:
            self.observer.emit("control", event.action, now, tag=event.tag)
        if event.action == "checkpoint":
            self.checkpoint()
        elif event.action == "flight-dump":
            reason = f"control-{event.tag}" if event.tag else "control"
            self.observer.dump(reason, now)

    def _engine_step(self, tenant_name: str) -> tuple[dict, int]:
        """One reentrant engine epoch over the tenant's pending profile."""
        state = self._tenant(tenant_name)
        if self.engine_fault_hook is not None:
            self.engine_fault_hook(
                tenant_name,
                state.engine.epochs_run if state.engine is not None else 0,
            )
        if state.engine is None:
            policy = ThermostatPolicy()
            # The tenant may grow after this first decide and the engine
            # never resizes its tiers, so size both for the largest
            # footprint an admitted event can declare.
            capacity = MAX_HUGE_PAGES * HUGE_PAGE_SIZE
            engine = EpochSimulation(
                IngestedWorkload(tenant_name, state.num_huge_pages),
                policy,
                SimulationConfig(
                    duration=EPOCH_SECONDS * 1_000_000,
                    epoch=EPOCH_SECONDS,
                    seed=self.config.seed,
                ),
                topology=NumaTopology(
                    fast=TierSpec.dram(capacity), slow=TierSpec.slow(capacity)
                ),
            )
            engine.start()
            state.engine = engine
            state.policy = policy
        # 4KB rows for the split pages only, the subpage detail the policy reads.
        split = np.flatnonzero(state.engine.state.split)
        state.engine.step(profile=state.take_profile(state.engine.clock.now, split))
        assert state.policy is not None
        return state.policy.last_plan.to_payload(), state.engine.epochs_run - 1

    def _ack(
        self, event: DecideEvent, plan: dict, epoch_index: int
    ) -> CachedDecision:
        """Durably record one fresh decision (WAL before ack), then index it."""
        self.seq += 1
        decision = CachedDecision(
            tenant=event.tenant, seq=self.seq, epoch_index=epoch_index, plan=plan
        )
        if self.log is not None:
            self.log.append(
                {
                    "seq": self.seq,
                    "tenant": event.tenant,
                    "request_id": event.request_id,
                    "epoch_index": epoch_index,
                    "plan": plan,
                }
            )
        self.acked[event.request_id] = self.last_good[event.tenant] = decision
        self.counters["decisions_fresh"] += 1
        if self.log is not None:
            self._acks_since_checkpoint += 1
            if self._acks_since_checkpoint >= CHECKPOINT_EVERY:
                self.checkpoint()
        return decision

    def _finish(
        self,
        response: DecisionResponse,
        now: float,
        queued_at: float | None,
        attempts: list[dict] | None,
    ) -> None:
        """Account one answered decision; emit its events and span tree."""
        self.latencies.append(response.latency_seconds)
        self.latency_histogram.observe(response.latency_seconds)
        obs = self.observer
        if obs.active:
            obs.emit(
                "service",
                "decision",
                now,
                tenant=response.tenant,
                degraded=response.degraded,
                reason=response.reason,
                seq=response.seq,
                latency_seconds=response.latency_seconds,
            )
            self._record_spans(response, now, queued_at, attempts)
            self._watch_breaker(now)

    def _begin_trace(self, tenant: str, request_id: str) -> RequestTrace:
        """Open one request's span tree; its id depends only on ingress order."""
        trace_id = deterministic_id(
            self._trace_label, tenant, self.traces_total, request_id
        )
        self.traces_total += 1
        return RequestTrace(trace_id=trace_id, tenant=tenant)

    def _emit_trace(self, trace: RequestTrace) -> None:
        """Emit a finished span tree through the observer."""
        obs = self.observer
        for event in trace.events:
            obs.emit(
                event["cat"],
                event["name"],
                event["time"],
                event.get("dur", 0.0),
                **event["args"],
            )
        obs.inc("repro_service_spans_total", len(trace.events))

    def _record_spans(
        self,
        response: DecisionResponse,
        now: float,
        queued_at: float | None,
        attempts: list[dict] | None,
    ) -> None:
        """Emit one decision's span tree: request → queue → decide → ack."""
        trace = self._begin_trace(response.tenant, response.request_id)
        start = queued_at if queued_at is not None else now
        end = now + response.latency_seconds
        root = trace.span(
            "request",
            start=start,
            duration=end - start,
            request_id=response.request_id,
            outcome="degraded" if response.degraded else "acked",
        )
        if queued_at is not None:
            trace.span(
                "queue", start=queued_at, duration=now - queued_at, parent=root
            )
        decide_span = trace.span(
            "decide",
            start=now,
            duration=response.latency_seconds,
            parent=root,
            epoch_index=response.epoch_index,
        )
        for record in attempts or ():
            trace.span(
                "attempt",
                start=record["start"],
                duration=record["dur"],
                parent=decide_span,
                attempt=record["attempt"],
                outcome=record["outcome"],
            )
        if response.degraded:
            trace.span(
                "degraded",
                start=end,
                parent=root,
                reason=response.reason,
                had_cache=bool(response.plan),
            )
        elif attempts:
            trace.span("wal_ack", start=end, parent=root, seq=response.seq)
        else:
            trace.span("idempotent_ack", start=end, parent=root, seq=response.seq)
        self._emit_trace(trace)

    def _watch_breaker(self, now: float) -> None:
        """Emit new breaker transitions as events.

        A transition *to* OPEN dumps the flight ring — the moments leading
        up to a trip are exactly what a post-mortem wants.
        """
        transitions = self.breaker.transitions
        if len(transitions) <= self._seen_breaker_transitions:
            return
        fresh = transitions[self._seen_breaker_transitions:]
        self._seen_breaker_transitions = len(transitions)
        opened = False
        for transition in fresh:
            self.observer.emit(
                "service",
                "breaker_transition",
                transition.time,
                from_state=transition.from_state,
                to_state=transition.to_state,
                streak=transition.streak,
            )
            opened = opened or transition.to_state == OPEN
        if opened:
            self.observer.dump("breaker-open", now)

    # ------------------------------------------------------------------
    # Durability & health
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot seq / ack-count / ingest offset atomically."""
        if self.wal_dir is None:
            return
        Checkpoint(
            seq=self.seq, acked=len(self.acked), ingest_lines=self.ingest_lines
        ).write(self.wal_dir)
        self._acks_since_checkpoint = 0
        self.counters["checkpoints"] += 1

    def close(self) -> None:
        """Flush durability state (checkpoint + close the log)."""
        self.checkpoint()
        if self.log is not None:
            self.log.close()

    def health(self, now: float = 0.0) -> dict:
        """Liveness payload: queue, breaker, shed/degraded accounting."""
        return {
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "backpressure": self.queue.should_backpressure,
                "shed_total": self.queue.shed_total,
                "shed_by_priority": dict(self.queue.shed_by_priority),
            },
            "breaker": {
                "state": self.breaker.state,
                "trips_total": self.breaker.trips_total,
                "seconds_until_probe": self.breaker.seconds_until_probe(now),
            },
            "wal": {
                "seq": self.seq,
                "acked": len(self.acked),
                "ingest_lines": self.ingest_lines,
            },
            "tenants": len(self.tenants),
            "quarantined_requests": len(self.quarantined_requests),
            "quarantined_sources": len(self.quarantined_sources),
            "degraded_by_reason": dict(sorted(self.degraded_by_reason.items())),
            "counters": dict(self.counters),
        }

    def ready(self, now: float = 0.0) -> bool:
        """Readiness: willing to accept new work right now."""
        return self.breaker.state != OPEN and not self.queue.should_backpressure

    # ------------------------------------------------------------------
    # Live telemetry surfaces (/metrics, /statusz)
    # ------------------------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        """The live ``repro_service_*`` registry behind ``/metrics``.

        With an observer that keeps metrics this refreshes (and returns)
        its registry, so the observer's own series ride along; otherwise
        a transient registry is built.  Either way the service is the only
        writer of its series: counters and gauges are *set* from its
        state and the latency histogram is the service's own, so repeated
        scrapes are idempotent.
        """
        shared = self.observer.metrics
        registry = shared if shared is not None else MetricsRegistry()
        for key, value in list(self.counters.items()):
            name = f"repro_service_{key}"
            if not name.endswith("_total"):
                name += "_total"
            registry.counter(name).value = float(value)
        for reason, count in sorted(self.degraded_by_reason.items()):
            suffix = reason.replace("-", "_")
            registry.counter(f"repro_service_degraded_{suffix}_total").value = float(
                count
            )
        registry.counter("repro_service_breaker_trips_total").value = float(
            self.breaker.trips_total
        )
        registry.gauge("repro_service_queue_depth").set(float(self.queue.depth))
        registry.gauge("repro_service_queue_watermark").set(float(self.queue.watermark))
        registry.gauge("repro_service_backpressure").set(
            1.0 if self.queue.should_backpressure else 0.0
        )
        registry.gauge("repro_service_breaker_open").set(
            1.0 if self.breaker.state == OPEN else 0.0
        )
        registry.gauge("repro_service_wal_seq").set(float(self.seq))
        registry.gauge("repro_service_wal_acked").set(float(len(self.acked)))
        # Acks fsynced to the log but not yet covered by a checkpoint —
        # the replay distance a crash right now would incur.
        registry.gauge("repro_service_wal_checkpoint_lag").set(
            float(self._acks_since_checkpoint)
        )
        registry.gauge("repro_service_tenants").set(float(len(self.tenants)))
        registry.histograms[self.latency_histogram.name] = self.latency_histogram
        return registry

    def statusz(self, now: float = 0.0) -> dict:
        """The ``/statusz`` JSON snapshot: everything live, one page.

        Its latency ``count`` covers every answered decision; the
        quantiles cover the latest :data:`STATUSZ_LATENCY_WINDOW`.
        """
        latency_summary = {"count": self.latency_histogram.count}
        if self.latencies:
            arr = np.asarray(self.latencies)
            latency_summary.update(
                p50=float(np.percentile(arr, 50)),
                p99=float(np.percentile(arr, 99)),
                max=float(arr.max()),
            )
        return {
            "health": self.health(now),
            "queue_depths": {
                "by_priority": {
                    str(p): d for p, d in sorted(self.queue.depth_by_priority().items())
                },
                "by_tenant": self.queue.depth_by_tenant(),
            },
            "latency_seconds": latency_summary,
            "metrics": self.metrics_registry().snapshot(),
            "telemetry": self._telemetry_status(),
        }

    def _telemetry_status(self) -> dict:
        obs = self.observer
        if not obs.active:
            return {"active": False}
        return {
            "active": True,
            "label": self._trace_label,
            "traces_total": self.traces_total,
            "trace_events": len(obs.tracer) if obs.tracer is not None else 0,
            "flight_recorder": (
                obs.recorder.status() if obs.recorder is not None else None
            ),
        }
