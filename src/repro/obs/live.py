"""``repro.obs.live`` — live pieces for long-running processes.

Batch observability produces artifacts when a run finishes.  The
placement service (``repro.service``) and the batch supervisor run for
a long time, so this module adds the two live pieces DESIGN.md "Live
telemetry plane" describes:

* **Request-scoped tracing** — :class:`RequestTrace` builds one span
  tree per decision (``request`` → ``queue`` → ``decide`` →
  ``wal_ack``/``degraded``/``shed``) with ids derived deterministically
  (:func:`deterministic_id`) from (label, tenant, per-service sequence,
  request id) — no wall clocks, no global RNG, so traced runs stay
  bit-identical and replayable.  Spans serialize as ordinary
  schema-valid events (category ``span``), so the existing JSONL/Chrome
  twin formats and ``repro.obs.validate`` apply unchanged.
* **A flight recorder** — :class:`FlightRecorder`, a bounded in-memory
  ring of the most recent events, dumped atomically (``repro.ioutil``)
  on quarantine, breaker-open, crash signal, or an explicit ``control``
  event.  A periodic *spill* rewrites one well-known file every few
  records, so even a ``kill -9`` leaves a recent window on disk.  A
  recorder is fed by the :class:`~repro.obs.Observer` that carries it:
  every emitted event lands in the tracer and the ring alike, so the
  ring is the exact tail of the trace stream.

Everything here is observational: ids come from a hash of values the
service already computed, timestamps are the caller's clock, and no
method touches an RNG.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from pathlib import Path
from typing import Mapping

from repro.errors import ObservabilityError
from repro.ioutil import atomic_write_json
from repro.obs.tracer import validate_event

#: Flight-recorder dump format version (bump on incompatible change).
FLIGHT_VERSION = 1

#: Glob matching flight-recorder dumps inside a telemetry directory.
FLIGHT_GLOB = "flight_*.json"

#: Keys every flight dump must carry (validated by ``repro.obs.validate``).
FLIGHT_REQUIRED_KEYS = ("version", "label", "reason", "time", "entries")

#: Characters admitted into dump-file reason slugs.
_SLUG_PATTERN = re.compile(r"[^a-z0-9-]+")


def deterministic_id(*parts) -> str:
    """A 16-hex-digit id derived only from ``parts`` (no clocks, no RNG).

    The same (tenant, sequence, ...) tuple always yields the same id, so
    trace ids are stable across replays and across the WAL-resume path.
    """
    joined = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def _slug(text: str) -> str:
    slug = _SLUG_PATTERN.sub("-", text.lower()).strip("-")
    return slug or "dump"


class RequestTrace:
    """One decision's span tree, built as schema-valid ``span`` events.

    Span ids derive from the trace id plus the span's position in the
    tree; the root span has no ``parent_id``.  Times and durations are
    the service's *virtual* clock (queue wait, retry backoff, injected
    stalls), so a trace reads as the latency the decision actually
    experienced, deterministically.
    """

    def __init__(self, trace_id: str, tenant: str) -> None:
        self.trace_id = trace_id
        self.tenant = tenant
        self.events: list[dict] = []

    def span(
        self,
        name: str,
        start: float,
        duration: float = 0.0,
        parent: str | None = None,
        **args,
    ) -> str:
        """Add one span; returns its id for use as a child's ``parent``."""
        span_id = deterministic_id(self.trace_id, len(self.events))
        event_args: dict = {
            "trace_id": self.trace_id,
            "span_id": span_id,
            "tenant": self.tenant,
        }
        if parent is not None:
            event_args["parent_id"] = parent
        event_args.update(args)
        event: dict = {
            "cat": "span",
            "name": name,
            "time": max(0.0, float(start)),
            "args": event_args,
        }
        duration = max(0.0, float(duration))
        if duration:
            event["dur"] = duration
        self.events.append(event)
        return span_id


class FlightRecorder:
    """A bounded ring of recent events, dumped atomically on demand.

    ``capacity`` bounds memory; ``spill_every`` bounds data loss — every
    that-many records the ring is rewritten to one well-known spill file
    (atomic overwrite), so a ``kill -9`` still leaves a recent window on
    disk.  Explicit :meth:`dump` calls (breaker-open, quarantine, crash
    signal, ``control`` event) write numbered, reason-tagged files that
    are never overwritten.  With ``dump_dir=None`` the ring still
    records (for ``/statusz``) but nothing touches the filesystem.
    """

    #: Explicit dumps per recorder are bounded — a pathological soak that
    #: trips the breaker thousands of times must not fill the disk.
    MAX_DUMPS = 64

    def __init__(
        self,
        capacity: int = 256,
        dump_dir: str | Path | None = None,
        label: str = "service",
        spill_every: int = 256,
    ) -> None:
        if capacity <= 0:
            raise ObservabilityError(f"flight recorder capacity must be > 0: {capacity}")
        if _SLUG_PATTERN.search(label):
            raise ObservabilityError(
                f"flight recorder label must be lowercase [a-z0-9-]: {label!r}"
            )
        self.capacity = capacity
        self.label = label
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.spill_every = max(1, int(spill_every))
        self.entries: deque[dict] = deque(maxlen=capacity)
        self.records_total = 0
        self.dumps_total = 0
        self.spills_total = 0
        self.last_dump_path: str | None = None
        self.last_dump_reason: str | None = None
        self._since_spill = 0
        self._last_time = 0.0

    def record_event(self, event: Mapping) -> None:
        """Append one schema-valid event dict to the ring (and maybe spill)."""
        validate_event(event)
        data = dict(event)
        self.entries.append(data)
        self.records_total += 1
        self._last_time = max(self._last_time, float(data["time"]))
        self._since_spill += 1
        if self.dump_dir is not None and self._since_spill >= self.spill_every:
            self.spill()

    @property
    def dropped(self) -> int:
        """How many records have rotated out of the ring."""
        return max(0, self.records_total - len(self.entries))

    def _payload(self, reason: str, now: float) -> dict:
        return {
            "version": FLIGHT_VERSION,
            "label": self.label,
            "reason": reason,
            "time": max(0.0, float(now)),
            "records_total": self.records_total,
            "dropped": self.dropped,
            "entries": list(self.entries),
        }

    def dump(self, reason: str, now: float = 0.0) -> Path | None:
        """Write a numbered, reason-tagged dump; ``None`` without a dir.

        Filenames are deterministic (a per-recorder counter, no
        timestamps), and the write is atomic, so a dump is either fully
        present or absent — never torn.  Returns ``None`` without a dump
        directory or once :data:`MAX_DUMPS` have been written (the spill
        file keeps rotating regardless).
        """
        if self.dump_dir is None or self.dumps_total >= self.MAX_DUMPS:
            return None
        path = (
            self.dump_dir
            / f"flight_{self.label}_{self.dumps_total:04d}_{_slug(reason)}.json"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, self._payload(reason, now), indent=2)
        self.dumps_total += 1
        self.last_dump_path = str(path)
        self.last_dump_reason = reason
        return path

    def spill(self) -> Path | None:
        """Atomically overwrite the well-known spill file with the ring."""
        if self.dump_dir is None:
            return None
        path = self.dump_dir / f"flight_{self.label}_spill.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, self._payload("spill", self._last_time), indent=2)
        self.spills_total += 1
        self._since_spill = 0
        return path

    def status(self) -> dict:
        """A JSON-able summary for ``/statusz``."""
        return {
            "capacity": self.capacity,
            "entries": len(self.entries),
            "records_total": self.records_total,
            "dropped": self.dropped,
            "dumps_total": self.dumps_total,
            "spills_total": self.spills_total,
            "last_dump_path": self.last_dump_path,
            "last_dump_reason": self.last_dump_reason,
        }


def validate_flight_dump(payload: Mapping, where: str = "flight dump") -> None:
    """Raise :class:`ObservabilityError` unless ``payload`` is a valid dump."""
    if not isinstance(payload, Mapping):
        raise ObservabilityError(f"{where}: dump must be an object: {payload!r}")
    for key in FLIGHT_REQUIRED_KEYS:
        if key not in payload:
            raise ObservabilityError(f"{where}: dump missing {key!r}")
    if payload["version"] != FLIGHT_VERSION:
        raise ObservabilityError(
            f"{where}: dump version {payload['version']!r} != {FLIGHT_VERSION}"
        )
    if not isinstance(payload["entries"], list):
        raise ObservabilityError(f"{where}: dump entries must be a list")
    for i, entry in enumerate(payload["entries"]):
        try:
            validate_event(entry)
        except ObservabilityError as exc:
            raise ObservabilityError(f"{where}: entry {i}: {exc}") from exc
