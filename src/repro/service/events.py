"""Wire schema of the online placement service.

One JSONL object per event.  Three kinds:

* ``access`` — incremental access counts for one huge page of one tenant;
  accumulated into the tenant's pending epoch profile.
* ``snapshot`` — a full per-huge-page count vector for one tenant,
  replacing whatever the tenant accumulated so far (the streamed
  equivalent of one Thermostat scan's worth of observation).
* ``decide`` — a placement request: flush the tenant's accumulated
  profile through the policy engine and answer with a placement plan
  (demote / promote / sampled page ids).

Plus one control-plane kind:

* ``control`` — an operator instruction to the service itself
  (``flight-dump`` forces a flight-recorder dump, ``checkpoint`` forces
  a WAL checkpoint).  Control events ride the same bounded queue but
  default to the hottest priority so load shedding drops data-plane
  events first.

Parsing is strict: anything that is not a complete, well-formed event of
a known kind raises :class:`~repro.errors.EventValidationError`.  The
corrupt-event fault model (:mod:`repro.faults.models`) counts on this —
truncated lines, NUL-struck bytes, and brace-swapped JSON must all be
rejected here, never half-applied downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import EventValidationError

#: Priority lattice for ingress shedding: 0 = coldest (first to shed),
#: 3 = hottest (shed only when nothing colder remains).
PRIORITY_MIN = 0
PRIORITY_MAX = 3
#: Default priority of events that do not carry one.
DEFAULT_PRIORITY = 1

#: Upper bound on a tenant footprint one event may imply, in huge pages.
#: A corrupt count that slips past JSON parsing must not allocate
#: gigabytes of profile array.  The pending profile keeps one int64 total
#: per huge page (at most 2^14 * 8 B = 128 KiB per tenant) plus a
#: 512-slot int64 row (4 KiB) for each page an access touched; one event
#: creates at most one row.  Even with every page's row held, one tenant
#: stays within 2^14 * 512 * 8 B = 64 MiB (2^20 would have allowed
#: ~4 GiB).
MAX_HUGE_PAGES = 1 << 14

#: Upper bound on the access count one event may carry (per access event,
#: per snapshot entry).  The pending profile sums counts into int64 per
#: page, so a larger count would overflow on arrival (a Python int past
#: 2^63 cannot be stored) or wrap a running total negative.  At this
#: bound it takes 2^31 events to one page between two decides to reach
#: 2^63.
MAX_EVENT_COUNT = 1 << 32

_TENANT_MAX_LEN = 64


@dataclass(frozen=True)
class AccessEvent:
    """Incremental accesses to one huge page during the current interval."""

    tenant: str
    page: int
    count: int
    #: Optional 4KB subpage within the huge page; None spreads the count
    #: evenly (the service only needs subpage detail for sampled pages).
    subpage: int | None = None
    priority: int = DEFAULT_PRIORITY

    kind = "access"


@dataclass(frozen=True)
class SnapshotEvent:
    """A full per-huge-page access-count vector for one tenant."""

    tenant: str
    counts: tuple[int, ...]
    priority: int = DEFAULT_PRIORITY

    kind = "snapshot"


@dataclass(frozen=True)
class DecideEvent:
    """A placement request against the tenant's accumulated profile."""

    tenant: str
    request_id: str
    priority: int = DEFAULT_PRIORITY
    #: Per-request latency budget, seconds; None uses the service default.
    deadline_seconds: float | None = None

    kind = "decide"


#: Actions a control event may request.
CONTROL_ACTIONS = frozenset({"flight-dump", "checkpoint"})


@dataclass(frozen=True)
class ControlEvent:
    """An operator instruction to the service's control plane."""

    action: str
    #: Free-form tag echoed into telemetry (dump reason suffix, spans).
    tag: str = ""
    priority: int = PRIORITY_MAX

    kind = "control"

    #: Control events are not tenant-scoped; the constant satisfies the
    #: queue/telemetry sites that key on ``event.tenant``.
    tenant = "_control"


IngressEvent = AccessEvent | SnapshotEvent | DecideEvent | ControlEvent


@dataclass(frozen=True)
class DecisionResponse:
    """One answer to a :class:`DecideEvent`.

    ``degraded`` responses carry the last-known-good plan (or an empty
    one) and are never acked — ``seq`` is ``None`` exactly when
    ``degraded`` is true, so a client can tell a durable fresh decision
    from a best-effort stale one at a glance.
    """

    tenant: str
    request_id: str
    degraded: bool
    #: Ack sequence number; assigned (and WAL-logged) only for fresh
    #: decisions.
    seq: int | None
    #: Why the response is degraded ("" for fresh): "breaker-open",
    #: "deadline", "engine-error", "quarantined".
    reason: str
    #: Placement plan payload (page-id lists; see PlacementPlan.to_payload).
    plan: dict = field(default_factory=dict)
    #: Engine epoch index the plan was computed at.
    epoch_index: int = -1
    #: Virtual service latency for this request, seconds (stalls plus
    #: retry backoff; deterministic under a fixed seed).
    latency_seconds: float = 0.0

    def to_payload(self) -> dict:
        return {
            "tenant": self.tenant,
            "request_id": self.request_id,
            "degraded": self.degraded,
            "seq": self.seq,
            "reason": self.reason,
            "plan": self.plan,
            "epoch_index": self.epoch_index,
            "latency_seconds": self.latency_seconds,
        }


# Numeric fields test their exact type (``type(value) is int``): JSON
# ``true`` and ``false`` decode to bools, which ``isinstance(value, int)``
# would admit.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise EventValidationError(message)


def _parse_tenant(data: dict) -> str:
    tenant = data.get("tenant")
    _require(isinstance(tenant, str) and tenant != "", "event missing tenant")
    _require(
        len(tenant) <= _TENANT_MAX_LEN,
        f"tenant name longer than {_TENANT_MAX_LEN} chars",
    )
    return tenant


def _parse_priority(data: dict) -> int:
    priority = data.get("priority", DEFAULT_PRIORITY)
    _require(
        type(priority) is int and PRIORITY_MIN <= priority <= PRIORITY_MAX,
        f"priority must be an int in [{PRIORITY_MIN}, {PRIORITY_MAX}]: "
        f"{priority!r}",
    )
    return priority


def parse_event(line: str) -> IngressEvent:
    """Parse one JSONL line into a validated ingress event.

    Raises :class:`EventValidationError` for anything malformed; the
    caller counts the rejection and (on repeated poison from one source)
    quarantines the source.
    """
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise EventValidationError(f"not valid JSON: {exc}") from None
    _require(isinstance(data, dict), "event must be a JSON object")
    kind = data.get("kind")
    if kind == "access":
        return _parse_access(data)
    if kind == "snapshot":
        return _parse_snapshot(data)
    if kind == "decide":
        return _parse_decide(data)
    if kind == "control":
        return _parse_control(data)
    raise EventValidationError(f"unknown event kind: {kind!r}")


def _parse_access(data: dict) -> AccessEvent:
    tenant = _parse_tenant(data)
    page = data.get("page")
    _require(
        type(page) is int and 0 <= page < MAX_HUGE_PAGES,
        f"access page must be an int in [0, {MAX_HUGE_PAGES}): {page!r}",
    )
    count = data.get("count")
    _require(
        type(count) is int and 0 <= count <= MAX_EVENT_COUNT,
        f"access count must be an int in [0, {MAX_EVENT_COUNT}]: {count!r}",
    )
    subpage = data.get("subpage")
    if subpage is not None:
        _require(
            type(subpage) is int and 0 <= subpage < 512,
            f"subpage must be an int in [0, 512): {subpage!r}",
        )
    return AccessEvent(
        tenant=tenant,
        page=page,
        count=count,
        subpage=subpage,
        priority=_parse_priority(data),
    )


def _parse_snapshot(data: dict) -> SnapshotEvent:
    tenant = _parse_tenant(data)
    counts = data.get("counts")
    _require(isinstance(counts, list) and len(counts) > 0, "snapshot needs counts")
    _require(
        len(counts) <= MAX_HUGE_PAGES,
        f"snapshot covers more than {MAX_HUGE_PAGES} huge pages",
    )
    for value in counts:
        _require(
            type(value) is int and 0 <= value <= MAX_EVENT_COUNT,
            f"snapshot counts must be ints in [0, {MAX_EVENT_COUNT}]: {value!r}",
        )
    return SnapshotEvent(
        tenant=tenant, counts=tuple(counts), priority=_parse_priority(data)
    )


def _parse_decide(data: dict) -> DecideEvent:
    tenant = _parse_tenant(data)
    request_id = data.get("request_id")
    _require(
        isinstance(request_id, str) and request_id != "",
        "decide needs a request_id",
    )
    deadline = data.get("deadline_seconds")
    if deadline is not None:
        _require(
            type(deadline) in (int, float) and deadline > 0,
            f"deadline_seconds must be positive: {deadline!r}",
        )
        deadline = float(deadline)
    return DecideEvent(
        tenant=tenant,
        request_id=request_id,
        priority=_parse_priority(data),
        deadline_seconds=deadline,
    )


def _parse_control(data: dict) -> ControlEvent:
    action = data.get("action")
    _require(
        isinstance(action, str) and action in CONTROL_ACTIONS,
        f"control action must be one of {sorted(CONTROL_ACTIONS)}: {action!r}",
    )
    tag = data.get("tag", "")
    _require(
        isinstance(tag, str) and len(tag) <= _TENANT_MAX_LEN,
        f"control tag must be a string of <= {_TENANT_MAX_LEN} chars: {tag!r}",
    )
    priority = data.get("priority", PRIORITY_MAX)
    data = dict(data)
    data["priority"] = priority
    return ControlEvent(action=action, tag=tag, priority=_parse_priority(data))
