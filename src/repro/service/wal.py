"""Write-ahead durability for acked placement decisions.

Two artifacts under the service's WAL directory:

* ``decisions.jsonl`` — the append-only acked-decision log.  One
  canonical JSON object per line, flushed *and fsynced* before the ack
  leaves the service, so a decision the client saw acked is on stable
  storage by definition.  ``kill -9`` can tear at most the final,
  un-acked line; replay detects and ignores a torn tail.
* ``checkpoint.json`` — a periodic snapshot ``{seq, acked, ingest_lines}``
  written through :func:`repro.ioutil.atomic_write_json` (temp file →
  fsync → rename → directory fsync).  Purely an optimization hint for
  restart; the log is the source of truth and always wins when it is
  ahead of the checkpoint.

Recovery replays the log into the service's ack index (``request_id →``
the decision acked under it, plus each tenant's newest decision, the
last-known-good plan degraded serving answers with) and reconciles the
checkpoint.  A client that re-sends an already-acked request after a
crash gets the recorded ack back verbatim — no duplicate sequence
numbers, no duplicate log entries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.ioutil import atomic_write_json

LOG_NAME = "decisions.jsonl"
CHECKPOINT_NAME = "checkpoint.json"


class DecisionLog:
    """Append-only, fsync-per-append acked-decision log."""

    def __init__(self, wal_dir: str | os.PathLike[str]) -> None:
        self.dir = Path(wal_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / LOG_NAME
        self._handle = None
        self.appends_total = 0

    def append(self, record: dict) -> None:
        """Durably append one acked decision (fsync before returning)."""
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.appends_total += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "DecisionLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class LogScan:
    """Everything one pass over the decision log yields."""

    records: list[dict]
    #: True when the final line was torn (crash mid-append, pre-ack).
    torn_tail: bool
    #: Raw byte length of the intact prefix (torn tail excluded).
    intact_bytes: int


def scan_log(path: str | os.PathLike[str]) -> LogScan:
    """Read every intact record; tolerate (and flag) a torn final line."""
    path = Path(path)
    if not path.exists():
        return LogScan(records=[], torn_tail=False, intact_bytes=0)
    records: list[dict] = []
    torn = False
    intact = 0
    raw = path.read_bytes()
    for line in raw.split(b"\n"):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            torn = True
            break
        if not isinstance(record, dict) or "seq" not in record:
            torn = True
            break
        records.append(record)
        intact += len(line) + 1
    if not torn and not raw.endswith(b"\n") and raw:
        # Complete JSON but no trailing newline: the append was cut
        # between write and newline — treat the last record as torn.
        if records:
            last = records.pop()
            intact -= len(
                json.dumps(last, sort_keys=True, separators=(",", ":")) + "\n"
            )
        torn = True
    return LogScan(records=records, torn_tail=torn, intact_bytes=max(intact, 0))


def truncate_torn_tail(
    path: str | os.PathLike[str], intact_bytes: int
) -> None:
    """Drop torn (never-acked) trailing bytes from the decision log.

    A service must call this before appending to a log whose
    :func:`scan_log` reports a torn tail — otherwise the first new
    record concatenates onto the partial line, and a later recovery
    stops at that invalid line and discards every record after it.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "r+b") as handle:
        handle.truncate(max(intact_bytes, 0))
        handle.flush()
        os.fsync(handle.fileno())


@dataclass(frozen=True)
class Checkpoint:
    """Periodic restart hint; the log always wins when ahead."""

    seq: int = 0
    acked: int = 0
    ingest_lines: int = 0

    def write(self, wal_dir: str | os.PathLike[str]) -> Path:
        return atomic_write_json(
            Path(wal_dir) / CHECKPOINT_NAME,
            {"seq": self.seq, "acked": self.acked, "ingest_lines": self.ingest_lines},
        )

    @classmethod
    def load(cls, wal_dir: str | os.PathLike[str]) -> "Checkpoint":
        path = Path(wal_dir) / CHECKPOINT_NAME
        if not path.exists():
            return cls()
        data = json.loads(path.read_text())
        return cls(
            seq=int(data.get("seq", 0)),
            acked=int(data.get("acked", 0)),
            ingest_lines=int(data.get("ingest_lines", 0)),
        )


@dataclass(frozen=True)
class CachedDecision:
    """One acked placement plan, as its log record holds it."""

    tenant: str
    seq: int
    epoch_index: int
    plan: dict


@dataclass
class RecoveredState:
    """What restart rebuilds from the WAL directory."""

    last_seq: int = 0
    #: request_id → the decision acked under it, so idempotent replays
    #: after restart answer with the plan that was actually acked.
    acked: dict[str, CachedDecision] = field(default_factory=dict)
    #: tenant → its newest acked decision (degraded serving's answer).
    last_good: dict[str, CachedDecision] = field(default_factory=dict)
    checkpoint: Checkpoint = field(default_factory=Checkpoint)
    torn_tail: bool = False
    #: True when the log held records the (older) checkpoint missed —
    #: expected after a crash between an ack and the next checkpoint.
    log_ahead_of_checkpoint: bool = False


def recover(
    wal_dir: str | os.PathLike[str], scan: LogScan | None = None
) -> RecoveredState:
    """Rebuild service durability state from a WAL directory.

    ``scan`` is the decision log's :func:`scan_log`, for a caller that
    already holds it.  Raises :class:`ServiceError` on a log that is
    corrupt beyond a torn tail (non-monotonic or duplicate sequence
    numbers) — that is not a crash artifact, it is a bug or tampering,
    and resuming on top of it would silently violate the
    no-duplicate-acks guarantee.
    """
    wal_dir = Path(wal_dir)
    if scan is None:
        scan = scan_log(wal_dir / LOG_NAME)
    state = RecoveredState(
        checkpoint=Checkpoint.load(wal_dir), torn_tail=scan.torn_tail
    )
    for record in scan.records:
        seq = record.get("seq")
        request_id = record.get("request_id")
        if not isinstance(seq, int) or not isinstance(request_id, str):
            raise ServiceError(f"malformed decision record: {record!r}")
        if seq <= state.last_seq:
            raise ServiceError(
                f"decision log seq not strictly increasing: {seq} after "
                f"{state.last_seq}"
            )
        if request_id in state.acked:
            raise ServiceError(
                f"duplicate ack for request {request_id!r} in decision log"
            )
        state.last_seq = seq
        decision = CachedDecision(
            tenant=str(record.get("tenant", "")),
            seq=seq,
            epoch_index=int(record.get("epoch_index", -1)),
            plan=record.get("plan", {}),
        )
        # Seqs strictly increase, so the last write per tenant is its newest.
        state.acked[request_id] = state.last_good[decision.tenant] = decision
    state.log_ahead_of_checkpoint = state.last_seq > state.checkpoint.seq
    return state


def verify_log(wal_dir: str | os.PathLike[str]) -> dict:
    """Integrity report for a WAL directory (the CLI ``verify`` command).

    Returns ``{"ok": bool, "acked": n, "last_seq": n, "torn_tail": bool,
    "errors": [...]}`` without raising, so CI can print the report and
    fail on the exit code.
    """
    errors: list[str] = []
    try:
        state = recover(wal_dir)
    except ServiceError as exc:
        return {
            "ok": False,
            "acked": 0,
            "last_seq": 0,
            "torn_tail": False,
            "errors": [str(exc)],
        }
    if state.checkpoint.seq > state.last_seq:
        errors.append(
            f"checkpoint seq {state.checkpoint.seq} is ahead of the log "
            f"({state.last_seq}): acked decisions were lost"
        )
    return {
        "ok": not errors,
        "acked": len(state.acked),
        "last_seq": state.last_seq,
        "torn_tail": state.torn_tail,
        "errors": errors,
    }
