"""Extension experiment: online placement service robustness report.

The paper's host agent is a long-lived service, not a batch job; this
experiment drives :mod:`repro.service` — the online placement service —
with the deterministic synthetic-traffic generator in two postures:

``clean``
    No faults.  Every decision must come back fresh (acked, WAL-logged);
    sheds and breaker trips must be zero.
``chaos``
    The pinned chaos mix (slow consumers, corrupt events, clock stalls).
    Every response must still be either a valid fresh decision or
    explicitly flagged ``degraded=true`` with a reason, the breaker and
    shed counters must account for every drop, and the write-ahead log
    must verify (strictly increasing seqs, no duplicate acks).

A posture that cannot prove its gate raises, failing the runner.  The
report contains only deterministic quantities (counts and virtual-clock
latencies — never wall time), so same seed + same flags → byte-identical
output; wall-clock decisions/sec lives in ``repro.bench`` instead.

When the runner enables observability (``--trace``/``--metrics`` with
``--obs-dir``), each posture runs under a live
:class:`~repro.obs.Observer` carrying a
:class:`~repro.obs.live.FlightRecorder`: every decision's span tree and
the flight-recorder spill land in the obs directory as schema-valid
artifacts (``trace_service_<posture>.jsonl`` + Chrome twin,
``metrics_service_<posture>.json``, ``flight_<posture>_*.json``), so
``python -m repro.obs.validate`` checks the service end to end.  Spans
are observational: the report and digests are byte-identical with
observability on or off.
"""

from __future__ import annotations

import json

from repro.errors import ConfigError, SimulationError
from repro.experiments import common
from repro.experiments.common import DEFAULT_SEED
from repro.metrics.report import format_table
from repro.obs import Observer, write_run_artifacts
from repro.obs.live import FlightRecorder
from repro.service.core import PlacementService, ServiceConfig
from repro.service.traffic import TrafficConfig, drive

#: Decisions per posture (satellite runs are short; CI must stay fast).
DEFAULT_DECISIONS = 150
#: Tenants sending interleaved traffic.
DEFAULT_SERVICE_TENANTS = 3


def _posture_observer(name: str) -> Observer | None:
    """A live observer with a flight recorder when the runner enabled observability."""
    obs_config = common.observability_config()
    if obs_config is None or not (obs_config.trace or obs_config.metrics):
        return None
    return Observer(
        trace=obs_config.trace,
        metrics=True,
        process=f"repro-service-{name}",
        recorder=FlightRecorder(dump_dir=obs_config.out_dir, label=name),
    )


def _write_posture_artifacts(
    observer: Observer, service: PlacementService, name: str
) -> None:
    """Land one posture's schema-valid obs artifacts in the obs dir."""
    obs_config = common.observability_config()
    if obs_config is None or observer.recorder is None:
        return
    # Refresh the service counters in the observer's registry first.
    service.metrics_registry()
    write_run_artifacts(obs_config, f"service_{name}", observer)
    observer.recorder.spill()


def _run_posture(name: str, seed: int, decisions: int, chaos: bool) -> dict:
    observer = _posture_observer(name)
    service = PlacementService(config=ServiceConfig(seed=seed), observer=observer)
    responses: list = []
    report = drive(
        service,
        TrafficConfig(
            seed=seed,
            tenants=DEFAULT_SERVICE_TENANTS,
            decisions=decisions,
            chaos=chaos,
        ),
        emit=responses.append,
    )
    service.close()
    if observer is not None:
        _write_posture_artifacts(observer, service, name)
    return {
        "posture": name,
        "summary": report.summary(),
        "responses": [r.to_payload() for r in responses],
        "counters": dict(service.counters),
        "breaker_trips": service.breaker.trips_total,
    }


def _check_robustness(row: dict) -> None:
    """Raise unless the posture's responses prove the robustness gate."""
    problems: list[str] = []
    summary = row["summary"]
    for payload in row["responses"]:
        if payload["degraded"]:
            if not payload["reason"]:
                problems.append(
                    f"degraded response {payload['request_id']!r} carries "
                    "no reason"
                )
            if payload["seq"] is not None:
                problems.append(
                    f"degraded response {payload['request_id']!r} was acked"
                )
        elif payload["seq"] is None:
            problems.append(
                f"fresh response {payload['request_id']!r} was never acked"
            )
    if row["posture"] == "clean":
        if summary["degraded"] or summary["shed"] or row["breaker_trips"]:
            problems.append(
                "clean posture produced degraded/shed/tripped responses"
            )
    else:
        if summary["corrupt_sent"] and not summary["rejected"]:
            problems.append("corrupt events were sent but none rejected")
    accounted = summary["fresh"] + summary["degraded"]
    if accounted != summary["decisions"]:
        problems.append(
            f"{summary['decisions']} decisions but only {accounted} "
            "accounted fresh-or-degraded"
        )
    if problems:
        raise SimulationError(
            f"service posture {row['posture']!r} failed its robustness "
            "gate: " + "; ".join(problems)
        )


def check_run_args(decisions: int | None) -> None:
    """Reject an out-of-range :func:`run` argument (``None`` is the default).

    The runner's flag check too, so the message names its flag.
    """
    if decisions is not None and decisions < 1:
        raise ConfigError(f"--service-decisions must be >= 1 (got {decisions})")


def run(
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    decisions: int | None = None,
) -> list[dict]:
    """Run both postures; each must pass its robustness gate."""
    del scale  # traffic volume is set by --service-decisions, not --scale
    check_run_args(decisions)
    decisions = DEFAULT_DECISIONS if decisions is None else decisions
    rows = [
        _run_posture("clean", seed, decisions, chaos=False),
        _run_posture("chaos", seed, decisions, chaos=True),
    ]
    for row in rows:
        _check_robustness(row)
    return rows


def render(rows: list[dict]) -> str:
    """The robustness report as a text table (deterministic fields only)."""
    body = []
    for row in rows:
        summary = row["summary"]
        reasons = ",".join(
            f"{reason}:{count}"
            for reason, count in sorted(summary["degraded_by_reason"].items())
        )
        body.append(
            (
                row["posture"],
                f"{summary['decisions']}",
                f"{summary['fresh']}",
                f"{summary['degraded']}",
                reasons or "-",
                f"{summary['rejected']}",
                f"{summary['shed']}",
                f"{row['breaker_trips']}",
                f"{summary['p99_latency'] * 1e3:.1f}ms",
            )
        )
    table = format_table(
        "Online placement service robustness (deterministic traffic)",
        [
            "posture",
            "decisions",
            "fresh",
            "degraded",
            "degraded by reason",
            "rejected",
            "shed",
            "trips",
            "p99 latency",
        ],
        body,
    )
    digests = "\n".join(
        "  {}: sha256:{}".format(
            row["posture"],
            _digest(row),
        )
        for row in rows
    )
    return (
        f"{table}\n(every response was a valid fresh decision or flagged "
        f"degraded=true with a reason; the WAL held only acked decisions)\n"
        f"response digests:\n{digests}"
    )


def _digest(row: dict) -> str:
    import hashlib

    payload = json.dumps(
        {"summary": row["summary"], "responses": row["responses"]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
