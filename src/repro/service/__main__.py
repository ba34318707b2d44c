"""``python -m repro.service`` — run, drive, and verify the service.

Subcommands::

    run     serve the JSONL protocol (stdin or a UNIX socket) with an
            optional HTTP surface (/healthz /readyz /metrics /statusz)
    synth   drive the service with deterministic synthetic traffic and
            print a decisions/sec summary (the benchmarking harness and
            the crash-survival workload); can serve the HTTP surface
            live while driving
    verify  check a WAL directory's acked-decision log for integrity
            (strictly increasing seqs, no duplicate acks)

Examples::

    python -m repro.service synth --decisions 500 --wal-dir wal/
    python -m repro.service synth --decisions 500 --wal-dir wal/ --resume
    python -m repro.service synth --decisions 200 --chaos
    python -m repro.service synth --chaos --health-port 0 --telemetry-dir tel/
    python -m repro.service verify --wal-dir wal/
    cat events.jsonl | python -m repro.service run --wal-dir wal/

``--telemetry-dir DIR`` runs the service under a live observer with a
flight recorder: every decision carries a span tree (queue → decide →
ack), the recorder spills its ring — the tail of the trace — into
``DIR`` (plus reason-tagged dumps on breaker-open / quarantine / control
events / SIGTERM), and on clean exit schema-valid ``trace_service.*`` /
``metrics_service.json`` artifacts land in ``DIR``
(``python -m repro.obs.validate DIR``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.ioutil import atomic_write_json
from repro.obs import Observer
from repro.obs.live import FlightRecorder
from repro.service.core import PlacementService, ServiceConfig
from repro.service.traffic import TrafficConfig, drive
from repro.service.wal import verify_log


def _service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wal-dir", default=None, help="WAL directory")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="recover acked decisions from --wal-dir and continue",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=50.0,
        help="per-request latency budget (default %(default)s ms)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=4096,
        help="ingress queue capacity (default %(default)s)",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        help=(
            "enable the live telemetry plane: span tracing, flight-recorder "
            "spills/dumps, and trace/metrics artifacts in this directory"
        ),
    )
    parser.add_argument(
        "--health-port",
        type=int,
        default=None,
        help=(
            "serve /healthz /readyz /metrics /statusz on this TCP port "
            "(0 = ephemeral; the bound port is printed to stderr)"
        ),
    )


def _build_service(args: argparse.Namespace) -> PlacementService:
    config = ServiceConfig(
        seed=args.seed,
        deadline_seconds=args.deadline_ms / 1000.0,
        queue_capacity=args.queue_capacity,
    )
    observer = None
    if args.telemetry_dir is not None:
        observer = Observer(
            trace=True,
            metrics=True,
            process="repro-service",
            recorder=FlightRecorder(dump_dir=args.telemetry_dir),
        )
    return PlacementService(
        config=config, wal_dir=args.wal_dir, resume=args.resume, observer=observer
    )


def _install_signal_dumps(service: PlacementService, loop) -> None:
    """Dump the flight recorder on SIGTERM/SIGINT, then die normally.

    The handler replaces itself with the default disposition and
    re-raises the signal, so the only behavioural change is the dump —
    exit codes and kill semantics stay exactly as before.  ``kill -9``
    can't be caught; the recorder's periodic spill covers that case.
    """
    if service.observer.recorder is None:
        return

    def _on_signal(signum: int) -> None:
        name = signal.Signals(signum).name.lower()
        service.observer.dump(f"signal-{name}", loop.time())
        loop.remove_signal_handler(signum)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, _on_signal, sig)


def _write_telemetry_artifacts(service: PlacementService, args) -> None:
    """On clean exit, land validated obs artifacts in the telemetry dir."""
    recorder = service.observer.recorder
    if recorder is None or args.telemetry_dir is None:
        return
    out_dir = Path(args.telemetry_dir)
    tracer = service.observer.tracer
    if tracer is not None:
        tracer.write_jsonl(out_dir / "trace_service.jsonl")
        tracer.write_chrome(out_dir / "trace_service.chrome.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_json(
        out_dir / "metrics_service.json",
        service.metrics_registry().snapshot(),
        indent=2,
    )
    recorder.spill()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.service.server import run_stdin, serve_http, serve_unix

    service = _build_service(args)

    async def main() -> None:
        http_server = None
        _install_signal_dumps(service, asyncio.get_running_loop())
        if args.health_port is not None:
            http_server = await serve_http(service, port=args.health_port)
            port = http_server.sockets[0].getsockname()[1]
            print(f"[http endpoints on 127.0.0.1:{port}]", file=sys.stderr)
        try:
            if args.socket is not None:
                await serve_unix(service, args.socket)
            else:
                await run_stdin(service)
        finally:
            if http_server is not None:
                http_server.close()

    asyncio.run(main())
    _write_telemetry_artifacts(service, args)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    service = _build_service(args)
    traffic = TrafficConfig(
        seed=args.seed,
        tenants=args.tenants,
        huge_pages=args.pages,
        decisions=args.decisions,
        chaos=args.chaos,
    )
    emit = None
    if args.emit:

        def emit(response):
            print(json.dumps(response.to_payload(), sort_keys=True))
            sys.stdout.flush()

    started = time.perf_counter()
    if args.health_port is None:
        report = drive(
            service,
            traffic,
            stop_after_decisions=args.stop_after,
            emit=emit,
        )
    else:
        # Serve the live HTTP surface while the driver runs: the drive
        # happens on a worker thread, the asyncio loop answers scrapes.
        # Scrapes are read-only snapshots of the service's counters, so
        # the driven decision stream stays deterministic.
        from repro.service.server import serve_http

        async def main():
            loop = asyncio.get_running_loop()
            _install_signal_dumps(service, loop)
            server = await serve_http(service, port=args.health_port)
            port = server.sockets[0].getsockname()[1]
            print(f"[http endpoints on 127.0.0.1:{port}]", file=sys.stderr)
            sys.stderr.flush()
            try:
                return await loop.run_in_executor(
                    None,
                    lambda: drive(
                        service,
                        traffic,
                        stop_after_decisions=args.stop_after,
                        emit=emit,
                    ),
                )
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(main())
    elapsed = time.perf_counter() - started
    service.close()
    _write_telemetry_artifacts(service, args)
    summary = report.summary()
    summary["wall_seconds"] = elapsed
    summary["decisions_per_second"] = (
        report.decisions / elapsed if elapsed > 0 else 0.0
    )
    summary["health"] = service.health()
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.wal_dir is None:
        print("verify requires --wal-dir", file=sys.stderr)
        return 2
    report = verify_log(args.wal_dir)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Crash-safe online placement service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="serve the JSONL protocol")
    _service_args(run_parser)
    run_parser.add_argument(
        "--socket", default=None, help="serve on this UNIX socket (default stdin)"
    )
    run_parser.set_defaults(func=_cmd_run)

    synth_parser = sub.add_parser(
        "synth", help="drive deterministic synthetic traffic"
    )
    _service_args(synth_parser)
    synth_parser.add_argument(
        "--decisions", type=int, default=100, help="placement requests to issue"
    )
    synth_parser.add_argument(
        "--tenants", type=int, default=2, help="synthetic tenants"
    )
    synth_parser.add_argument(
        "--pages", type=int, default=16, help="huge pages per tenant"
    )
    synth_parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject the pinned slow-consumer/corrupt-event/clock-stall mix",
    )
    synth_parser.add_argument(
        "--stop-after",
        type=int,
        default=None,
        help="stop after N answered decisions (crash-simulation harness)",
    )
    synth_parser.add_argument(
        "--emit",
        action="store_true",
        help="stream each decision response to stdout as JSONL",
    )
    synth_parser.set_defaults(func=_cmd_synth)

    verify_parser = sub.add_parser(
        "verify", help="check a WAL directory for integrity"
    )
    verify_parser.add_argument("--wal-dir", default=None, help="WAL directory")
    verify_parser.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
