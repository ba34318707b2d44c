"""Asyncio shell around the sans-IO service core.

The core (:mod:`repro.service.core`) never reads a clock or a socket;
this module supplies both.  Three frontends:

* :func:`run_stdin` — JSONL on stdin, responses on stdout; the transport
  the CLI and the CI crash-survival job use (``kill -9`` the process mid
  stream, restart with ``--resume``).
* :func:`serve_unix` — the same protocol over a UNIX domain socket, one
  service shared by many connections.  A connection whose events keep
  failing validation is quarantined by the core and closed here.
* :func:`serve_http` — a minimal HTTP responder with a small route
  table: ``/healthz`` (liveness: queue/breaker/WAL state as JSON),
  ``/readyz`` (readiness: 200 only when the breaker is not open and
  ingress is not in backpressure), ``/metrics`` (live Prometheus text
  exposition of the ``repro_service_*`` registry), and ``/statusz``
  (one JSON page: queue depths per tenant, breaker state, WAL seq and
  checkpoint lag, degraded-serve reasons, shed counts, latency
  histograms, flight-recorder state).

Backpressure is real here: while the core reports
``should_backpressure`` the readers stop pulling from their transports
(stdin buffers, socket receive windows fill) and drain the queue first —
shedding in the core only engages when a burst outruns that.
"""

from __future__ import annotations

import asyncio
import json
import sys

from repro.service.core import PlacementService

#: How long a backpressured reader waits before re-checking the queue.
_BACKPRESSURE_POLL_SECONDS = 0.005


async def _drain(service: PlacementService, writer, loop) -> None:
    """Process everything queued, streaming responses out."""
    for response in service.drain(loop.time()):
        line = json.dumps(response.to_payload(), sort_keys=True) + "\n"
        if writer is not None:
            writer.write(line.encode())
            await writer.drain()
        else:
            sys.stdout.write(line)
            sys.stdout.flush()


async def run_stdin(service: PlacementService) -> None:
    """Drive the service from stdin JSONL until EOF; responses on stdout."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    while True:
        while service.should_backpressure:
            await _drain(service, None, loop)
            await asyncio.sleep(_BACKPRESSURE_POLL_SECONDS)
        raw = await reader.readline()
        if not raw:
            break
        service.ingest_line(
            raw.decode(errors="replace").rstrip("\n"), "stdin", now=loop.time()
        )
        await _drain(service, None, loop)
    await _drain(service, None, loop)
    service.close()


async def _handle_connection(
    service: PlacementService, reader, writer, name: str
) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            while service.should_backpressure:
                await _drain(service, writer, loop)
                await asyncio.sleep(_BACKPRESSURE_POLL_SECONDS)
            raw = await reader.readline()
            if not raw:
                break
            result = service.ingest_line(
                raw.decode(errors="replace").rstrip("\n"), name, now=loop.time()
            )
            await _drain(service, writer, loop)
            if result.status == "quarantined-source":
                break  # repeated poison from this peer: hang up
    finally:
        writer.close()


async def serve_unix(service: PlacementService, socket_path: str) -> None:
    """Serve the JSONL protocol on a UNIX domain socket until cancelled."""
    connections = 0

    async def handler(reader, writer):
        nonlocal connections
        connections += 1
        await _handle_connection(service, reader, writer, f"unix-{connections}")

    server = await asyncio.start_unix_server(handler, path=socket_path)
    async with server:
        await server.serve_forever()


#: Prometheus text exposition content type (format version 0.0.4).
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


async def serve_http(
    service: PlacementService, host: str = "127.0.0.1", port: int = 0
):
    """Expose the live HTTP surface: health, readiness, metrics, status.

    Routes (exact-prefix match, everything else is 404):

    * ``GET /healthz`` — :meth:`~repro.service.core.PlacementService.health`
      as JSON, always 200 while the process lives.
    * ``GET /readyz`` — 200/503 from
      :meth:`~repro.service.core.PlacementService.ready`.
    * ``GET /metrics`` — the live ``repro_service_*`` registry as
      Prometheus text exposition, rebuilt per scrape from the service's
      authoritative counters (idempotent; scraping never mutates
      decision state).
    * ``GET /statusz`` — the one-page JSON snapshot from
      :meth:`~repro.service.core.PlacementService.statusz`.

    Returns the started server (its first socket carries the bound port,
    useful with ``port=0`` in tests).
    """
    loop = asyncio.get_running_loop()

    async def handler(reader, writer):
        try:
            request = await reader.readline()
            # Swallow the rest of the request head.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request.split()
            target = parts[1].decode(errors="replace") if len(parts) >= 2 else "/"
            now = loop.time()
            content_type = "application/json"
            if target.startswith("/readyz"):
                ready = service.ready(now)
                status, body = (
                    ("200 OK", {"ready": True})
                    if ready
                    else ("503 Service Unavailable", {"ready": False})
                )
            elif target.startswith("/healthz"):
                status, body = "200 OK", service.health(now)
            elif target.startswith("/statusz"):
                status, body = "200 OK", service.statusz(now)
            elif target.startswith("/metrics"):
                status, body = "200 OK", None
                content_type = _PROMETHEUS_CONTENT_TYPE
                payload = service.metrics_registry().to_prometheus_text().encode()
            else:
                status, body = "404 Not Found", {"error": "unknown path"}
            if body is not None:
                payload = json.dumps(body, sort_keys=True).encode()
            writer.write(
                b"HTTP/1.1 " + status.encode() + b"\r\n"
                b"Content-Type: " + content_type.encode() + b"\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + payload
            )
            await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handler, host=host, port=port)
