"""Asyncio shell: health/readiness endpoints over bare HTTP."""

import asyncio

from repro.service.core import PlacementService, ServiceConfig
from repro.service.server import serve_http


async def _request(port: int, raw: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read()
    writer.close()
    return data


def _roundtrip(raw: bytes) -> bytes:
    async def run() -> bytes:
        service = PlacementService(config=ServiceConfig())
        server = await serve_http(service, port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await _request(port, raw)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(run())


class TestHealthEndpoints:
    def test_healthz_returns_json(self):
        response = _roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert b'"counters"' in response

    def test_readyz_ok_when_idle(self):
        response = _roundtrip(b"GET /readyz HTTP/1.1\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 200 OK")

    def test_unknown_path_is_404(self):
        response = _roundtrip(b"GET /nope HTTP/1.1\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 404 Not Found")

    def test_one_token_request_line_gets_a_response(self):
        # A bare method with no target must yield a well-formed 4xx, not
        # an IndexError that drops the connection without a response.
        response = _roundtrip(b"GET\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 404 Not Found")
