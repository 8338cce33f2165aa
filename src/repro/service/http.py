"""Minimal asyncio HTTP/JSON transport for :class:`MappingService`.

No third-party web framework — the API is four routes over a hand-rolled
HTTP/1.1 parser on ``asyncio.start_server`` (the container deliberately
carries no server dependency):

================  =======================================================
``POST /map``     submit a mapping request body (see docs/SERVICE.md);
                  200 done (``cached`` tells hit vs computed), 202 pending
                  (``wait=false`` or wait timeout), 400 malformed, 422
                  deterministic failure, 429 + ``Retry-After`` backpressure
``GET /result/<id>``  poll by content key: 200 done, 202 pending,
                  404 unknown, 422 failed
``GET /healthz``  liveness + queue/cache snapshot
``GET /metrics``  ``repro-profile-v1`` telemetry document
``POST /shutdown``  graceful stop (also triggered by SIGTERM/SIGINT)
================  =======================================================

:func:`serve` runs a service + server until the stop event fires;
:class:`ThreadedServer` wraps it in a background thread for tests and the
load generator.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.service.daemon import (
    BackpressureError,
    MappingService,
    ServiceConfig,
    ServiceRequestError,
)

__all__ = ["serve", "ThreadedServer"]

_MAX_BODY = 16 * 1024 * 1024


class _BadRequest(Exception):
    """A request the transport answers itself: ``status`` and the error."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


def _response(status: int, body: dict, extra_headers: dict | None = None) -> bytes:
    reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
               404: "Not Found", 405: "Method Not Allowed",
               413: "Payload Too Large", 422: "Unprocessable Entity",
               429: "Too Many Requests", 500: "Internal Server Error"}
    payload = json.dumps(body).encode()
    headers = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + payload


async def _read_request(reader) -> tuple[str, str, bytes] | None:
    """Parse one request into (method, path, body); None on EOF. A request
    line or a ``Content-Length`` that cannot be read, or a body past the
    cap, raises :class:`_BadRequest`."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise _BadRequest(400, f"malformed request line {line[:80]!r}")
    method, path = parts[0].upper(), parts[1]
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            value = value.strip()
            if not (value.isascii() and value.isdigit()):
                raise _BadRequest(
                    400, f"Content-Length must be a non-negative integer, "
                         f"got {value[:40]!r}")
            length = int(value)
    if length > _MAX_BODY:
        raise _BadRequest(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, body


async def _handle(service: MappingService, stop: asyncio.Event,
                  reader, writer) -> None:
    try:
        try:
            parsed = await _read_request(reader)
        except _BadRequest as exc:
            writer.write(_response(exc.status, {"error": str(exc)}))
            return
        if parsed is None:
            return
        writer.write(await _route(service, stop, *parsed))
    except Exception as exc:  # noqa: BLE001 — connection-level guard
        try:
            writer.write(_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            ))
        except Exception:  # noqa: BLE001 — peer already gone
            pass
    finally:
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def _route(service: MappingService, stop: asyncio.Event,
                 method: str, path: str, body: bytes) -> bytes:
    if path == "/map":
        if method != "POST":
            return _response(405, {"error": "POST only"})
        try:
            doc = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _response(400, {"error": f"invalid JSON body: {exc}"})
        try:
            reply = await service.submit(doc)
        except ServiceRequestError as exc:
            return _response(400, {"error": str(exc)})
        except BackpressureError as exc:
            return _response(
                429, {"error": str(exc), "retry_after": exc.retry_after},
                {"Retry-After": str(max(1, round(exc.retry_after)))},
            )
        status = {"done": 200, "pending": 202, "error": 422}[reply["status"]]
        return _response(status, reply)

    if path.startswith("/result/"):
        if method != "GET":
            return _response(405, {"error": "GET only"})
        reply = await service.result(path[len("/result/"):])
        if reply is None:
            return _response(404, {"error": "unknown result id"})
        status = {"done": 200, "pending": 202, "error": 422}[reply["status"]]
        return _response(status, reply)

    if path == "/healthz":
        if method != "GET":
            return _response(405, {"error": "GET only"})
        return _response(200, service.healthz())

    if path == "/metrics":
        if method != "GET":
            return _response(405, {"error": "GET only"})
        return _response(200, service.metrics_profile())

    if path == "/shutdown":
        if method != "POST":
            return _response(405, {"error": "POST only"})
        stop.set()
        return _response(200, {"status": "shutting-down"})

    return _response(404, {"error": f"no route {method} {path}"})


async def serve(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: "asyncio.Future | None" = None,
    stop: asyncio.Event | None = None,
) -> None:
    """Run a daemon until ``stop`` fires (or forever).

    ``ready``, when given, resolves to the actually bound ``(host, port)``
    once the socket listens — pass ``port=0`` to bind an ephemeral port.
    """
    service = MappingService(config)
    await service.start()
    stop = stop or asyncio.Event()
    server = await asyncio.start_server(
        lambda r, w: _handle(service, stop, r, w), host, port
    )
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None and not ready.done():
        ready.set_result(bound)
    try:
        async with server:
            await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()


class ThreadedServer:
    """A daemon on a background thread — the test/loadgen harness.

    ``with ThreadedServer(config) as url:`` yields ``http://host:port`` once
    the socket listens; exiting stops the loop and joins the thread.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        self._config = config
        self._host = host
        self._port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._bound: tuple[str, int] | None = None
        self._startup = threading.Event()
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        if self._bound is None:
            raise RuntimeError("server not started")
        return f"http://{self._bound[0]}:{self._bound[1]}"

    def start(self) -> str:
        def _main() -> None:
            async def _amain() -> None:
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                ready = self._loop.create_future()
                task = asyncio.create_task(serve(
                    self._config, self._host, self._port,
                    ready=ready, stop=self._stop,
                ))
                self._bound = await ready
                self._startup.set()
                await task

            try:
                asyncio.run(_amain())
            except BaseException as exc:  # noqa: BLE001 — surfaced in start()
                self._error = exc
                self._startup.set()

        self._thread = threading.Thread(target=_main, daemon=True)
        self._thread.start()
        self._startup.wait(timeout=60)
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        if self._bound is None:
            raise RuntimeError("service did not come up within 60s")
        return self.url

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already exited (e.g. via POST /shutdown)
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
