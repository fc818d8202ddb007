"""Asyncio socket front end: ``repro-qsp serve --listen HOST:PORT``.

The wire protocol is the stdin protocol verbatim — newline-delimited
JSON requests, newline-delimited JSON responses — with one difference a
concurrent server forces: responses arrive *out of request order* (a
light request overtakes a heavy one already in flight), so clients must
match them by ``id``.

Concurrency model: one thread, one event loop, zero locks.  Client
handler coroutines parse lines and push requests through the service's
non-blocking admission path (:meth:`SynthesisService.submit`); a single
driver coroutine interleaves scheduler turns
(:meth:`~repro.service.scheduler.RequestScheduler.run_turn` — one lane
round of one session per turn) with ``await asyncio.sleep(0)`` yields,
so socket reads and writes stay live while searches run.  The shared
:class:`~repro.core.memory.SearchMemory` is only ever touched from the
loop, which is what makes lock-free sharing sound.

Lifecycle:

* a client disconnect cancels every session that client still has in
  flight (their lanes are aborted and freed; no statistics recorded);
* an ``op: shutdown`` request from any client — or SIGTERM/SIGINT —
  starts the graceful path: stop accepting, drain or deadline-flush the
  in-flight sessions (every pending caller still gets its best-so-far
  answer), compact the WAL into a final full snapshot, persist the
  request cache, exit 0.

With ``serve --metrics HOST:PORT`` (and an observability-enabled
service) a second listener on the same event loop serves the metrics
registry's Prometheus text exposition over minimal HTTP/1.0 — any GET
gets the full registry, ``curl http://HOST:PORT/metrics`` style.  It is
read-only, allocates nothing per scrape beyond the rendered text, and
shuts down with the main listener.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal

from repro.constants import SERVICE_MAX_LINE_BYTES, SHUTDOWN_DRAIN_MS
from repro.service.server import SynthesisService, parse_request_line

__all__ = ["AsyncFrontEnd", "serve_listen"]


async def _skip_line(reader: asyncio.StreamReader) -> bool:
    """Discard the rest of an over-limit line; ``False`` once the
    connection is gone."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed  # scanned bytes, all still buffered
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        await reader.readexactly(consumed)


class AsyncFrontEnd:
    """One listening socket in front of a :class:`SynthesisService`."""

    def __init__(self, service: SynthesisService, host: str, port: int,
                 drain_ms: float = SHUTDOWN_DRAIN_MS,
                 metrics_host: str | None = None,
                 metrics_port: int | None = None) -> None:
        if metrics_host is not None and service.obs is None:
            raise ValueError(
                "--metrics requires an observability-enabled service "
                "(drop --no-obs)")
        self.service = service
        self.host = host
        self.port = port
        self.drain_ms = drain_ms
        self.metrics_host = metrics_host
        self.metrics_port = metrics_port
        self.handled = 0
        self.connections = 0
        self.scrapes = 0
        self._work = asyncio.Event()
        self._closing = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- client side -----------------------------------------------------

    def _replier(self, writer: asyncio.StreamWriter):
        def reply(response: dict) -> None:
            if writer.is_closing():
                return  # client gone; the session was already theirs
            try:
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
            except Exception:
                pass
        return reply

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        token = object()  # this connection's cancellation identity
        reply = self._replier(writer)
        self._writers.add(writer)
        try:
            while not self._closing.is_set():
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: an unterminated last line
                except asyncio.LimitOverrunError:
                    self.handled += 1
                    reply({"ok": False,
                           "error": f"request line longer than "
                                    f"{SERVICE_MAX_LINE_BYTES} bytes"})
                    if await _skip_line(reader):
                        continue
                    break
                except ConnectionError:
                    break
                if not line:
                    break  # EOF: client closed its end
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                self.handled += 1
                try:
                    request = parse_request_line(text)
                except ValueError as exc:
                    reply({"ok": False, "error": f"bad request line: {exc}"})
                    continue
                if request.get("op") == "shutdown":
                    reply({"id": request.get("id"), "ok": True,
                           "op": "shutdown"})
                    with contextlib.suppress(Exception):
                        await writer.drain()
                    self._begin_shutdown()
                    break
                try:
                    if self.service.submit(request, reply, client=token):
                        self._work.set()  # wake the driver
                except Exception as exc:  # same guard as the stdin loop
                    self.service.errors += 1
                    reply({"id": request.get("id"), "ok": False,
                           "error": f"{type(exc).__name__}: {exc}"})
                with contextlib.suppress(Exception):
                    await writer.drain()
        finally:
            self._writers.discard(writer)
            if not self._closing.is_set():
                # a vanished client must not keep burning expansion
                # slices; during shutdown, though, the sessions stay —
                # the drain is about to answer them through this writer
                self.service.scheduler.cancel_client(token)
                with contextlib.suppress(Exception):
                    writer.close()

    # -- metrics exposition ----------------------------------------------

    async def _handle_scrape(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.0: any complete GET gets the full exposition."""
        try:
            # read the request head (line + headers) up to the blank line
            with contextlib.suppress(asyncio.IncompleteReadError,
                                     asyncio.LimitOverrunError,
                                     ConnectionError):
                await reader.readuntil(b"\r\n\r\n")
            body = self.service.obs.render_prometheus(
                self.service).encode("utf-8")
            writer.write(b"HTTP/1.0 200 OK\r\n"
                         b"Content-Type: text/plain; version=0.0.4; "
                         b"charset=utf-8\r\n"
                         b"Content-Length: " + str(len(body)).encode()
                         + b"\r\n\r\n" + body)
            self.scrapes += 1
            with contextlib.suppress(Exception):
                await writer.drain()
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    # -- scheduler side --------------------------------------------------

    async def _driver(self) -> None:
        """Interleave scheduler turns with event-loop I/O.

        Each iteration runs at most one turn (one lane round of one
        session) and then yields, so a turn's worth of expansions is the
        longest the loop ever goes without servicing sockets.
        """
        while not self._closing.is_set():
            if self.service.scheduler.pending:
                self.service.scheduler.run_turn()
                await asyncio.sleep(0)
            else:
                self._work.clear()
                waiter = asyncio.ensure_future(self._work.wait())
                closer = asyncio.ensure_future(self._closing.wait())
                done, pending = await asyncio.wait(
                    {waiter, closer},
                    return_when=asyncio.FIRST_COMPLETED)
                for task in pending:
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task

    # -- lifecycle -------------------------------------------------------

    def _begin_shutdown(self) -> None:
        self._closing.set()
        self._work.set()

    async def run(self) -> dict:
        """Listen until shutdown; returns the shutdown summary dict."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=SERVICE_MAX_LINE_BYTES)
        if self.metrics_host is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_scrape, self.metrics_host, self.metrics_port)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, self._begin_shutdown)
        driver = asyncio.ensure_future(self._driver())
        try:
            await self._closing.wait()
        finally:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            if self._metrics_server is not None:
                self._metrics_server.close()
                with contextlib.suppress(Exception):
                    await self._metrics_server.wait_closed()
            self._begin_shutdown()
            with contextlib.suppress(asyncio.CancelledError):
                await driver
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.remove_signal_handler(sig)
        # drain replies still go to connected clients (their reply
        # closures write to live writers); then persist everything
        summary = self.service.shutdown(self.drain_ms)
        # flush the drained replies before the loop dies, then hang up
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await writer.drain()
            with contextlib.suppress(Exception):
                writer.close()
        summary["handled"] = self.handled
        summary["connections"] = self.connections
        if self.metrics_host is not None:
            summary["metrics_scrapes"] = self.scrapes
        return summary

    @property
    def bound_port(self) -> int | None:
        """The actual port (useful when constructed with port 0)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def bound_metrics_port(self) -> int | None:
        """The metrics listener's actual port (port-0 friendly)."""
        if self._metrics_server is None or not self._metrics_server.sockets:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]


def serve_listen(service: SynthesisService, host: str, port: int,
                 drain_ms: float = SHUTDOWN_DRAIN_MS,
                 metrics_host: str | None = None,
                 metrics_port: int | None = None) -> dict:
    """Blocking entry point for ``serve --listen`` (runs the event loop)."""
    return asyncio.run(AsyncFrontEnd(service, host, port,
                                     drain_ms=drain_ms,
                                     metrics_host=metrics_host,
                                     metrics_port=metrics_port).run())
