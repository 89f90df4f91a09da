"""The concurrent TCP front-end: asyncio transport over the dispatcher.

Framing is the stdio protocol verbatim — newline-delimited UTF-8 JSON,
one request object per line, one response object per line, *in order per
connection* — so any stdio client works over a socket unchanged and the
two transports produce byte-identical responses (modulo wall-clock
timing fields; the load harness checks this).

Concurrency model:

* the event loop only reads and writes — parsing/admin dispatch runs on
  the default executor and CPU-bound analytical work on the
  :class:`~repro.server.scheduler.ShardedScheduler`'s worker threads,
  reached by awaiting their futures, so a heavy request on one
  connection never blocks another connection's admin ping;
* per-connection requests are served strictly in order (a connection is a
  session); cross-connection concurrency plus single-flight coalescing is
  where the throughput comes from;
* per-connection input is bounded by ``max_line_bytes`` — oversized lines
  are *discarded while streaming* (never buffered whole) and answered
  with ``error_type="LineTooLong"`` — and output is bounded by awaiting
  ``drain()`` after every response, so a client that stops reading stalls
  only its own session (TCP backpressure), not server memory;
* per-shard queues are bounded with ``Overloaded`` admission control
  (see the scheduler module).

``{"kind": "shutdown"}`` ends the connection after the ack;
``scope="server"`` additionally stops the whole server — the load-test
harness and the CI smoke step use that for deterministic teardown.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future
from typing import Any, AsyncIterator, Callable

from repro.common.faults import fault_point
from repro.server.network import NetworkServer
from repro.service.serve import DispatchOutcome, SERVER_SCOPE, wire_line

_READ_CHUNK = 1 << 16

#: Sentinel yielded by the framing iterator for a line that exceeded
#: ``max_line_bytes`` (the line itself was discarded, never accumulated).
_OVERSIZED = object()


async def _iter_wire_lines(
    reader: asyncio.StreamReader, max_line_bytes: int
) -> AsyncIterator[Any]:
    """Yield newline-delimited frames (bytes) or :data:`_OVERSIZED`.

    The buffer never grows past ``max_line_bytes`` + one read chunk: once
    a partial line exceeds the limit the iterator switches to discard
    mode until the next newline and yields a single oversize marker for
    the whole line.  A final unterminated frame at EOF is still served.
    """
    buffer = b""
    discarding = False
    while True:
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            if discarding:
                yield _OVERSIZED
            elif buffer:
                yield buffer
            return
        buffer += chunk
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            line, buffer = buffer[:newline], buffer[newline + 1:]
            if discarding:
                discarding = False
                yield _OVERSIZED
            elif len(line.rstrip(b"\r")) > max_line_bytes:
                yield _OVERSIZED
            else:
                yield line
        if not discarding and len(buffer) > max_line_bytes:
            discarding = True
            buffer = b""
        elif discarding:
            buffer = b""


class TCPServer(NetworkServer):
    """Serve the JSON-lines protocol to many concurrent TCP clients.

    Usage (blocking)::

        TCPServer(engine, "127.0.0.1", 9037).serve()

    or from synchronous code via
    :class:`~repro.server.network.BackgroundServer`.  The serving stack
    behind the framing and its options are
    :class:`~repro.server.network.NetworkServer`'s.
    """

    transport = "tcp"
    _loop: asyncio.AbstractEventLoop | None = None
    _stop_event: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    def _serve(self, ready: Callable[[Any], None] | None) -> None:
        asyncio.run(self.run(ready))

    async def run(self, ready: Callable[[Any], None] | None = None) -> None:
        """Bind, serve until :meth:`request_stop`, then drain and close
        every connection."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        try:
            self._bound(server.sockets[0].getsockname()[1], ready)
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            if await self._loop.run_in_executor(None, self.drain):
                # The futures are resolved but handlers still need loop
                # turns to write the responses; give them a short,
                # bounded grace before closing writers.
                for _ in range(100):
                    await asyncio.sleep(0)
                await asyncio.sleep(0.05)
            for writer in list(self._writers):
                writer.close()
            # Give connection handlers a beat to observe EOF and finish.
            await asyncio.sleep(0)

    def request_stop(self) -> None:
        """Stop the server; safe from any thread (and from handlers)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    # -- serving -------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        self.metrics.incr("connections_opened")
        self._writers.add(writer)
        try:
            async for frame in _iter_wire_lines(reader, self.max_line_bytes):
                started = time.perf_counter()
                if frame is _OVERSIZED:
                    outcome = DispatchOutcome.refused(
                        self.dispatcher.oversized_error()
                    )
                else:
                    # Dispatch on the default executor, not the event
                    # loop: admin kinds like load_csv do real I/O and
                    # parsing, and even JSON-decoding a max-size line is
                    # work other connections should not wait behind.
                    outcome = await loop.run_in_executor(
                        None, self.dispatcher.dispatch_line, frame
                    )
                response = outcome.response
                if response is None:
                    continue
                if isinstance(response, Future):
                    response = await asyncio.wrap_future(response)
                # Chaos site: an injected disconnect/latency here models
                # the response write failing, not the compute.
                fault_point("tcp.write")
                writer.write(wire_line(response))
                await writer.drain()
                self.metrics.observe(
                    outcome.kind or "invalid", time.perf_counter() - started
                )
                self.metrics.incr("responses")
                if outcome.shutdown is not None:
                    if outcome.shutdown == SERVER_SCOPE:
                        self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.metrics.incr("connections_closed")
