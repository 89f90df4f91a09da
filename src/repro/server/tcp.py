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
import json
import threading
import time
from concurrent.futures import Future
from typing import Any, AsyncIterator, Callable

from repro.common.faults import fault_point
from repro.obs import Telemetry, TelemetryRegistry
from repro.service.api import SCHEMA_VERSION
from repro.service.engine import Engine
from repro.service.serve import (
    DEFAULT_MAX_LINE_BYTES,
    DispatchOutcome,
    Dispatcher,
    SERVER_SCOPE,
)
from repro.server.metrics import ServerMetrics
from repro.server.scheduler import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SHARDS,
    ShardedScheduler,
)

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


class TCPServer:
    """Serve the JSON-lines protocol to many concurrent TCP clients.

    Usage (blocking)::

        server = TCPServer(engine, "127.0.0.1", 9037)
        asyncio.run(server.run())

    or from synchronous code via :class:`BackgroundServer`.  ``port=0``
    binds an ephemeral port; ``bound_port`` reports it once running.
    """

    def __init__(
        self,
        engine: Engine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: int = DEFAULT_SHARDS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        coalesce: bool = True,
        submit: Callable[[dict[str, Any]], dict[str, Any]] | None = None,
        auth=None,
        quota=None,
        drain_timeout: float = 5.0,
        default_deadline_ms: float | None = None,
        telemetry: Telemetry | None = None,
        durability=None,
        lifecycle=None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.shards = shards
        self.queue_depth = queue_depth
        self.max_line_bytes = max_line_bytes
        self.coalesce = coalesce
        self.auth = auth
        self.quota = quota
        self.drain_timeout = drain_timeout
        self.default_deadline_ms = default_deadline_ms
        self.telemetry = telemetry
        self._submit = submit if submit is not None else engine.submit_dict
        self.durability = durability
        self.lifecycle = lifecycle
        self.metrics = ServerMetrics()
        self.registry = TelemetryRegistry(telemetry)
        self.registry.register("metrics", self.metrics.snapshot)
        self.registry.register("engine", engine.stats)
        if durability is not None:
            self.registry.register("durability", durability.stats)
        if lifecycle is not None:
            self.registry.register("lifecycle", lifecycle.describe)
        self.scheduler: ShardedScheduler | None = None
        self.dispatcher: Dispatcher | None = None
        self.bound_port: int | None = None
        self.started_at: float | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------------

    async def run(
        self, ready: Callable[["TCPServer"], None] | None = None
    ) -> None:
        """Bind, serve until :meth:`request_stop`, then tear down cleanly."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.scheduler = ShardedScheduler(
            self._submit,
            shards=self.shards,
            queue_depth=self.queue_depth,
            coalesce=self.coalesce,
            telemetry=self.telemetry,
        )
        self.registry.register("scheduler", self.scheduler.stats)
        # From here on the scheduler's worker threads exist; every exit
        # path (including a failed bind) must run scheduler.stop().
        try:
            self.dispatcher = Dispatcher(
                self.engine,
                max_line_bytes=self.max_line_bytes,
                submit=self.scheduler.submit,
                extra_stats=self.server_stats,
                auth=self.auth,
                quota=self.quota,
                default_deadline_ms=self.default_deadline_ms,
                telemetry=self.telemetry,
                durability=self.durability,
                lifecycle=self.lifecycle,
            )
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            self.started_at = time.time()
            try:
                if ready is not None:
                    ready(self)
                await self._stop_event.wait()
            finally:
                if self.lifecycle is not None:
                    self.lifecycle.to_draining()
                server.close()
                await server.wait_closed()
                # Graceful drain: requests already admitted to shard
                # queues have clients awaiting their futures — let them
                # resolve (bounded) before tearing the connections down,
                # so a server-scope shutdown never abandons queued work.
                drained = await self._loop.run_in_executor(
                    None, self.scheduler.drain, self.drain_timeout
                )
                if self.telemetry is not None:
                    self.telemetry.event(
                        "drain", transport="tcp", drained=drained,
                        timeout_seconds=self.drain_timeout,
                    )
                if drained:
                    # The futures are resolved but handlers still need
                    # loop turns to write the responses; give them a
                    # short, bounded grace before closing writers.
                    for _ in range(100):
                        await asyncio.sleep(0)
                    await asyncio.sleep(0.05)
                if self.durability is not None:
                    # After the scheduler drain (no more appends can be
                    # in flight) and before the process exits: final
                    # flush + fsync, then the WAL refuses stragglers.
                    await self._loop.run_in_executor(
                        None, self.durability.seal
                    )
                for writer in list(self._writers):
                    writer.close()
                # Give connection handlers a beat to observe EOF and finish.
                await asyncio.sleep(0)
        finally:
            self.scheduler.stop()

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
        assert self.dispatcher is not None
        loop = asyncio.get_running_loop()
        self.metrics.incr("connections_opened")
        self._writers.add(writer)
        try:
            async for frame in _iter_wire_lines(reader, self.max_line_bytes):
                started = time.perf_counter()
                if frame is _OVERSIZED:
                    outcome = DispatchOutcome(
                        self.dispatcher.oversized_error(), kind="invalid"
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
                writer.write(
                    json.dumps(response, sort_keys=True).encode("utf-8")
                    + b"\n"
                )
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

    # -- introspection -------------------------------------------------------

    def server_stats(self) -> dict[str, Any]:
        """The ``"server"`` section of the ``stats`` admin response
        (assembled by the telemetry registry; key shapes are stable)."""
        return self.registry.server_stats({
            "transport": "tcp",
            "host": self.host,
            "port": self.bound_port,
            "max_line_bytes": self.max_line_bytes,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
        })

    def ready_banner(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ready",
            "transport": "tcp",
            "host": self.host,
            "port": self.bound_port,
            "datasets": self.engine.dataset_names(),
        }


class BackgroundServer:
    """Run a :class:`TCPServer` on a daemon thread (tests, benchmarks,
    embedding in synchronous programs).

    ``start()`` blocks until the port is bound; ``stop()`` requests a
    clean shutdown and joins the thread, returning ``True`` when the
    server actually wound down within the timeout.
    """

    def __init__(self, server: TCPServer) -> None:
        self.server = server
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-tcp-server", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self.server.run(ready=lambda _: self._ready.set()))
        except BaseException as error:  # surface startup failures to start()
            self._error = error
        finally:
            self._ready.set()

    def start(self, timeout: float = 30.0) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("TCP server did not start within %gs" % timeout)
        if self._error is not None:
            raise RuntimeError("TCP server failed to start") from self._error
        return self

    @property
    def port(self) -> int:
        port = self.server.bound_port
        if port is None:
            raise RuntimeError("server is not running")
        return port

    @property
    def host(self) -> str:
        return self.server.host

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def stop(self, timeout: float = 30.0) -> bool:
        self.server.request_stop()
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
