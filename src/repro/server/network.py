"""The serving stack every network transport frames requests for.

A transport only moves bytes: :class:`~repro.server.tcp.TCPServer`
splits a socket stream into JSON lines, :class:`~repro.web.http.WebServer`
maps HTTP routes onto request objects.  Everything behind the framing is
one stack, built here once per transport instance:

* a :class:`~repro.server.scheduler.ShardedScheduler` over the engine,
* the :class:`~repro.service.serve.Dispatcher` every request goes
  through (auth, quota, deadlines, admin kinds),
* the transport's :class:`~repro.server.metrics.ServerMetrics`,
* a :class:`~repro.obs.TelemetryRegistry` with every source registered
  once, which both ``stats`` and ``/metrics`` render from,

plus the one shutdown sequence (:meth:`NetworkServer.drain`), the
``stats`` ``"server"`` section, the ready banner, and
:class:`BackgroundServer`, which runs either transport on a daemon
thread.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.obs import Telemetry, TelemetryRegistry
from repro.server.lifecycle import READY, ServerLifecycle
from repro.server.metrics import ServerMetrics
from repro.server.scheduler import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SHARDS,
    ShardedScheduler,
)
from repro.service.api import SCHEMA_VERSION
from repro.service.engine import Engine
from repro.service.serve import DEFAULT_MAX_LINE_BYTES, Dispatcher


class NetworkServer:
    """One transport's serving stack over a shared engine.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.service.engine.Engine`.
    host / port:
        Where to listen; ``port=0`` binds an ephemeral port, reported as
        ``bound_port`` once serving.
    shards / queue_depth / coalesce:
        The scheduler's shape (see
        :class:`~repro.server.scheduler.ShardedScheduler`).
    max_line_bytes:
        The byte bound on one request, enforced by the dispatcher.
    submit:
        The computation the scheduler runs per analytical request
        (defaults to ``engine.submit_dict``).
    auth / quota / default_deadline_ms / telemetry / durability:
        Passed to the dispatcher; ``auth``, ``quota`` and ``durability``
        also become telemetry sections when set.
    drain_timeout:
        Bound, in seconds, on the scheduler drain at shutdown.
    lifecycle:
        The process's :class:`~repro.server.lifecycle.ServerLifecycle`;
        a server built without one starts ready.

    Subclasses implement :meth:`_serve` (bind, call :meth:`_bound`,
    serve until stopped) and :meth:`request_stop`.
    """

    #: The transport's name in banners, stats and the ``drain`` event.
    transport: str
    #: The ``stats`` key under which the byte bound is reported.
    bound_key = "max_line_bytes"

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
        lifecycle: ServerLifecycle | None = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        self.auth = auth
        self.quota = quota
        self.drain_timeout = drain_timeout
        self.telemetry = telemetry
        self.durability = durability
        self.lifecycle = (
            lifecycle if lifecycle is not None
            else ServerLifecycle(initial=READY)
        )
        self.bound_port: int | None = None
        self.started_at: float | None = None
        self.metrics = ServerMetrics()
        self.scheduler = ShardedScheduler(
            submit if submit is not None else engine.submit_dict,
            shards=shards,
            queue_depth=queue_depth,
            coalesce=coalesce,
            telemetry=telemetry,
        )
        try:
            self.dispatcher = Dispatcher(
                engine,
                max_line_bytes=max_line_bytes,
                submit=self.scheduler.submit,
                extra_stats=self.server_stats,
                auth=auth,
                quota=quota,
                default_deadline_ms=default_deadline_ms,
                telemetry=telemetry,
                durability=durability,
                lifecycle=self.lifecycle,
            )
        except BaseException:
            # A bad knob value: the worker threads already run.
            self.scheduler.stop()
            raise
        self.registry = TelemetryRegistry(telemetry)
        self.registry.register("metrics", self.metrics.snapshot)
        self.registry.register("scheduler", self.scheduler.stats)
        self.registry.register("engine", engine.stats)
        self.registry.register("dispatcher", self.dispatcher.rejected)
        self.registry.register("lifecycle", self.lifecycle.describe)
        for name, service in (
            ("durability", durability), ("auth", auth), ("quota", quota),
        ):
            if service is not None:
                self.registry.register(name, service.stats)

    # -- lifecycle -----------------------------------------------------------

    def serve(self, ready: Callable[[Any], None] | None = None) -> None:
        """Bind, call *ready* with this server, and serve until
        :meth:`request_stop`.  The scheduler's workers are stopped on
        every exit path, a failed bind included."""
        try:
            self._serve(ready)
        finally:
            self.scheduler.stop()

    def _serve(self, ready: Callable[[Any], None] | None) -> None:
        raise NotImplementedError

    def _bound(
        self, port: int, ready: Callable[[Any], None] | None
    ) -> None:
        """Record the bound port and announce readiness."""
        self.bound_port = port
        self.started_at = time.time()
        if ready is not None:
            ready(self)

    def request_stop(self) -> None:
        """Begin shutdown; safe from any thread, handlers included."""
        raise NotImplementedError

    def drain(self) -> bool:
        """The shutdown sequence: lifecycle to draining, a bounded drain
        of the requests already admitted to shard queues (their clients
        are awaiting them), the ``drain`` telemetry event, then the WAL's
        final flush and fsync, after which it refuses mutations.
        Returns whether the queues went idle within ``drain_timeout``."""
        self.lifecycle.to_draining()
        drained = self.scheduler.drain(self.drain_timeout)
        if self.telemetry is not None:
            self.telemetry.event(
                "drain", transport=self.transport, drained=drained,
                timeout_seconds=self.drain_timeout,
            )
        if self.durability is not None:
            self.durability.seal()
        return drained

    # -- introspection -------------------------------------------------------

    def uptime_seconds(self) -> float:
        return time.time() - self.started_at if self.started_at else 0.0

    def server_stats(self) -> dict[str, Any]:
        """The ``"server"`` section of the ``stats`` admin response
        (assembled by the telemetry registry; key shapes are stable)."""
        return self.registry.server_stats({
            "transport": self.transport,
            "host": self.host,
            "port": self.bound_port,
            self.bound_key: self.max_line_bytes,
            "uptime_seconds": self.uptime_seconds(),
        })

    def ready_banner(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ready",
            "transport": self.transport,
            "host": self.host,
            "port": self.bound_port,
            "datasets": self.engine.dataset_names(),
            "auth_required": self.auth is not None,
        }


class BackgroundServer:
    """Run a :class:`NetworkServer` on a daemon thread (tests,
    benchmarks, embedding in synchronous programs).

    ``start()`` blocks until the port is bound; ``stop()`` requests the
    drain-then-shutdown sequence and joins the thread, returning
    ``True`` when the server wound down within the timeout.
    """

    def __init__(self, server: NetworkServer) -> None:
        self.server = server
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-%s-server" % server.transport,
            daemon=True,
        )

    def _run(self) -> None:
        try:
            self.server.serve(ready=lambda _: self._ready.set())
        except BaseException as error:  # surface startup failures to start()
            self._error = error
        finally:
            self._ready.set()

    def start(self, timeout: float = 30.0) -> "BackgroundServer":
        name = self.server.transport.upper()
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError(
                "%s server did not start within %gs" % (name, timeout)
            )
        if self._error is not None:
            raise RuntimeError("%s server failed to start" % name) \
                from self._error
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

    def stop(self, timeout: float = 30.0) -> bool:
        self.server.request_stop()
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
