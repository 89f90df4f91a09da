"""The unified telemetry registry: one snapshot for every signal.

Before this module the serving tier's signals were scattered: transport
counters and latency histograms lived in
:class:`~repro.server.metrics.ServerMetrics`, engine cache hit rates in
:class:`~repro.service.engine.CacheStats`, resilience gauges in
:meth:`~repro.server.scheduler.ShardedScheduler.stats`, quota/auth
counters in their services — and each consumer (``/metrics``, the
``stats`` admin kind) hand-assembled its own subset.

:class:`TelemetryRegistry` inverts that: each source registers a
snapshot callable once under a section name, and every consumer renders
from the same registry — ``/metrics`` via :meth:`prometheus_extra`
(gauge names are stable; they are part of the scrape contract), the
``stats`` admin kind's ``"server"`` section via :meth:`server_stats`,
and ad-hoc introspection via :meth:`snapshot`.

:class:`Telemetry` is the tracing/logging half: the armed flag, the
deterministic trace-id generator, the bounded ring buffer behind the
``trace`` admin kind, and the optional structured logger.  One instance
is shared by every transport of a server process, so a request traced at
the TCP edge and one traced at the HTTP edge land in the same buffer.

>>> registry = TelemetryRegistry()
>>> registry.register("quota", lambda: {"granted": 3, "rejected": 1,
...                                     "users": 2})
>>> registry.prometheus_extra()["quota_rejected"]
1
>>> registry.server_stats({"transport": "tcp"})["quota"]["granted"]
3
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.obs.logging import StructuredLogger
from repro.obs.tracing import RequestTrace, TraceBuffer, TraceIdGenerator

__all__ = ["Telemetry", "TelemetryRegistry"]

#: Default bound on the trace ring buffer (N most recent + N slowest).
DEFAULT_TRACE_BUFFER = 32


class Telemetry:
    """Tracing + structured logging for one server process.

    Parameters
    ----------
    tracing:
        The armed flag.  Disarmed (the default), :meth:`begin_trace`
        returns ``None`` and every downstream span is a no-op flag
        check — wire bytes are identical to a build without this module.
    trace_buffer:
        Capacity of the slowest-N / most-recent-N ring buffer served by
        the ``trace`` admin kind and ``/v2/admin/trace``.
    logger:
        Optional :class:`~repro.obs.logging.StructuredLogger`; when set,
        every finished trace emits one ``request`` record and lifecycle
        hooks emit ``event`` records.  A logger implies nothing about
        tracing — ``repro-serve --log-json`` arms both.
    """

    def __init__(
        self,
        *,
        tracing: bool = False,
        trace_buffer: int = DEFAULT_TRACE_BUFFER,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        self.tracing = bool(tracing)
        self.logger = logger
        self.ids = TraceIdGenerator()
        self.buffer = TraceBuffer(trace_buffer)

    # -- request traces ------------------------------------------------------

    def begin_trace(
        self,
        kind: str,
        user: str = "anonymous",
        request_id: Optional[str] = None,
    ) -> Optional[RequestTrace]:
        """Start a trace for one request, or ``None`` when disarmed.

        *request_id* is a caller-supplied id (HTTP ``X-Request-Id``);
        absent, the seeded generator produces a deterministic one.
        """
        if not self.tracing:
            return None
        trace_id = request_id if request_id else self.ids.next_id()
        return RequestTrace(trace_id, kind=kind, user=user)

    def finish_trace(
        self, trace: RequestTrace, status: str
    ) -> dict[str, Any]:
        """Freeze *trace*, record it in the ring buffer, log it, and
        return its JSON tree (the inline-trace response payload)."""
        trace.finish(status)
        tree = trace.to_dict()
        self.buffer.record(tree)
        if self.logger is not None:
            self.logger.request(tree)
        return tree

    def traces(self) -> dict[str, Any]:
        """The ring buffer's snapshot (``trace`` admin kind body)."""
        return self.buffer.snapshot()

    # -- lifecycle events ----------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Log a lifecycle event; silently dropped without a logger."""
        if self.logger is not None:
            self.logger.event(name, **fields)

    def describe(self) -> dict[str, Any]:
        """Summary facts for stats surfaces (never the traces themselves)."""
        return {
            "armed": self.tracing,
            "buffer_capacity": self.buffer.capacity,
            "recorded": self.buffer.snapshot()["recorded"],
            "logging": self.logger is not None,
        }


class TelemetryRegistry:
    """Named snapshot sources unified behind one read surface.

    Sources are zero-argument callables registered under section names
    the consumers know: ``metrics`` (ServerMetrics snapshot),
    ``scheduler``, ``engine`` (an
    :class:`~repro.service.engine.EngineStats`), ``dispatcher``
    (rejection counters), ``quota``, ``auth``, ``sessions``.  A section
    that is not registered is simply absent from every rendering — the
    TCP tier has no session store, so its stats never grow a
    ``sessions`` key.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._sources: dict[str, Callable[[], Any]] = {}

    def register(self, name: str, source: Callable[[], Any]) -> None:
        with self._lock:
            self._sources[name] = source

    def registered(self) -> list[str]:
        with self._lock:
            return sorted(self._sources)

    def section(self, name: str) -> Any:
        """One section's current snapshot, or ``None`` if unregistered."""
        with self._lock:
            source = self._sources.get(name)
        return source() if source is not None else None

    def snapshot(self) -> dict[str, Any]:
        """Every registered section, snapshotted now."""
        with self._lock:
            sources = dict(self._sources)
        result = {name: source() for name, source in sorted(sources.items())}
        if self.telemetry is not None:
            result["telemetry"] = self.telemetry.describe()
        return result

    # -- consumers -----------------------------------------------------------

    def prometheus_extra(self) -> dict[str, float]:
        """The ``extra`` gauge map for ``/metrics``.

        Gauge names are part of the scrape contract — dashboards key on
        them — so this method is the single place they are defined.
        """
        extra: dict[str, float] = {}
        scheduler = self.section("scheduler")
        if scheduler is not None:
            extra["scheduler_inflight"] = scheduler["inflight"]
            extra["scheduler_overloaded"] = scheduler["overloaded"]
            extra["scheduler_worker_restarts"] = scheduler["worker_restarts"]
            extra["scheduler_workers_leaked"] = scheduler["workers_leaked"]
            extra["scheduler_deadline_shed"] = scheduler["deadline_shed"]
            extra["scheduler_deadline_exceeded"] = (
                scheduler["deadline_exceeded"]
            )
            extra["scheduler_poisoned"] = scheduler["poisoned"]
            extra["scheduler_quarantined"] = scheduler["quarantined"]
            for index, depth in enumerate(scheduler["queue_depths"]):
                extra['shard_queue_depth{shard="%d"}' % index] = depth
            flight = scheduler["singleflight"]
            extra["singleflight_leaders"] = flight["leaders"]
            extra["singleflight_coalesced"] = flight["coalesced"]
        dispatcher = self.section("dispatcher")
        if dispatcher is not None:
            extra["dispatcher_deadline_exceeded"] = dispatcher["deadline"]
        quota = self.section("quota")
        if quota is not None:
            extra["quota_granted"] = quota["granted"]
            extra["quota_rejected"] = quota["rejected"]
            extra["quota_users"] = quota["users"]
        auth = self.section("auth")
        if auth is not None:
            extra["auth_rejected"] = auth["rejected"]
        sessions = self.section("sessions")
        if sessions is not None:
            extra["sessions_corrupted"] = sessions["corrupted"]
            extra["sessions_cached"] = sessions["cached"]
        durability = self.section("durability")
        if durability is not None:
            extra["wal_records"] = durability["wal_records"]
            extra["wal_bytes"] = durability["wal_bytes"]
            extra["wal_truncated"] = durability["wal_truncated"]
            extra["recovery_seconds"] = durability["recovery_seconds"]
            extra["wal_compactions"] = durability["compactions"]
            extra["wal_write_failures"] = durability["write_failures"]
        engine = self.section("engine")
        if engine is not None:
            extra["engine_pool_hits"] = engine.pools.hits
            extra["engine_pool_misses"] = engine.pools.misses
            extra["engine_store_hits"] = engine.stores.hits
            extra["engine_store_misses"] = engine.stores.misses
        if self.telemetry is not None and self.telemetry.tracing:
            extra["traces_recorded"] = (
                self.telemetry.buffer.snapshot()["recorded"]
            )
        return extra

    def server_stats(self, base: dict[str, Any]) -> dict[str, Any]:
        """The ``"server"`` stats section: *base* (the transport's own
        identity facts) merged with every registered service section.

        Key shapes match the pre-registry hand-assembled dicts exactly;
        a ``tracing`` key appears only on an armed server, so disarmed
        stats responses stay byte-identical.
        """
        stats = dict(base)
        for name in ("sessions", "auth", "quota", "durability", "lifecycle"):
            value = self.section(name)
            if value is not None:
                stats[name] = value
        metrics = self.section("metrics")
        if metrics is not None:
            stats.update(metrics)
        scheduler = self.section("scheduler")
        if scheduler is not None:
            stats["scheduler"] = scheduler
        if self.telemetry is not None and self.telemetry.tracing:
            stats["tracing"] = self.telemetry.describe()
        return stats
