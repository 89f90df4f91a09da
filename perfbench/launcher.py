"""Start ``repro-serve`` with timers around each layer's public calls.

    python3 perfbench/launcher.py SPANS.json -- [repro-serve arguments]

Before calling :func:`repro.cli.serve_main` unchanged, this wraps the
layers' entry points (the table in :func:`install`) with timers.  Spans
stay in memory and are written to ``SPANS.json`` once ``serve_main``
returns, i.e. after a server-scope shutdown.

Spans of one request share a request id:

* TCP: ``t<connection>:<frame>`` -- connections numbered in accept order,
  frames in arrival order (a connection is served strictly in order, so
  the client derives the same id from its own send order);
* HTTP: the ``X-Request-Id`` header;
* ``boot`` for work before the first request (CSV preload, snapshots).

The id follows the request across threads: the framing iterator hands
it to the dispatcher through the frame object, the dispatcher's thread
hands it to the scheduler, and the scheduler worker picks it up through
the payload object the engine receives.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable


class Recorder:
    """In-memory span store plus the per-thread request context."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.events: list[dict[str, Any]] = []
        self.coverage: dict[str, float] = {}
        self.ids = itertools.count()
        self.connections = itertools.count()
        self.local = threading.local()
        #: id(frame) -> (frame, rid); id(payload) -> (payload, rid, t).
        #: The objects are held so their ids cannot be reused meanwhile.
        self.frames: dict[int, tuple[Any, str]] = {}
        self.payloads: dict[int, tuple[Any, str, float]] = {}

    @property
    def rid(self) -> str:
        return getattr(self.local, "rid", None) or "boot"

    def stack(self) -> list[tuple[int, str]]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, *, rid: str,
            span_id: int | None = None, parent: int | None = None,
            root: bool = False, value: Any = None) -> None:
        self.spans.append({
            "id": next(self.ids) if span_id is None else span_id,
            "parent": parent, "rid": rid, "name": name,
            "start": start, "end": end, "root": root, "value": value,
        })

    def event(self, name: str, value: Any) -> None:
        self.events.append({"rid": self.rid, "name": name, "value": value})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": self.spans,
                "events": self.events,
                "coverage": self.coverage,
            }, handle)


def timed(rec: Recorder, name: str, fn: Callable,
          value: Callable[[Any], Any] | None = None) -> Callable:
    """Record a span around *fn*; a call nested in a span of the same
    name (``dispatch_line`` -> ``dispatch_payload``) is left untimed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = next(rec.ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            rec.add(name, start, end, rid=rec.rid, span_id=span_id,
                    parent=parent,
                    value=value(result) if value and result is not None
                    else None)

    return wrapper


def accumulated(rec: Recorder, fn: Callable) -> Callable:
    """Sum *fn*'s outermost call time per request, without a span each
    (coverage lookups run thousands of times per request)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth = getattr(rec.local, "coverage_depth", 0)
        if depth:
            return fn(*args, **kwargs)
        rec.local.coverage_depth = 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.local.coverage_depth = 0
            rid = rec.rid
            rec.coverage[rid] = rec.coverage.get(rid, 0.0) + (
                perf_counter() - start
            )

    return wrapper


def observed(rec: Recorder, name: str, fn: Callable,
             value: Callable[[Any], Any]) -> Callable:
    """Record an event with ``value(result)`` after each call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.event(name, value(result))
        return result

    return wrapper


def with_request(rec: Recorder, fn: Callable,
                 rid_of: Callable[..., str | None]) -> Callable:
    """Run *fn* with the thread's request id set from its arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        previous = getattr(rec.local, "rid", None)
        rec.local.rid = rid_of(*args) or previous
        try:
            return fn(*args, **kwargs)
        finally:
            rec.local.rid = previous

    return wrapper


def install(rec: Recorder) -> None:
    import repro.cli
    from repro.core.answers import AnswerSet
    from repro.core.problem import ProblemInstance
    from repro.core.semilattice import ClusterPool
    from repro.durability.manager import DurabilityManager
    from repro.durability.wal import WriteAheadLog
    from repro.interactive import guidance
    from repro.interactive.precompute import SolutionStore
    from repro.query import csv_io
    from repro.server import tcp
    from repro.server.scheduler import ShardedScheduler
    from repro.service import api
    from repro.service.engine import Engine
    from repro.service.serve import Dispatcher
    from repro.web import http

    def wrap(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        setattr(owner, attr, make(getattr(owner, attr)))

    def span(name: str, value: Callable[[Any], Any] | None = None):
        return lambda fn: timed(rec, name, fn, value)

    # -- transports: request roots ------------------------------------------
    tcp._iter_wire_lines = framed_by(rec, tcp._iter_wire_lines)

    def http_root(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(handler):
            rid = handler.headers.get("X-Request-Id") or "http"
            rec.local.rid = rid
            span_id = next(rec.ids)
            start = perf_counter()
            try:
                return fn(handler)
            finally:
                rec.add("web.http", start, perf_counter(), rid=rid,
                        span_id=span_id, root=True)
                rec.local.rid = None

        return wrapper

    wrap(http._Handler, "do_POST", http_root)

    # -- dispatcher and scheduler -------------------------------------------
    def frame_rid(_self, line, *_rest):
        entry = rec.frames.get(id(line))
        return entry[1] if entry is not None else None

    wrap(Dispatcher, "dispatch_line", lambda fn: with_request(
        rec, timed(rec, "service.serve.dispatch", fn), frame_rid))
    wrap(Dispatcher, "dispatch_payload", span("service.serve.dispatch"))

    def scheduler_submit(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, payload, *args, **kwargs):
            rec.payloads[id(payload)] = (payload, rec.rid, perf_counter())
            return fn(self, payload, *args, **kwargs)

        return wrapper

    wrap(ShardedScheduler, "submit", scheduler_submit)

    # -- engine ---------------------------------------------------------------
    submit_span = span("service.engine.submit")

    def engine_submit(fn: Callable) -> Callable:
        inner = submit_span(fn)

        @functools.wraps(fn)
        def wrapper(self, payload, *args, **kwargs):
            entry = rec.payloads.pop(id(payload), None)
            if entry is None:
                return inner(self, payload, *args, **kwargs)
            _payload, rid, submitted = entry
            rec.add("server.scheduler.queue_wait", submitted, perf_counter(),
                    rid=rid)
            rec.local.rid = rid
            try:
                return inner(self, payload, *args, **kwargs)
            finally:
                rec.local.rid = None

        return wrapper

    wrap(Engine, "submit_dict", engine_submit)
    wrap(Engine, "append_rows", span(
        "service.engine.append", lambda result: result["pools_maintained"]))
    wrap(Engine, "checkout_pool", lambda fn: observed(
        rec, "service.engine.pool_hit", fn, lambda result: result[2]))
    wrap(Engine, "checkout_store", lambda fn: observed(
        rec, "service.engine.store_hit", fn, lambda result: result[2]))
    # Serialization: the response objects' to_dict (SummaryResponse
    # overrides the base; the nested base call is not timed twice).
    wrap(api._WireMessage, "to_dict", span("service.engine.serialize"))
    wrap(api.SummaryResponse, "to_dict", span("service.engine.serialize"))

    # -- core and interactive -------------------------------------------------
    wrap(ClusterPool, "__init__", span("core.semilattice.pool_build"))
    wrap(ClusterPool, "extended", span("core.semilattice.pool_extend"))
    wrap(ClusterPool, "coverage", lambda fn: accumulated(rec, fn))
    wrap(ClusterPool, "cluster", lambda fn: accumulated(rec, fn))
    wrap(ProblemInstance, "solve", span(
        "core.problem.solve",
        lambda solution: [
            float((solution.stats or {}).get("argmax_evals", 0)),
            float((solution.stats or {}).get("argmax_pops", 0)),
        ]))
    wrap(SolutionStore, "__init__", span("interactive.precompute.store_build"))
    wrap(SolutionStore, "retrieve", span("interactive.precompute.retrieve"))
    wrap(guidance, "build_guidance_view", span("interactive.guidance.view"))

    # -- set-up path and durability -------------------------------------------
    read_csv = span("query.csv_io.read")(csv_io.read_csv)
    csv_io.read_csv = read_csv
    repro.cli.read_csv = read_csv
    from_rows = AnswerSet.__dict__["from_rows"].__func__
    AnswerSet.from_rows = classmethod(
        timed(rec, "core.answers.from_rows", from_rows)
    )
    wrap(AnswerSet, "extended", span("core.answers.extend"))
    wrap(DurabilityManager, "record_register",
         span("durability.record_register"))
    wrap(DurabilityManager, "record_append", span("durability.record_append"))
    wrap(DurabilityManager, "maybe_compact",
         span("durability.compact", lambda compacted: compacted))

    def wal_append(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, payload):
            before = self.bytes
            result = fn(self, payload)
            rec.event("durability.wal_append",
                      [self.bytes - before, len(payload.get("rows", ()))])
            return result

        return wrapper

    wrap(WriteAheadLog, "append", wal_append)


def framed_by(rec: Recorder, iter_frames: Callable) -> Callable:
    """Wrap the TCP framing iterator so each frame is a request root.

    The handler asks for the next frame only after writing the previous
    response, so a frame's span runs from its yield until the iterator
    is resumed (or closed).
    """

    async def traced(reader, max_line_bytes):
        connection = next(rec.connections)
        seq = 0
        async for frame in iter_frames(reader, max_line_bytes):
            rid = "t%d:%d" % (connection, seq)
            seq += 1
            rec.frames[id(frame)] = (frame, rid)
            span_id = next(rec.ids)
            start = perf_counter()
            try:
                yield frame
            finally:
                rec.frames.pop(id(frame), None)
                rec.add("server.tcp", start, perf_counter(), rid=rid,
                        span_id=span_id, root=True)

    return traced


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py SPANS.json -- [repro-serve args]",
              file=sys.stderr)
        return 2
    from repro.cli import serve_main

    rec = Recorder()
    install(rec)
    try:
        return serve_main(argv[2:])
    finally:
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
