"""Transport-agnostic JSON-lines dispatch — the core behind ``repro-serve``.

One request object per input line, one response object per output line,
in order.  :class:`Dispatcher` is the one decoder every transport hands
its request bytes to (:meth:`Dispatcher.decode`) and :func:`wire_line`
the one encoder whose bytes every transport writes back: the stdio loop
(:func:`serve`, over binary streams) and the network servers
(:mod:`repro.server.network`, framed by TCP and HTTP).  Besides the
three analytical kinds from :mod:`repro.service.api` it answers a few
admin kinds so a client can drive a cold server end to end:

``{"kind": "ping"}``
    -> ``{"kind": "pong", ...}`` (liveness / version probe).
``{"kind": "load_csv", "path": ..., "name"?: ..., "sql"?: ...}``
    Load a CSV (optionally through the restricted SQL template) and
    register it as a dataset.
``{"kind": "append_rows", "dataset": ..., "rows": [[...], ...], "values": [...]}``
    Append rows to a live dataset -> ``{"kind": "rows_appended", ...}``;
    cached pools are carried over and the dataset version is bumped so
    stale cached state is unreachable.
``{"kind": "datasets"}`` / ``{"kind": "algorithms"}`` / ``{"kind": "stats"}``
    Introspection: registered datasets, the algorithm registry with
    metadata, engine cache counters (plus, on a network server, the
    transport counters and scheduler/latency metrics).
``{"kind": "shutdown", "scope"?: "session" | "server"}``
    Deterministic termination: the loop (or TCP connection) answers
    ``shutdown_ack`` and ends the session; ``scope="server"`` also stops
    the whole network server.

Hostile input never kills the loop: malformed JSON, lines longer than
``max_line_bytes`` (``error_type="LineTooLong"``), and undecodable bytes
all produce ``kind="error"`` responses so a misbehaving client sees its
own mistakes inline, and the next line is served as usual.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, IO

from repro.common.budget import Budget
from repro.common.errors import (
    AuthError,
    LineTooLong,
    QuotaExceeded,
    ReproError,
    SchemaError,
    ShuttingDown,
)
from repro.core.registry import algorithm_infos
from repro.obs import Telemetry
from repro.service.api import SCHEMA_VERSION, error_payload
from repro.service.engine import CacheStats, Engine

#: Request kinds that cost real computation — the ones per-user quotas
#: are charged against (admin/introspection kinds stay free).
ANALYTIC_KINDS = frozenset({"summary", "explore", "guidance"})

#: Default bound on one request line.  Counted in bytes of UTF-8; a line
#: beyond it is discarded (never buffered whole) and answered with
#: ``error_type="LineTooLong"``.
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: ``shutdown`` scopes: end just this session, or the whole server.
SESSION_SCOPE = "session"
SERVER_SCOPE = "server"


def wire_line(payload: Any) -> bytes:
    """The bytes of one response line: sorted-key JSON and a newline.

    Every transport writes exactly these (an HTTP body is one line), so
    response bytes agree across stdio, TCP and HTTP by construction.
    """
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def _status_of(response: Any) -> str:
    """A trace's terminal status: ``"ok"`` or the error type."""
    if isinstance(response, dict) and response.get("kind") == "error":
        return str(response.get("error_type") or "error")
    return "ok"


def _cache_stats_dict(stats: CacheStats) -> dict[str, Any]:
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "coalesced": stats.coalesced,
        "evictions": stats.evictions,
        "size": stats.size,
        "hit_rate": stats.hit_rate,
    }


@dataclass
class DispatchOutcome:
    """What one dispatched line amounts to.

    ``response`` is the payload to write back (``None`` for blank lines),
    or a :class:`concurrent.futures.Future` resolving to it when the
    dispatcher's ``submit`` hook defers computation (the TCP scheduler
    path).  ``shutdown`` is ``None`` or the acknowledged scope; the
    transport ends the session (and, for ``"server"``, the server) after
    writing the response.  ``kind`` echoes the request kind when one could
    be parsed (``"invalid"`` otherwise) — transports key latency metrics
    on it.
    """

    response: Any = None
    shutdown: str | None = None
    kind: str | None = None

    @classmethod
    def refused(cls, error: ReproError) -> "DispatchOutcome":
        """The answer to a request refused before it had a kind."""
        return cls(error_payload(error), kind="invalid")


class Dispatcher:
    """Shared per-line request handling for every transport.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.service.engine.Engine`.
    max_line_bytes:
        Reject (with ``LineTooLong``) any request line longer than this.
    submit:
        Hook for the analytical kinds (summary/explore/guidance).  Defaults
        to ``engine.submit_dict`` (synchronous, in-order — the stdio loop);
        a network server passes its sharded scheduler's ``submit``, which
        returns a :class:`~concurrent.futures.Future` the transport awaits.
        Admin kinds are always handled synchronously inside ``dispatch``
        (the TCP server therefore runs the whole dispatch on an executor
        thread — ``load_csv`` does real I/O and parsing).
    extra_stats:
        Optional callable merged into ``stats`` responses under the
        ``"server"`` key (a network server's transport, scheduler and
        latency metrics).
    auth:
        Optional :class:`repro.web.auth.AuthService`.  When set, every
        request except ``ping`` (the liveness probe, mirroring the open
        ``/healthz`` route) must carry a valid ``auth`` envelope field;
        failures become ``error_type="AuthError"`` responses.  Unset —
        the backward-compatible open mode — any ``auth`` field is
        popped and ignored.
    quota:
        Optional :class:`repro.web.quota.QuotaService`.  Charged per
        authenticated user (or the shared anonymous identity on an open
        server) for the analytical kinds only; an empty bucket becomes
        an ``error_type="QuotaExceeded"`` response.
    default_deadline_ms:
        Optional server-side deadline applied to every analytical
        request that does not carry its own ``deadline_ms`` envelope
        field (the ``repro-serve --request-timeout`` knob).  ``None``
        (the default) leaves undeadlined requests unbounded.
    durability:
        Optional :class:`~repro.durability.manager.DurabilityManager`.
        Only read for introspection — its counters ride in ``stats``
        responses under ``"durability"`` (absent on an in-memory
        server, so durability-off wire bytes are unchanged).
    lifecycle:
        Optional :class:`~repro.server.lifecycle.ServerLifecycle`.
        When it reports draining, mutations are rejected like after a
        locally-acked server shutdown (see below).
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When present *and*
        armed, each analytical request gets a
        :class:`~repro.obs.tracing.RequestTrace` born here at the edge
        (the ``request_id`` argument to :meth:`dispatch_payload` — the
        HTTP ``X-Request-Id`` header — overrides the generated id),
        threaded to the ``submit`` hook, finished when the response
        resolves, and recorded in the trace ring buffer served by the
        ``trace`` admin kind.  A request carrying ``trace: true`` in its
        envelope additionally gets the trace tree inlined under an open
        ``"trace"`` key in its response.  The ``trace`` envelope field is
        *always* consumed (armed or not), so wire bytes and single-flight
        keys never depend on the telemetry switch.

    The dispatcher also counts the rejections it served (``oversized`` /
    ``undecodable`` / ``malformed`` hostile input, plus ``auth`` and
    ``quota`` denials, sync-path ``deadline`` expiries, and ``draining``
    mutation rejections); they ride in every ``stats`` response under
    ``"rejected"``.

    Once a ``shutdown`` with ``scope="server"`` has been acked (or the
    attached lifecycle reports draining), ``append_rows`` is refused
    with ``error_type="ShuttingDown"``: the drain path is about to take
    the WAL's final flush+fsync, and a mutation slipping in behind it
    would be acked yet lost on the next boot.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        submit: Callable[..., Any] | None = None,
        extra_stats: Callable[[], dict[str, Any]] | None = None,
        auth=None,
        quota=None,
        default_deadline_ms: float | None = None,
        telemetry: Telemetry | None = None,
        durability=None,
        lifecycle=None,
    ) -> None:
        if max_line_bytes < 2:
            raise ValueError(
                "max_line_bytes must be >= 2, got %d" % max_line_bytes
            )
        self.engine = engine
        self.max_line_bytes = max_line_bytes
        self._submit = submit if submit is not None else engine.submit_dict
        self._extra_stats = extra_stats
        self.auth = auth
        self.quota = quota
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                "default_deadline_ms must be positive, got %r"
                % (default_deadline_ms,)
            )
        self.default_deadline_ms = default_deadline_ms
        self.telemetry = telemetry
        self.durability = durability
        self.lifecycle = lifecycle
        self._counts_lock = threading.Lock()
        self.oversized = 0
        self.undecodable = 0
        self.malformed = 0
        self.auth_rejected = 0
        self.quota_rejected = 0
        self.deadline_exceeded = 0
        self.draining_rejected = 0
        self._draining = False

    # -- decoding ------------------------------------------------------------

    def _count(self, counter: str) -> None:
        """Count one rejection in the ``rejected`` map."""
        with self._counts_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _malformed(self, message: str) -> SchemaError:
        self._count("malformed")
        return SchemaError(message)

    def oversized_error(self) -> LineTooLong:
        """Count one request over ``max_line_bytes`` and return its error
        (a transport calls this for a request it discarded unread)."""
        self._count("oversized")
        return LineTooLong(
            "request line exceeds max_line_bytes=%d; line discarded"
            % self.max_line_bytes
        )

    def decode(self, raw: bytes) -> dict[str, Any] | None:
        """One request's bytes -> its request object (None when blank).

        The one decoder for every transport: the byte bound (a trailing
        CR or LF is framing and does not count), UTF-8, JSON and the
        object check.  A refusal is counted in ``rejected`` and raised as
        :class:`~repro.common.errors.LineTooLong` or
        :class:`~repro.common.errors.SchemaError`.
        """
        if len(raw.rstrip(b"\r\n")) > self.max_line_bytes:
            raise self.oversized_error()
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            self._count("undecodable")
            raise SchemaError("request line is not valid UTF-8") from None
        if not text:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise self._malformed("invalid JSON: %s" % error) from None
        if not isinstance(payload, dict):
            raise self._malformed("each line must be a JSON object")
        return payload

    def rejected(self) -> dict[str, int]:
        """The rejections served so far, by cause: the ``stats``
        response's ``rejected`` map and the telemetry registry's
        ``dispatcher`` section."""
        with self._counts_lock:
            return {
                "oversized": self.oversized,
                "undecodable": self.undecodable,
                "malformed": self.malformed,
                "auth": self.auth_rejected,
                "quota": self.quota_rejected,
                "deadline": self.deadline_exceeded,
                "draining": self.draining_rejected,
            }

    # -- dispatch ------------------------------------------------------------

    def dispatch_line(self, line: bytes) -> DispatchOutcome:
        """Serve one request line: decode, then route."""
        try:
            payload = self.decode(line)
        except ReproError as error:
            return DispatchOutcome.refused(error)
        if payload is None:
            return DispatchOutcome()
        return self.dispatch_payload(payload)

    def dispatch_payload(
        self, payload: dict[str, Any], request_id: str | None = None
    ) -> DispatchOutcome:
        """Serve one parsed request object (admin inline, analytics via
        the ``submit`` hook).

        The ``auth``, ``deadline_ms``, and ``trace`` envelope fields are
        consumed here — popped before the payload reaches strict request
        parsing or the single-flight key, so identical requests from
        different users (or with different deadlines, or asking for
        inline traces) still hash identically.  ``deadline_ms`` (or the
        server default) becomes a :class:`~repro.common.budget.Budget`
        handed to the ``submit`` hook; it applies to the analytical
        kinds only (admin kinds are served inline and ignore it).
        *request_id* is a transport-supplied trace id (the HTTP
        ``X-Request-Id`` header); ignored unless tracing is armed.
        """
        kind = payload.get("kind")
        kind_label = kind if isinstance(kind, str) else "invalid"
        token = payload.pop("auth", None)
        wants_trace = payload.pop("trace", None)
        if wants_trace is not None and not isinstance(wants_trace, bool):
            return DispatchOutcome(error_payload(self._malformed(
                "trace must be a boolean, got %r" % (wants_trace,)
            )), kind=kind_label)
        wants_trace = bool(wants_trace)
        deadline_ms = payload.pop("deadline_ms", None)
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or deadline_ms <= 0
        ):
            return DispatchOutcome(error_payload(self._malformed(
                "deadline_ms must be a positive number of "
                "milliseconds, got %r" % (deadline_ms,)
            )), kind=kind_label)
        user = "anonymous"
        if self.auth is not None and kind != "ping":
            try:
                user = self.auth.authenticate(token)
            except AuthError as error:
                self._count("auth_rejected")
                return DispatchOutcome(error_payload(error), kind=kind_label)
        if self.quota is not None and kind in ANALYTIC_KINDS:
            try:
                self.quota.charge(user, kind)
            except QuotaExceeded as error:
                self._count("quota_rejected")
                return DispatchOutcome(error_payload(error), kind=kind_label)
        try:
            admin = self._handle_admin(payload)
        except ReproError as error:
            return DispatchOutcome(error_payload(error), kind=kind_label)
        except OSError as error:
            return DispatchOutcome(error_payload(error), kind=kind_label)
        if admin is not None:
            response, scope = admin
            return DispatchOutcome(response, shutdown=scope, kind=kind_label)
        trace = None
        if (
            self.telemetry is not None
            and self.telemetry.tracing
            and kind in ANALYTIC_KINDS
        ):
            trace = self.telemetry.begin_trace(kind_label, user, request_id)
        effective_ms = (
            deadline_ms if deadline_ms is not None
            else self.default_deadline_ms
        )
        submit_kwargs: dict[str, Any] = {}
        if effective_ms is not None:
            submit_kwargs["budget"] = Budget.from_deadline_ms(effective_ms)
        if trace is not None:
            submit_kwargs["trace"] = trace
        response = self._submit(payload, **submit_kwargs)
        if isinstance(response, Future):
            if trace is not None:
                response = self._finalize_future(response, trace, wants_trace)
            return DispatchOutcome(response, kind=kind_label)
        if (
            effective_ms is not None
            and isinstance(response, dict)
            and response.get("error_type") == "DeadlineExceeded"
        ):
            # Sync (stdio) path only; the TCP scheduler counts its own
            # deadline events in its stats.
            self._count("deadline_exceeded")
        if trace is not None:
            tree = self.telemetry.finish_trace(trace, _status_of(response))
            if wants_trace and isinstance(response, dict):
                response = dict(response)
                response["trace"] = tree
        return DispatchOutcome(response, kind=kind_label)

    def _finalize_future(
        self, inner: Future, trace, wants_trace: bool
    ) -> Future:
        """Chain a future that finishes *trace* (and injects the inline
        tree when asked) once the scheduler resolves the response."""
        telemetry = self.telemetry
        outer: Future = Future()

        def _done(resolved: Future) -> None:
            try:
                response = resolved.result()
            except BaseException as error:
                telemetry.finish_trace(trace, type(error).__name__)
                outer.set_exception(error)
                return
            tree = telemetry.finish_trace(trace, _status_of(response))
            if wants_trace and isinstance(response, dict):
                # Coalesced followers share the leader's response object;
                # copy before growing it a per-request "trace" key.
                response = dict(response)
                response["trace"] = tree
            outer.set_result(response)

        inner.add_done_callback(_done)
        return outer

    # -- admin kinds ---------------------------------------------------------

    def _handle_admin(
        self, payload: dict[str, Any]
    ) -> tuple[dict[str, Any], str | None] | None:
        """Serve the admin kinds; None means "not an admin request"."""
        kind = payload.get("kind")
        if kind == "ping":
            from repro import __version__

            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "pong",
                "version": __version__,
            }, None
        if kind == "shutdown":
            scope = payload.get("scope", SESSION_SCOPE)
            if scope not in (SESSION_SCOPE, SERVER_SCOPE):
                raise SchemaError(
                    "shutdown scope must be %r or %r, got %r"
                    % (SESSION_SCOPE, SERVER_SCOPE, scope)
                )
            if scope == SERVER_SCOPE:
                # From the moment this ack is built, mutations are done:
                # the transport will drain and take the WAL's final
                # fsync, and an append racing that window would be acked
                # but lost on the next boot.
                self._draining = True
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "shutdown_ack",
                "scope": scope,
            }, scope
        if kind == "load_csv":
            from repro.query.csv_io import load_answer_set, read_csv
            from repro.query.sql import execute_sql

            path = payload.get("path")
            if not isinstance(path, str):
                raise SchemaError("load_csv needs a string 'path'")
            name = payload.get("name")
            if payload.get("sql"):
                relation = read_csv(path, name=name)
                dataset = relation.name
                answers = execute_sql(payload["sql"], relation).to_answer_set()
            else:
                dataset, answers = load_answer_set(path, name)
            self.engine.register_dataset(
                dataset, answers, replace=bool(payload.get("replace"))
            )
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "dataset_loaded",
                "dataset": dataset,
                "n": answers.n,
                "m": answers.m,
            }, None
        if kind == "append_rows":
            # Live update stream: append rows to a registered dataset.
            # The engine carries cached pools over (bit-identical to a
            # rebuild) and bumps the dataset
            # version so stale stores are unreachable; the response
            # reports both.  Auth-gated like every non-ping kind when the
            # server is token-secured.
            if self._draining or (
                self.lifecycle is not None and self.lifecycle.is_draining
            ):
                self._count("draining_rejected")
                raise ShuttingDown(
                    "server is draining; append_rows rejected "
                    "(reconnect to the replacement server and retry)"
                )
            dataset = payload.get("dataset")
            if not isinstance(dataset, str):
                raise SchemaError("append_rows needs a string 'dataset'")
            rows = payload.get("rows")
            if (
                not isinstance(rows, list)
                or not rows
                or not all(isinstance(row, list) for row in rows)
            ):
                raise SchemaError(
                    "append_rows needs a non-empty list of row lists "
                    "in 'rows'"
                )
            if any(
                isinstance(cell, (list, dict)) for row in rows for cell in row
            ):
                raise SchemaError(
                    "append_rows cells must be strings, numbers, booleans "
                    "or null, not JSON arrays or objects"
                )
            values = payload.get("values")
            if (
                not isinstance(values, list)
                or len(values) != len(rows)
                or not all(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    for value in values
                )
            ):
                raise SchemaError(
                    "append_rows needs numeric 'values', one per row"
                )
            result = self.engine.append_rows(
                dataset, [tuple(row) for row in rows], values
            )
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "rows_appended",
                "dataset": dataset,
                **result,
            }, None
        if kind == "datasets":
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "datasets",
                "datasets": self.engine.dataset_names(),
            }, None
        if kind == "algorithms":
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "algorithms",
                "algorithms": [info.describe() for info in algorithm_infos()],
            }, None
        if kind == "trace":
            # The trace ring buffer: N most recent + N slowest finished
            # request traces.  Auth-gated like every non-ping kind when
            # the server is token-secured; present (with armed=false and
            # empty lists) even on an untraced server so clients can
            # probe capability without special-casing errors.
            if self.telemetry is None:
                return {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "trace",
                    "armed": False,
                    "capacity": 0,
                    "recorded": 0,
                    "recent": [],
                    "slowest": [],
                }, None
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "trace",
                "armed": self.telemetry.tracing,
                **self.telemetry.traces(),
            }, None
        if kind == "stats":
            stats = self.engine.stats()
            response: dict[str, Any] = {
                "schema_version": SCHEMA_VERSION,
                "kind": "stats",
                "requests": stats.requests,
                "datasets": list(stats.datasets),
                "pools": _cache_stats_dict(stats.pools),
                "stores": _cache_stats_dict(stats.stores),
                "rejected": self.rejected(),
            }
            if self.durability is not None:
                # Present only on a durable server: in-memory stats
                # responses keep their pre-durability shape.
                response["durability"] = self.durability.stats()
            if self.lifecycle is not None:
                response["lifecycle"] = self.lifecycle.describe()
            if self._extra_stats is not None:
                response["server"] = self._extra_stats()
            return response, None
        return None


def serve(
    input_stream: IO[bytes],
    output_stream: IO[bytes],
    engine: Engine | None = None,
    dispatcher: Dispatcher | None = None,
) -> int:
    """Run the loop until EOF or ``shutdown``; returns responses written.

    Both streams are binary (``repro-serve`` passes ``sys.stdin.buffer``
    and ``sys.stdout.buffer``): each line's bytes go to
    :meth:`Dispatcher.dispatch_line` on their own, as a TCP frame does,
    so a line that is not UTF-8 is answered with its own error and the
    next line is served.

    EOF is a clean termination: the loop simply returns (a well-behaved
    client closes its end when done).  A ``{"kind": "shutdown"}`` request
    is the explicit equivalent — the loop answers ``shutdown_ack`` and
    returns, so clients that cannot close the stream (or want a positive
    acknowledgement) can still terminate the session deterministically.

    Reads are bounded: a line is pulled in chunks of at most the
    dispatcher's ``max_line_bytes`` plus a CRLF, so an oversized line is
    answered with ``LineTooLong`` and *discarded as it streams* — never
    buffered whole — matching the TCP transport's framing guarantee.
    """
    if dispatcher is None:
        dispatcher = Dispatcher(engine if engine is not None else Engine())
    budget = dispatcher.max_line_bytes + 2
    written = 0
    discarding = False
    while True:
        line = input_stream.readline(budget)
        if not line:
            break  # clean EOF
        if discarding:
            # Tail chunks of a line already answered with LineTooLong.
            discarding = not line.endswith(b"\n")
            continue
        if len(line) == budget and not line.endswith(b"\n"):
            discarding = True
            outcome = DispatchOutcome.refused(dispatcher.oversized_error())
        else:
            outcome = dispatcher.dispatch_line(line)
        response = outcome.response
        if response is None:
            continue
        if isinstance(response, Future):
            response = response.result()
        output_stream.write(wire_line(response))
        output_stream.flush()
        written += 1
        if outcome.shutdown is not None:
            break
    return written
