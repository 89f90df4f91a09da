"""The multi-tenant HTTP/JSON front door over the shared dispatcher.

``repro-serve --http HOST:PORT`` serves the same schema-v2 request
objects as stdio and TCP, mapped onto routes — every request still goes
through the one transport-agnostic
:class:`~repro.service.serve.Dispatcher` and the sharded scheduler, so
the response *payloads* are byte-identical across all three transports
(the HTTP body is exactly the JSON line TCP would have written).  What
HTTP adds is the tenant model: bearer-token auth, per-user token-bucket
quotas, durable named sessions, and proper status codes.

Routes (stdlib ``ThreadingHTTPServer``; one thread per connection,
analytics still run on the shared sharded worker pool):

=====================================  =======================================
``GET  /healthz``                      liveness + dataset list (no auth)
``GET  /metrics``                      Prometheus text exposition (no auth)
``POST /v2/summary|explore|guidance``  the analytical kinds; body is the
                                       wire request object (``kind``
                                       optional, filled from the route)
``POST /v2/admin/<kind>``              ping / load_csv / datasets /
                                       algorithms / stats / shutdown
``POST   /v2/sessions``                create a named session
``GET    /v2/sessions``                list the caller's sessions
``GET    /v2/sessions/<name>``         fetch one session record
``POST   /v2/sessions/<name>/step``    merge overrides into the base
                                       request, dispatch, advance
``DELETE /v2/sessions/<name>``         delete a session
=====================================  =======================================

A POST body is decoded by the dispatcher like a TCP line (a blank body
is the empty request object, whose ``kind`` the route fills), and the
response body is the line TCP would write.  Status codes are derived
from the response payload, so the error bytes stay transport-identical
and only the HTTP envelope differs: 400 bad request (schema/parameter
errors), 401 ``AuthError``, 404 unknown route/session, 413 body too
large, 429 ``QuotaExceeded``, 503 ``Overloaded`` / ``ShuttingDown``.  Every 503 (and every 429 on a
quota-enabled server) carries a ``Retry-After`` header so plain HTTP
clients get the same machine-readable backoff hint
:class:`~repro.server.client.RetryingClient` derives itself.

Shutdown (``POST /v2/admin/shutdown`` with ``scope="server"``) answers
the ack first, then drains the shard queues (bounded by
``drain_timeout``) before the listener stops — mirroring the TCP tier's
graceful drain.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from repro.common.errors import ReproError, SchemaError
from repro.server.lifecycle import READY
from repro.server.metrics import prometheus_text
from repro.server.network import NetworkServer
from repro.service.api import SCHEMA_VERSION, error_payload
from repro.service.engine import Engine
from repro.service.serve import (
    ANALYTIC_KINDS,
    DEFAULT_MAX_LINE_BYTES,
    SERVER_SCOPE,
    wire_line,
)
from repro.web.auth import ANONYMOUS_USER, parse_bearer
from repro.web.sessions import SessionService, SessionStore

#: error_type -> HTTP status; anything else that is ``kind="error"``
#: is a plain bad request.
STATUS_BY_ERROR_TYPE: Mapping[str, int] = {
    "AuthError": 401,
    "UnknownSessionError": 404,
    "LineTooLong": 413,
    "QuotaExceeded": 429,
    "InjectedFault": 500,
    "PoisonedRequest": 500,
    "Overloaded": 503,
    "ShuttingDown": 503,
    "DeadlineExceeded": 504,
}

#: ``Retry-After`` seconds on 503 responses.  Overload is transient by
#: construction (bounded shard queues drain quickly) and a draining
#: server is about to be replaced, so the hint is deliberately short.
RETRY_AFTER_SECONDS_503 = 1

#: Admin kinds the ``/v2/admin/<kind>`` route refuses to alias (they
#: have first-class routes of their own).
_ADMIN_EXCLUDED = ANALYTIC_KINDS


def status_for(payload: Any) -> int:
    """The HTTP status a wire response payload maps to."""
    if isinstance(payload, dict) and payload.get("kind") == "error":
        return STATUS_BY_ERROR_TYPE.get(payload.get("error_type"), 400)
    return 200


#: Bound on a caller-supplied ``X-Request-Id`` (the id lands verbatim in
#: traces and structured log lines, so it must stay printable and short).
_MAX_REQUEST_ID_LEN = 128


def _clean_request_id(value: str | None) -> str | None:
    """A usable trace id from the ``X-Request-Id`` header, or ``None``."""
    if value is None:
        return None
    value = value.strip()
    if not value or len(value) > _MAX_REQUEST_ID_LEN:
        return None
    if any(c.isspace() or not c.isprintable() for c in value):
        return None
    return value


class _Route:
    """One resolved request: handler + path arguments."""

    __slots__ = ("call", "args", "kind_label")

    def __init__(self, call: Callable, args: tuple, kind_label: str) -> None:
        self.call = call
        self.args = args
        self.kind_label = kind_label


class WebServer(NetworkServer):
    """The HTTP front door: routes over the shared serving stack.

    The stack (scheduler, dispatcher with the optional auth and quota
    services, metrics, telemetry registry) and its options are
    :class:`~repro.server.network.NetworkServer`'s; the byte bound is
    named ``max_body_bytes`` here.  On top of it this tier keeps a
    :class:`SessionService` over *session_dir*.  Run it blocking via
    :meth:`serve`, or from synchronous tests/benchmarks via
    :class:`~repro.server.network.BackgroundServer`.
    """

    transport = "http"
    bound_key = "max_body_bytes"

    def __init__(
        self,
        engine: Engine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = DEFAULT_MAX_LINE_BYTES,
        session_dir: str | None = None,
        **options: Any,
    ) -> None:
        super().__init__(
            engine, host, port, max_line_bytes=max_body_bytes, **options
        )
        if session_dir is None:
            import tempfile

            # Ephemeral store: sessions work but do not survive restart;
            # pass --session-dir for durability.
            session_dir = tempfile.mkdtemp(prefix="repro-sessions-")
        self.sessions = SessionService(
            SessionStore(session_dir), self.dispatcher
        )
        self.registry.register("sessions", self.sessions.store.stats)
        # Per-handler-thread request context (the X-Request-Id header);
        # each HTTP request runs entirely on one handler thread.
        self._request_context = threading.local()
        self._httpd: ThreadingHTTPServer | None = None
        # Held from the first request_stop on: one drain per server.
        self._stopping = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def _serve(self, ready: Callable[[Any], None] | None) -> None:
        class _Server(ThreadingHTTPServer):
            daemon_threads = True  # a wedged client cannot block exit

        self._httpd = _Server((self.host, self.port), _Handler)
        self._httpd.web = self  # type: ignore[attr-defined]
        self._bound(self._httpd.server_address[1], ready)
        self._httpd.serve_forever(poll_interval=0.05)
        self._httpd.server_close()

    def request_stop(self) -> None:
        """Drain, then stop the listener.

        Safe from handler threads: the sequence runs on a helper thread
        because ``shutdown()`` blocks until ``serve_forever`` exits.
        """
        if not self._stopping.acquire(blocking=False):
            return

        def _stop() -> None:
            self.drain()
            if self._httpd is not None:
                self._httpd.shutdown()

        threading.Thread(
            target=_stop, name="repro-web-stop", daemon=True
        ).start()

    # -- routing -------------------------------------------------------------

    def resolve(self, method: str, path: str) -> _Route | None:
        parts = [part for part in path.split("/") if part]
        if method == "GET" and path == "/healthz":
            return _Route(self._route_healthz, (), "healthz")
        if method == "GET" and path == "/metrics":
            return _Route(self._route_metrics, (), "metrics")
        if len(parts) >= 2 and parts[0] == "v2":
            if method == "POST" and len(parts) == 2 and (
                parts[1] in ANALYTIC_KINDS
            ):
                return _Route(self._route_request, (parts[1],), parts[1])
            if method == "POST" and len(parts) == 3 and (
                parts[1] == "admin"
            ):
                return _Route(self._route_admin, (parts[2],), parts[2])
            if parts[1] == "sessions":
                if len(parts) == 2:
                    if method == "POST":
                        return _Route(
                            self._route_session_create, (), "session"
                        )
                    if method == "GET":
                        return _Route(
                            self._route_session_list, (), "session"
                        )
                if len(parts) == 3 and method == "GET":
                    return _Route(
                        self._route_session_get, (parts[2],), "session"
                    )
                if len(parts) == 3 and method == "DELETE":
                    return _Route(
                        self._route_session_delete, (parts[2],), "session"
                    )
                if (
                    len(parts) == 4
                    and parts[3] == "step"
                    and method == "POST"
                ):
                    return _Route(
                        self._route_session_step, (parts[2],), "session"
                    )
        return None

    # -- route handlers ------------------------------------------------------
    # Each returns (status, payload, content_type); content_type None
    # means JSON.  ``token`` is the bearer token (or None), ``body`` the
    # decoded request object (None for GET/DELETE and a blank body).

    def _route_healthz(self, token, body):
        # Readiness, not just liveness: 200 only in the "ready" state.
        # A booting server replaying its WAL answers 503 + "recovering"
        # so load balancers hold traffic; a draining one answers 503 +
        # "draining" so they stop sending new work before the exit.
        state = self.lifecycle.state
        ready = state == READY
        payload = {
            "status": "ok" if ready else "unavailable",
            "state": state,
            "schema_version": SCHEMA_VERSION,
            "transport": "http",
            "uptime_seconds": self.uptime_seconds(),
            "datasets": self.engine.dataset_names(),
            "auth_required": self.auth is not None,
        }
        return (200 if ready else 503), payload, None

    def _route_metrics(self, token, body):
        # Gauge names (scheduler_*, shard_queue_depth{shard=...},
        # singleflight_*, quota_*, auth_rejected, sessions_*,
        # engine_*) are defined once, in the telemetry registry.
        text = prometheus_text(self.metrics, self.registry.prometheus_extra())
        return 200, text, "text/plain; version=0.0.4; charset=utf-8"

    def _identify(self, token) -> str:
        """The session/tenant identity of a request (may raise AuthError)."""
        if self.auth is None:
            return ANONYMOUS_USER
        return self.auth.authenticate(token)

    def _route_request(self, token, body, kind, prefix="/v2/"):
        """Serve *body* as one *kind* request through the dispatcher; the
        route fills a missing ``kind`` and refuses another one."""
        payload = {} if body is None else body
        payload.setdefault("kind", kind)
        if payload["kind"] != kind:
            raise SchemaError("route %s%s cannot carry kind=%r"
                              % (prefix, kind, payload["kind"]))
        if token is not None and "auth" not in payload:
            payload["auth"] = token
        outcome = self.dispatcher.dispatch_payload(
            payload,
            request_id=getattr(self._request_context, "request_id", None),
        )
        response = outcome.response
        if hasattr(response, "result"):  # scheduler future
            response = response.result()
        return status_for(response), response, None

    def _route_admin(self, token, body, kind):
        if kind in _ADMIN_EXCLUDED:
            raise SchemaError(
                "kind %r is served at /v2/%s, not under /v2/admin/"
                % (kind, kind)
            )
        return self._route_request(token, body, kind, "/v2/admin/")

    # -- session routes ------------------------------------------------------

    def _route_session_create(self, token, body):
        user = self._identify(token)
        if not isinstance(body, dict):
            raise SchemaError("session create needs a JSON object body")
        name = body.get("name")
        base = body.get("base")
        record = self.sessions.create(user, name, base)
        return 200, record.to_dict(), None

    def _route_session_list(self, token, body):
        user = self._identify(token)
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "kind": "sessions",
            "user": user,
            "sessions": self.sessions.list(user),
        }, None

    def _route_session_get(self, token, body, name):
        user = self._identify(token)
        return 200, self.sessions.get(user, name).to_dict(), None

    def _route_session_delete(self, token, body, name):
        user = self._identify(token)
        self.sessions.delete(user, name)
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "kind": "session_deleted",
            "name": name,
        }, None

    def _route_session_step(self, token, body, name):
        user = self._identify(token)
        response = self.sessions.step(
            user, name, body if body is not None else {}, auth_token=token
        )
        return status_for(response), response, None


class _Handler(BaseHTTPRequestHandler):
    """Thin per-request adapter: read body, resolve route, write JSON."""

    protocol_version = "HTTP/1.1"
    timeout = 60  # a stalled client cannot pin its handler thread forever
    # Headers and body go out as two writes; with Nagle on, the body
    # would wait for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True

    @property
    def web(self) -> WebServer:
        return self.server.web  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # Access logging would be per-request stderr noise; the metrics
        # histograms carry the same information queryably.
        pass

    # -- plumbing ------------------------------------------------------------

    def _write_json(self, status: int, payload: Any) -> None:
        body = wire_line(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if status == 429 and self.web.quota is not None:
            # RFC 6585: tell throttled clients when the window resets.
            self.send_header(
                "Retry-After",
                str(max(1, round(self.web.quota.seconds_until_reset()))),
            )
        elif status == 503:
            # Overloaded / ShuttingDown / not-ready healthz: same
            # machine-readable backoff hint the 429 path already gives.
            self.send_header("Retry-After", str(RETRY_AFTER_SECONDS_503))
        self.end_headers()
        self.wfile.write(body)

    def _write_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict[str, Any] | None:
        """Frame the body by its Content-Length and hand it to the
        dispatcher's decoder (None for no body or a blank one)."""
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            return None
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            raise SchemaError("invalid Content-Length header")
        if length > self.web.max_line_bytes:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            raise self.web.dispatcher.oversized_error()
        raw = self.rfile.read(length)
        if len(raw) < length:
            raise SchemaError("request body was truncated")
        return self.web.dispatcher.decode(raw)

    # -- request entry points ------------------------------------------------

    def _serve(self, method: str) -> None:
        started = time.perf_counter()
        web = self.web
        # Honor a caller-supplied trace id (set unconditionally: handler
        # threads are reused, so a request without the header must not
        # inherit the previous request's id).
        web._request_context.request_id = _clean_request_id(
            self.headers.get("X-Request-Id")
        )
        route = web.resolve(method, self.path.split("?", 1)[0])
        kind_label = route.kind_label if route is not None else "invalid"
        try:
            if route is None:
                status, payload, content_type = 404, error_payload(
                    SchemaError("no route for %s %s" % (method, self.path))
                ), None
            else:
                token = parse_bearer(self.headers.get("Authorization"))
                body = self._read_body() if method in ("POST", "PUT") else None
                status, payload, content_type = route.call(
                    token, body, *route.args
                )
        except ReproError as error:
            payload, content_type = error_payload(error), None
            status = status_for(payload)
        except Exception as error:  # belt and suspenders: never a traceback
            status, payload, content_type = 500, error_payload(error), None
        # Counted before the write: a client that holds its response and
        # scrapes /metrics must find it there.  A write that then fails
        # stays counted.
        web.metrics.observe(kind_label, time.perf_counter() - started)
        web.metrics.incr("responses")
        web.metrics.incr("http_%d" % (status // 100 * 100))
        try:
            if content_type is None:
                self._write_json(status, payload)
            else:
                self._write_text(status, payload, content_type)
        except (BrokenPipeError, ConnectionResetError):
            return
        # Ack-then-stop ordering: a server-scope shutdown begins only
        # after its acknowledgement is on the wire, so the requesting
        # client always sees the response before the listener dies.
        if (
            isinstance(payload, dict)
            and payload.get("kind") == "shutdown_ack"
            and payload.get("scope") == SERVER_SCOPE
        ):
            web.request_stop()

    def do_GET(self) -> None:
        self._serve("GET")

    def do_POST(self) -> None:
        self._serve("POST")

    def do_DELETE(self) -> None:
        self._serve("DELETE")
