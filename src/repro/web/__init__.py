"""The multi-tenant web tier: HTTP front door, auth, quotas, sessions.

Layering (top to bottom)::

    repro.web.http      routes: /healthz /metrics /v2/<kind> /v2/sessions
    repro.web.auth      bearer-token identity (constant-time, revocable)
    repro.web.quota     per-user windowed token buckets
    repro.web.sessions  durable named exploration sessions (atomic JSON)
    repro.service.serve the shared transport-agnostic Dispatcher
    repro.server.*      sharded scheduler, single-flight, metrics
    repro.service.*     engine, strict schema-v2 API

Everything is stdlib-only, and every HTTP request flows through the same
:class:`~repro.service.serve.Dispatcher` as stdio and TCP — the auth and
quota services plug into the dispatcher itself, so enforcement (and the
response bytes) are identical on every transport.
"""

from repro.web.auth import (
    ANONYMOUS_USER,
    AuthService,
    identify,
    parse_bearer,
    validate_name,
    write_token_file,
)
from repro.web.http import WebServer, status_for
from repro.web.quota import QuotaService, parse_quota_spec
from repro.web.sessions import SessionRecord, SessionService, SessionStore

__all__ = [
    "ANONYMOUS_USER",
    "AuthService",
    "QuotaService",
    "SessionRecord",
    "SessionService",
    "SessionStore",
    "WebServer",
    "identify",
    "parse_bearer",
    "parse_quota_spec",
    "status_for",
    "validate_name",
    "write_token_file",
]
