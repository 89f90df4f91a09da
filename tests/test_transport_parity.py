"""Error-path parity across all three transports.

The serving tier's contract is that stdio, TCP, and HTTP are *the same
server* behind different framing: a hostile or unauthorized request must
produce the **byte-identical** error body on every transport.  These
tests drive the same three probes — malformed JSON, an unauthenticated
analytic request against a token-secured server, and an oversized
request — through the real stdio loop, a real TCP server (raw socket,
so we compare actual wire bytes), and a real HTTP server (raw response
body), and require the bodies to match byte for byte.
"""

from __future__ import annotations

import io
import json
import socket

import http.client

import pytest

from repro.service.engine import Engine
from repro.service.serve import Dispatcher, serve
from repro.server import BackgroundServer, TCPServer
from repro.web.auth import AuthService
from repro.web.http import WebServer

pytestmark = pytest.mark.tier1

#: One shared byte limit: the stdio/TCP ``max_line_bytes`` and the HTTP
#: ``max_body_bytes`` must be the same number for the oversized error
#: message to agree.
LIMIT = 256

PROBES: dict[str, bytes] = {
    # Invalid JSON: every transport must answer SchemaError with the
    # parser's own position diagnostics.
    "malformed": b'{"kind": "summary",,,}',
    # Valid analytic request, no credentials, token-secured server.
    "unauthorized": json.dumps(
        {
            "schema_version": 2, "kind": "summary",
            "dataset": "d", "k": 2, "L": 2, "D": 0,
        },
        sort_keys=True,
    ).encode("utf-8"),
    # One byte limit, three framings: line too long / body too large.
    "oversized": b'{"pad": "' + b"x" * LIMIT + b'"}',
}


def _auth() -> AuthService:
    return AuthService({"parity-secret": "op"})


def _stdio_body(probe: bytes) -> bytes:
    dispatcher = Dispatcher(Engine(), max_line_bytes=LIMIT, auth=_auth())
    out = io.StringIO()
    serve(
        io.StringIO(probe.decode("utf-8", errors="surrogateescape") + "\n"),
        out,
        dispatcher=dispatcher,
    )
    return out.getvalue().encode("utf-8")


def _tcp_body(probe: bytes) -> bytes:
    server = TCPServer(Engine(), max_line_bytes=LIMIT, auth=_auth())
    with BackgroundServer(server) as handle:
        with socket.create_connection(
            (handle.host, handle.port), timeout=30.0
        ) as sock:
            sock.sendall(probe + b"\n")
            chunks = []
            while not (chunks and chunks[-1].endswith(b"\n")):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    return b"".join(chunks)


def _http_body(probe: bytes) -> bytes:
    server = BackgroundServer(
        WebServer(Engine(), port=0, max_body_bytes=LIMIT, auth=_auth())
    ).start()
    try:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30.0
        )
        try:
            connection.request(
                "POST", "/v2/summary", body=probe,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.read()
        finally:
            connection.close()
    finally:
        server.stop()


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_error_bodies_are_byte_identical_across_transports(probe):
    raw = PROBES[probe]
    stdio = _stdio_body(raw)
    tcp = _tcp_body(raw)
    http_bytes = _http_body(raw)
    assert stdio == tcp, (
        "stdio vs TCP diverged for %s: %r != %r" % (probe, stdio, tcp)
    )
    assert tcp == http_bytes, (
        "TCP vs HTTP diverged for %s: %r != %r" % (probe, tcp, http_bytes)
    )
    payload = json.loads(stdio)
    assert payload["kind"] == "error"


def test_probe_error_types():
    """Each probe exercises the error class it claims to (on one
    transport — parity extends it to the rest)."""
    expected = {
        "malformed": "SchemaError",
        "unauthorized": "AuthError",
        "oversized": "LineTooLong",
    }
    for probe, error_type in expected.items():
        payload = json.loads(_stdio_body(PROBES[probe]))
        assert payload["error_type"] == error_type, (
            probe, payload,
        )
