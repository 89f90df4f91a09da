"""Tests for the HTTP front door: routes, status codes, transport parity,
durable sessions, metrics, and graceful drain."""

from __future__ import annotations

import http.client
import io
import json
import socket
import statistics
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.server import BackgroundServer, LineClient, TCPServer
from repro.service import Engine, serve
from repro.web import (
    AuthService,
    QuotaService,
    WebServer,
    status_for,
)
from tests.conftest import (
    paper_like_answers,
    random_answer_set,
    zero_timings,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SUMMARY = {
    "schema_version": 2, "kind": "summary", "dataset": "paper",
    "k": 2, "L": 4, "D": 1,
}


def make_engine() -> Engine:
    engine = Engine()
    engine.register_dataset("paper", paper_like_answers())
    engine.register_dataset(
        "other", random_answer_set(n=40, m=4, domain=4, seed=5)
    )
    return engine


@pytest.fixture
def web_server(tmp_path):
    handles = []

    def start(engine=None, *, session_dir=None, **kwargs):
        server = WebServer(
            engine or make_engine(),
            port=0,
            session_dir=str(session_dir or tmp_path / "sessions"),
            **kwargs,
        )
        handle = BackgroundServer(server).start()
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()


def http_call(handle, method, path, body=None, token=None, timeout=30):
    """One HTTP round trip -> (status, parsed JSON or text)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        "http://%s:%d%s" % (handle.host, handle.port, path),
        data=data, method=method,
    )
    if token is not None:
        request.add_header("Authorization", "Bearer " + token)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            status = response.status
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
        content_type = error.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw.decode("utf-8")


def http_raw(handle, method, path, body=None, token=None):
    """Round trip returning (status, raw body bytes) for byte comparisons."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        "http://%s:%d%s" % (handle.host, handle.port, path),
        data=data, method=method,
    )
    if token is not None:
        request.add_header("Authorization", "Bearer " + token)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


# -- status mapping -----------------------------------------------------------


class TestStatusMapping:
    def test_success_and_plain_errors(self):
        assert status_for({"kind": "summary_response"}) == 200
        assert status_for({"kind": "error", "error_type": "SchemaError"}) \
            == 400
        assert status_for("not a dict") == 200

    @pytest.mark.parametrize("error_type,status", [
        ("AuthError", 401), ("UnknownSessionError", 404),
        ("LineTooLong", 413), ("QuotaExceeded", 429), ("Overloaded", 503),
    ])
    def test_operational_errors(self, error_type, status):
        payload = {"kind": "error", "error_type": error_type}
        assert status_for(payload) == status


# -- basic routes -------------------------------------------------------------


class TestRoutes:
    def test_healthz_lists_datasets(self, web_server):
        handle = web_server()
        status, payload = http_call(handle, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["datasets"] == ["other", "paper"]
        assert payload["auth_required"] is False

    def test_summary_route_injects_kind(self, web_server):
        handle = web_server()
        body = {key: value for key, value in SUMMARY.items()
                if key != "kind"}
        status, payload = http_call(handle, "POST", "/v2/summary", body)
        assert status == 200
        assert payload["kind"] == "summary_response"
        assert payload["solution_size"] == 2

    def test_kind_route_mismatch_is_400(self, web_server):
        handle = web_server()
        status, payload = http_call(
            handle, "POST", "/v2/explore", dict(SUMMARY)
        )
        assert status == 400
        assert payload["error_type"] == "SchemaError"

    def test_admin_routes(self, web_server):
        handle = web_server()
        status, payload = http_call(handle, "POST", "/v2/admin/ping")
        assert (status, payload["kind"]) == (200, "pong")
        status, payload = http_call(handle, "POST", "/v2/admin/datasets")
        assert payload["datasets"] == ["other", "paper"]
        status, payload = http_call(handle, "POST", "/v2/admin/stats")
        assert payload["kind"] == "stats"
        assert payload["server"]["transport"] == "http"

    def test_keep_alive_round_trips_skip_delayed_ack(self, web_server):
        """Sequential requests on one keep-alive connection: with Nagle
        on, each response body waited ~40 ms for the client's delayed ACK
        of its headers."""
        handle = web_server()
        connection = http.client.HTTPConnection(
            handle.host, handle.port, timeout=30
        )
        try:
            rounds = []
            for _ in range(20):
                start = time.perf_counter()
                connection.request("POST", "/v2/admin/ping", body=b"{}")
                response = connection.getresponse()
                payload = json.loads(response.read())
                rounds.append(time.perf_counter() - start)
                assert payload["kind"] == "pong"
        finally:
            connection.close()
        assert statistics.median(rounds) < 0.020, rounds

    def test_admin_route_refuses_analytic_kinds(self, web_server):
        handle = web_server()
        status, payload = http_call(
            handle, "POST", "/v2/admin/summary", dict(SUMMARY)
        )
        assert status == 400

    def test_unknown_route_is_404(self, web_server):
        handle = web_server()
        status, payload = http_call(handle, "GET", "/nope")
        assert status == 404
        assert payload["kind"] == "error"

    def test_unknown_dataset_is_400(self, web_server):
        handle = web_server()
        status, payload = http_call(
            handle, "POST", "/v2/summary", dict(SUMMARY, dataset="nope")
        )
        assert status == 400
        assert payload["error_type"] == "InvalidParameterError"

    def test_malformed_json_body_is_400(self, web_server):
        handle = web_server()
        request = urllib.request.Request(
            "http://%s:%d/v2/summary" % (handle.host, handle.port),
            data=b"{broken", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_oversized_body_is_413(self, web_server):
        handle = web_server(max_body_bytes=128)
        status, payload = http_call(
            handle, "POST", "/v2/summary",
            dict(SUMMARY, algorithm="z" * 500),
        )
        assert status == 413
        assert payload["error_type"] == "LineTooLong"
        # The connection-level rejection must not wedge the server.
        status, _ = http_call(handle, "GET", "/healthz")
        assert status == 200

    def test_load_csv_then_summary(self, web_server, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text(
            "era,grp,val\n1970s,student,4.5\n1980s,student,4.0\n"
            "1990s,writer,2.0\n"
        )
        handle = web_server()
        status, payload = http_call(
            handle, "POST", "/v2/admin/load_csv", {"path": str(path)}
        )
        assert (status, payload["kind"]) == (200, "dataset_loaded")
        status, payload = http_call(
            handle, "POST", "/v2/summary",
            {"schema_version": 2, "dataset": "mini", "k": 2, "L": 2, "D": 0},
        )
        assert payload["kind"] == "summary_response"


# -- auth & quota over HTTP ---------------------------------------------------


class TestHTTPAuthAndQuota:
    def test_auth_enforced_on_analytics_not_health(self, web_server):
        auth = AuthService({"tok-a": "alice"})
        handle = web_server(auth=auth)
        assert http_call(handle, "GET", "/healthz")[0] == 200
        assert http_call(handle, "GET", "/metrics")[0] == 200
        status, payload = http_call(
            handle, "POST", "/v2/summary", dict(SUMMARY)
        )
        assert status == 401
        assert payload["error_type"] == "AuthError"
        status, payload = http_call(
            handle, "POST", "/v2/summary", dict(SUMMARY), token="tok-a"
        )
        assert status == 200

    def test_quota_is_per_user(self, web_server):
        auth = AuthService({"tok-a": "alice", "tok-b": "bob"})
        quota = QuotaService(2, 3600.0)
        handle = web_server(auth=auth, quota=quota)
        for _ in range(2):
            status, _ = http_call(
                handle, "POST", "/v2/summary", dict(SUMMARY), token="tok-a"
            )
            assert status == 200
        status, payload = http_call(
            handle, "POST", "/v2/summary", dict(SUMMARY), token="tok-a"
        )
        assert status == 429
        assert payload["error_type"] == "QuotaExceeded"
        # Alice running dry must not affect Bob.
        status, _ = http_call(
            handle, "POST", "/v2/summary", dict(SUMMARY), token="tok-b"
        )
        assert status == 200

    def test_admin_kinds_are_not_quota_charged(self, web_server):
        quota = QuotaService(1, 3600.0)
        handle = web_server(quota=quota)
        for _ in range(3):
            status, _ = http_call(handle, "POST", "/v2/admin/ping")
            assert status == 200


# -- transport parity ---------------------------------------------------------


PARITY_REQUESTS = [
    {"kind": "ping"},
    dict(SUMMARY, include_elements=True, algorithm="bottom-up"),
    {"schema_version": 2, "kind": "explore", "dataset": "paper",
     "k": 3, "L": 4, "D": 1, "k_range": [2, 4], "d_values": [1, 2]},
    {"schema_version": 2, "kind": "guidance", "dataset": "paper",
     "L": 4, "k_range": [2, 4], "d_values": [1]},
    {"kind": "datasets"},
    {"kind": "frobnicate"},
    {"schema_version": 2, "kind": "summary", "dataset": "nope", "k": 1},
]


def _route_for(request: dict) -> str:
    kind = request.get("kind")
    if kind in ("summary", "explore", "guidance"):
        return "/v2/%s" % kind
    return "/v2/admin/%s" % kind


class TestTransportParity:
    def test_three_way_byte_parity(self, web_server):
        """The same requests over stdio, TCP, and HTTP produce
        byte-identical response payloads (timings zeroed)."""
        lines = "".join(
            json.dumps(request, sort_keys=True) + "\n"
            for request in PARITY_REQUESTS
        )
        stdio_out = io.StringIO()
        serve(io.StringIO(lines), stdio_out, engine=make_engine())
        stdio_responses = [
            json.dumps(zero_timings(json.loads(line)), sort_keys=True)
            for line in stdio_out.getvalue().splitlines()
        ]

        tcp_handle = BackgroundServer(
            TCPServer(make_engine(), port=0)
        ).start()
        try:
            with LineClient(tcp_handle.host, tcp_handle.port) as client:
                client.send_raw(lines.encode("utf-8"))
                tcp_responses = [
                    json.dumps(zero_timings(client.recv()), sort_keys=True)
                    for _ in PARITY_REQUESTS
                ]
        finally:
            tcp_handle.stop()

        web_handle = web_server(make_engine())
        http_responses = []
        for request in PARITY_REQUESTS:
            _, raw = http_raw(
                web_handle, "POST", _route_for(request), dict(request)
            )
            assert raw.endswith(b"\n")
            http_responses.append(json.dumps(
                zero_timings(json.loads(raw)), sort_keys=True
            ))

        assert stdio_responses == tcp_responses == http_responses

    def test_http_body_matches_golden_file(self, web_server):
        handle = web_server()
        _, raw = http_raw(
            handle, "POST", "/v2/summary",
            dict(SUMMARY, include_elements=True, algorithm="bottom-up"),
        )
        payload = zero_timings(json.loads(raw))
        golden = json.loads(
            (GOLDEN_DIR / "summary_response.json").read_text()
        )
        assert payload == golden

    def test_auth_rejection_bytes_match_tcp(self, web_server):
        """The 401 payload over HTTP is the same object TCP writes for a
        bad ``auth`` envelope field — only the envelope differs."""
        auth = AuthService({"tok-a": "alice"})
        web_handle = web_server(auth=auth)
        status, raw = http_raw(
            web_handle, "POST", "/v2/summary", dict(SUMMARY),
            token="wrong-token",
        )
        assert status == 401

        tcp_handle = BackgroundServer(
            TCPServer(make_engine(), port=0, auth=AuthService(
                {"tok-a": "alice"}
            ))
        ).start()
        try:
            with LineClient(tcp_handle.host, tcp_handle.port) as client:
                tcp_response = client.request(
                    dict(SUMMARY, auth="wrong-token")
                )
        finally:
            tcp_handle.stop()
        assert json.loads(raw) == tcp_response


# -- durable sessions over HTTP ----------------------------------------------


BASE = {"schema_version": 2, "kind": "summary", "dataset": "paper",
        "k": 2, "L": 4, "D": 1, "include_elements": True}


class TestHTTPSessions:
    def test_create_step_get_delete(self, web_server):
        handle = web_server()
        status, record = http_call(
            handle, "POST", "/v2/sessions",
            {"name": "expl", "base": dict(BASE)},
        )
        assert status == 200
        assert record["name"] == "expl"
        assert record["steps"] == []

        status, payload = http_call(
            handle, "POST", "/v2/sessions/expl/step", {"k": 3}
        )
        assert status == 200
        assert payload["kind"] == "summary_response"
        assert payload["k"] == 3

        status, record = http_call(handle, "GET", "/v2/sessions/expl")
        assert record["base"]["k"] == 3
        assert len(record["steps"]) == 1

        status, listing = http_call(handle, "GET", "/v2/sessions")
        assert listing["sessions"] == ["expl"]

        status, _ = http_call(handle, "DELETE", "/v2/sessions/expl")
        assert status == 200
        status, _ = http_call(handle, "GET", "/v2/sessions/expl")
        assert status == 404

    def test_duplicate_create_is_rejected(self, web_server):
        handle = web_server()
        body = {"name": "expl", "base": dict(BASE)}
        assert http_call(handle, "POST", "/v2/sessions", body)[0] == 200
        status, payload = http_call(handle, "POST", "/v2/sessions", body)
        assert status == 400
        assert "already exists" in payload["message"]

    def test_failed_step_leaves_session_unchanged(self, web_server):
        handle = web_server()
        http_call(handle, "POST", "/v2/sessions",
                  {"name": "expl", "base": dict(BASE)})
        status, payload = http_call(
            handle, "POST", "/v2/sessions/expl/step", {"k": "three"}
        )
        assert status == 400
        _, record = http_call(handle, "GET", "/v2/sessions/expl")
        assert record["base"]["k"] == 2
        assert record["steps"] == []

    def test_sessions_are_scoped_per_user(self, web_server):
        auth = AuthService({"tok-a": "alice", "tok-b": "bob"})
        handle = web_server(auth=auth)
        http_call(handle, "POST", "/v2/sessions",
                  {"name": "mine", "base": dict(BASE)}, token="tok-a")
        status, _ = http_call(
            handle, "GET", "/v2/sessions/mine", token="tok-b"
        )
        assert status == 404
        _, listing = http_call(
            handle, "GET", "/v2/sessions", token="tok-b"
        )
        assert listing["sessions"] == []

    def test_session_survives_server_restart(self, web_server, tmp_path):
        """Create -> drill -> restart -> resume by name: the next step
        answers byte-identically to a server that never restarted."""
        store = tmp_path / "durable"
        first = web_server(session_dir=store)
        http_call(first, "POST", "/v2/sessions",
                  {"name": "expl", "base": dict(BASE)})
        http_call(first, "POST", "/v2/sessions/expl/step", {"k": 3})
        assert first.stop(timeout=30)

        # Control: same session history on a server that stays up.
        control = web_server(session_dir=tmp_path / "control")
        http_call(control, "POST", "/v2/sessions",
                  {"name": "expl", "base": dict(BASE)})
        http_call(control, "POST", "/v2/sessions/expl/step", {"k": 3})
        _, control_raw = http_raw(
            control, "POST", "/v2/sessions/expl/step", {"D": 2}
        )

        second = web_server(session_dir=store)  # fresh engine, same store
        _, resumed_record = http_call(second, "GET", "/v2/sessions/expl")
        assert resumed_record["base"]["k"] == 3
        _, resumed_raw = http_raw(
            second, "POST", "/v2/sessions/expl/step", {"D": 2}
        )
        resumed = zero_timings(json.loads(resumed_raw))
        expected = zero_timings(json.loads(control_raw))
        # A restarted engine is cold where the control is warm; the
        # cache flag is the one legitimate difference.
        resumed["cache_hit"] = expected["cache_hit"] = False
        assert resumed == expected


# -- metrics ------------------------------------------------------------------


class TestMetricsRoute:
    def test_prometheus_scrape(self, web_server):
        quota = QuotaService(100, 3600.0)
        handle = web_server(quota=quota)
        http_call(handle, "POST", "/v2/summary", dict(SUMMARY))
        http_call(handle, "POST", "/v2/admin/ping")
        status, text = http_call(handle, "GET", "/metrics")
        assert status == 200
        assert isinstance(text, str)
        lines = text.splitlines()
        assert "# TYPE repro_responses_total counter" in lines
        assert "# TYPE repro_request_latency_seconds histogram" in lines
        assert any(
            line.startswith(
                'repro_request_latency_seconds_bucket{kind="summary"'
            )
            for line in lines
        )
        assert any(
            line.startswith('repro_request_latency_seconds_bucket')
            and 'le="+Inf"' in line for line in lines
        )
        assert "repro_quota_granted 1" in lines
        assert any(
            line.startswith("repro_shard_queue_depth{") for line in lines
        )
        # Every non-comment line is "name[{labels}] value".
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)

    def test_http_status_counters(self, web_server):
        handle = web_server()
        http_call(handle, "POST", "/v2/summary", dict(SUMMARY))
        http_call(handle, "POST", "/v2/summary",
                  dict(SUMMARY, dataset="nope"))
        _, text = http_call(handle, "GET", "/metrics")
        assert "repro_http_200_total" in text
        assert "repro_http_400_total" in text

    def test_status_counted_before_the_response_is_written(
        self, web_server, monkeypatch
    ):
        """A client holding its 400 finds it counted: the handler is held
        right after writing the response while the test scrapes /metrics
        on a new connection."""
        import threading

        from repro.web.http import _Handler

        written, release = threading.Event(), threading.Event()
        write_json = _Handler._write_json

        def write_then_hold(handler, status, payload):
            write_json(handler, status, payload)
            if status == 400:
                written.set()
                release.wait(timeout=30)

        monkeypatch.setattr(_Handler, "_write_json", write_then_hold)
        handle = web_server()
        client = threading.Thread(
            target=http_call,
            args=(handle, "POST", "/v2/summary",
                  dict(SUMMARY, dataset="nope")),
        )
        client.start()
        try:
            assert written.wait(timeout=30)
            _, text = http_call(handle, "GET", "/metrics")
        finally:
            release.set()
            client.join(timeout=30)
        assert not client.is_alive()
        assert "repro_http_400_total" in text


# -- shutdown & drain ---------------------------------------------------------


class TestShutdown:
    def test_server_scope_shutdown_stops_listening(self, web_server):
        handle = web_server()
        status, payload = http_call(
            handle, "POST", "/v2/admin/shutdown", {"scope": "server"}
        )
        assert (status, payload["kind"]) == (200, "shutdown_ack")
        assert handle.stop(timeout=30)
        with pytest.raises(OSError):
            socket.create_connection(
                (handle.host, handle.server.bound_port), timeout=0.5
            )

    def test_session_scope_shutdown_keeps_serving(self, web_server):
        handle = web_server()
        status, payload = http_call(
            handle, "POST", "/v2/admin/shutdown", {}
        )
        assert payload["scope"] == "session"
        assert http_call(handle, "GET", "/healthz")[0] == 200


class TestTCPDrain:
    def test_inflight_requests_answered_before_shutdown(self):
        """A server-scope shutdown drains queued analytics: a request
        admitted before the shutdown still gets its real response."""
        import threading

        server = TCPServer(make_engine(), port=0, shards=1)
        handle = BackgroundServer(server).start()
        slow = {"schema_version": 2, "kind": "summary", "dataset": "other",
                "k": 4, "L": 30, "D": 1}
        results = {}

        def drive():
            with LineClient(handle.host, handle.port) as client:
                results["slow"] = client.request(slow)

        worker = threading.Thread(target=drive)
        worker.start()
        try:
            with LineClient(handle.host, handle.port) as admin:
                ack = admin.request({"kind": "shutdown", "scope": "server"})
                assert ack["kind"] == "shutdown_ack"
            worker.join(30)
            assert not worker.is_alive()
            assert results["slow"]["kind"] == "summary_response"
        finally:
            handle.stop()
