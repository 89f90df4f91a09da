"""The network serving stack TCP and HTTP share (``repro.server.network``).

Both transports build one stack — scheduler, dispatcher, metrics,
telemetry registry — and share its ``stats`` ``"server"`` section, its
ready banner, its shutdown sequence and its background runner.  These
tests pin that sharing: the two transports' stats and banners carry the
same keys, each shutdown emits exactly one ``drain`` event and seals the
WAL, and ``repro-serve`` with both ``--tcp`` and ``--http`` serves on
both, exits 0 after an HTTP server-scope shutdown, and recovers what TCP
acknowledged.  A request that reaches a stopped stack is answered
``ShuttingDown`` at once instead of waiting on a future nobody resolves.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.durability import DurabilityManager
from repro.obs import StructuredLogger, Telemetry
from repro.server import BackgroundServer, LineClient, TCPServer
from repro.server.scheduler import ShardedScheduler
from repro.service import Engine
from repro.web import AuthService, QuotaService, WebServer
from tests.conftest import paper_like_answers

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parent.parent

SUMMARY = {
    "schema_version": 2, "kind": "summary", "dataset": "paper",
    "k": 2, "L": 4, "D": 1,
}
TOKEN = "network-secret"

CSV = """era,grp,val
1970s,student,4.5
1970s,educator,4.2
1980s,student,4.0
1980s,engineer,3.9
1990s,student,2.5
1990s,writer,2.2
1990s,artist,2.0
1980s,artist,3.0
"""


def make_engine(durability=None) -> Engine:
    engine = Engine(durability=durability)
    engine.register_dataset("paper", paper_like_answers())
    return engine


def build(transport, engine, tmp_path, **options):
    if transport == "http":
        return WebServer(
            engine, session_dir=str(tmp_path / "sessions"), **options
        )
    return TCPServer(engine, **options)


def http_post(host, port, path, body, token=None):
    """One POST on a fresh connection -> (status, headers, JSON body)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        return _post(connection, path, body, token)
    finally:
        connection.close()


def _post(connection, path, body, token=None):
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = "Bearer " + token
    connection.request("POST", path, body=json.dumps(body), headers=headers)
    response = connection.getresponse()
    return response.status, dict(response.headers), json.loads(response.read())


def request(transport, handle, payload, token=None):
    """One wire request on either transport -> the response object."""
    if transport == "tcp":
        if token is not None:
            payload = dict(payload, auth=token)
        with LineClient(handle.host, handle.port, timeout=30) as client:
            return client.request(payload)
    kind = payload["kind"]
    path = "/v2/" + kind if kind in ("summary", "explore", "guidance") \
        else "/v2/admin/" + kind
    return http_post(handle.host, handle.port, path, payload, token)[2]


# -- one stats surface, one banner --------------------------------------------


def _stats_of(transport, tmp_path, **options):
    token = TOKEN if "auth" in options else None
    server = build(transport, make_engine(), tmp_path / transport, **options)
    with BackgroundServer(server) as handle:
        stats = request(transport, handle, {"kind": "stats"}, token)
        banner = server.ready_banner()
    return stats, banner


@pytest.mark.parametrize("secured", [False, True], ids=["open", "secured"])
def test_both_transports_share_stats_and_banner_keys(tmp_path, secured):
    options = {}
    if secured:
        options = {
            "auth": AuthService({TOKEN: "op"}),
            "quota": QuotaService(100, 60.0),
        }
    tcp_stats, tcp_banner = _stats_of("tcp", tmp_path, **options)
    http_stats, http_banner = _stats_of("http", tmp_path, **options)
    assert set(tcp_stats) == set(http_stats)
    assert "lifecycle" in tcp_stats["server"]
    assert set(tcp_stats["server"]) - {"max_line_bytes"} == (
        set(http_stats["server"]) - {"sessions", "max_body_bytes"}
    )
    assert set(tcp_banner) == set(http_banner)
    assert (tcp_banner["transport"], http_banner["transport"]) == (
        "tcp", "http"
    )
    assert tcp_banner["auth_required"] is http_banner["auth_required"] \
        is secured


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_stats_show_auth_and_quota_when_configured(tmp_path, transport):
    stats, _ = _stats_of(
        transport, tmp_path,
        auth=AuthService({TOKEN: "op"}), quota=QuotaService(100, 60.0),
    )
    server = stats["server"]
    assert server["auth"]["users"] == ["op"]
    assert server["quota"]["capacity"] == 100
    assert "served_per_shard" in server["scheduler"]
    open_stats, _ = _stats_of(transport, tmp_path / "open")
    assert "auth" not in open_stats["server"]
    assert "quota" not in open_stats["server"]


# -- one drain ----------------------------------------------------------------


@pytest.mark.parametrize("transport", ["tcp", "http"])
def test_shutdown_drains_once_and_seals_the_wal(tmp_path, transport):
    manager = DurabilityManager(str(tmp_path / "data"))
    sink = io.StringIO()
    telemetry = Telemetry(logger=StructuredLogger(sink))
    server = build(
        transport, make_engine(manager), tmp_path,
        telemetry=telemetry, durability=manager,
    )
    handle = BackgroundServer(server).start()
    ack = request(transport, handle, {"kind": "shutdown", "scope": "server"})
    assert ack["kind"] == "shutdown_ack"
    assert handle.stop(timeout=30)
    drains = [
        record for record in map(json.loads, sink.getvalue().splitlines())
        if record["event"] == "drain"
    ]
    assert len(drains) == 1
    assert drains[0]["transport"] == transport
    assert drains[0]["drained"] is True
    assert manager.sealed is True
    assert server.lifecycle.is_draining


# -- no request outlives the stack --------------------------------------------


def test_keep_alive_request_after_server_shutdown_is_503(tmp_path):
    handle = BackgroundServer(build("http", make_engine(), tmp_path)).start()
    connection = http.client.HTTPConnection(
        handle.host, handle.port, timeout=5
    )
    try:
        status, _, ack = _post(
            connection, "/v2/admin/shutdown", {"scope": "server"}
        )
        assert (status, ack["kind"]) == (200, "shutdown_ack")
        assert handle.stop(timeout=30)
        started = time.monotonic()
        status, headers, payload = _post(connection, "/v2/summary", SUMMARY)
        assert time.monotonic() - started < 1.0
    finally:
        connection.close()
    assert status == 503
    assert payload["error_type"] == "ShuttingDown"
    assert headers["Retry-After"].isdigit()


def test_scheduler_submit_after_stop_answers_shutting_down():
    scheduler = ShardedScheduler(lambda payload: {"kind": "ok"}, shards=1)
    scheduler.stop()
    future = scheduler.submit({"kind": "summary", "dataset": "d"})
    assert future.done()
    assert future.result()["error_type"] == "ShuttingDown"


def test_scheduler_stop_answers_work_a_wedged_worker_stranded():
    release = threading.Event()

    def compute(payload):
        if payload["n"] == 0:
            release.wait(10)
        return {"kind": "ok", "n": payload["n"]}

    scheduler = ShardedScheduler(compute, shards=1, coalesce=False)
    wedged = scheduler.submit({"n": 0})
    queued = scheduler.submit({"n": 1})
    scheduler.stop(timeout=0.2)
    assert queued.result(timeout=1)["error_type"] == "ShuttingDown"
    assert scheduler.stats()["workers_leaked"] == 1
    release.set()
    assert wedged.result(timeout=10) == {"kind": "ok", "n": 0}
    [worker] = scheduler._shards[0].threads
    worker.join(timeout=10)
    assert not worker.is_alive()


# -- both transports from one repro-serve -------------------------------------


class _Served:
    """A ``repro-serve`` child process and the lines it prints."""

    def __init__(self, log: Path, *args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.log = open(log, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import serve_main; "
             "raise SystemExit(serve_main())", *args],
            env=env, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.pump = threading.Thread(target=self._pump, daemon=True)
        self.pump.start()

    def _pump(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)

    def banners(self, count: int) -> list[dict]:
        return [json.loads(self.lines.get(timeout=60)) for _ in range(count)]

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        self.pump.join(timeout=30)
        self.process.stdout.close()
        self.log.close()


def _serve_both(tmp_path, csv):
    served = _Served(
        tmp_path / "serve.log",
        "--tcp", "127.0.0.1:0", "--http", "127.0.0.1:0",
        "--data-dir", str(tmp_path / "data"), str(csv),
    )
    try:
        tcp_banner, http_banner = served.banners(2)
    except BaseException:
        served.close()
        raise
    return served, tcp_banner, http_banner


def _append(client, row):
    return client.request({
        "kind": "append_rows", "dataset": "demo",
        "rows": [row], "values": [3.3],
    })


def _shut_down(served, http_banner):
    status, _, ack = http_post(
        http_banner["host"], http_banner["port"],
        "/v2/admin/shutdown", {"scope": "server"},
    )
    assert (status, ack["kind"]) == (200, "shutdown_ack")
    assert served.process.wait(timeout=60) == 0


def test_repro_serve_runs_both_transports_and_recovers(tmp_path):
    csv = tmp_path / "demo.csv"
    csv.write_text(CSV)
    summary = dict(SUMMARY, dataset="demo")
    served, tcp_banner, http_banner = _serve_both(tmp_path, csv)
    try:
        assert (tcp_banner["transport"], http_banner["transport"]) == (
            "tcp", "http"
        )
        assert set(tcp_banner) == set(http_banner)
        host = http_banner["host"]
        with LineClient(host, tcp_banner["port"], timeout=30) as client:
            assert client.request({"kind": "ping"})["kind"] == "pong"
            assert client.request(summary)["kind"] == "summary_response"
            appended = _append(client, ["2000s", "poet"])
        assert (appended["kind"], appended["n"]) == ("rows_appended", 9)
        port = http_banner["port"]
        assert http_post(host, port, "/v2/admin/ping", {})[2]["kind"] == "pong"
        status, _, response = http_post(host, port, "/v2/summary", summary)
        assert (status, response["kind"]) == (200, "summary_response")
        _shut_down(served, http_banner)
    finally:
        served.close()
    served, tcp_banner, http_banner = _serve_both(tmp_path, csv)
    try:
        with LineClient(
            tcp_banner["host"], tcp_banner["port"], timeout=30
        ) as client:
            appended = _append(client, ["2010s", "poet"])
        # The row TCP acknowledged before the shutdown was recovered.
        assert (appended["kind"], appended["n"]) == ("rows_appended", 10)
        _shut_down(served, http_banner)
    finally:
        served.close()
