"""Tests for the server subsystem: scheduler, single-flight, TCP transport."""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import pytest

from repro.server import (
    BackgroundServer,
    LineClient,
    ShardedScheduler,
    SingleFlight,
    TCPServer,
    request_key,
)
from repro.server.metrics import LatencyHistogram, ServerMetrics
from repro.service import Engine, serve
from tests.conftest import (
    paper_like_answers,
    random_answer_set,
    zero_timings,
)


def make_engine() -> Engine:
    engine = Engine()
    engine.register_dataset("paper", paper_like_answers())
    engine.register_dataset(
        "other", random_answer_set(n=40, m=4, domain=4, seed=5)
    )
    return engine


SUMMARY = {
    "schema_version": 2, "kind": "summary", "dataset": "paper",
    "k": 2, "L": 4, "D": 1,
}


# -- request_key / SingleFlight ----------------------------------------------


class TestSingleFlight:
    def test_request_key_is_order_insensitive(self):
        a = {"kind": "summary", "dataset": "d", "k": 2}
        b = {"k": 2, "dataset": "d", "kind": "summary"}
        assert request_key(a) == request_key(b)
        assert request_key(a) != request_key({**a, "k": 3})

    def test_leader_then_follower_share_future(self):
        flight = SingleFlight()
        future, leader = flight.begin("k")
        assert leader is True
        same, follower = flight.begin("k")
        assert follower is False
        assert same is future
        flight.finish("k", future, {"ok": 1})
        assert future.result(1) == {"ok": 1}
        stats = flight.stats()
        assert stats == {
            "leaders": 1, "coalesced": 1, "in_flight": 0, "hit_rate": 0.5,
        }

    def test_finish_retires_key_before_resolving(self):
        flight = SingleFlight()
        future, _ = flight.begin("k")
        flight.finish("k", future, "done")
        fresh, leader = flight.begin("k")
        assert leader is True
        assert fresh is not future


# -- ShardedScheduler ---------------------------------------------------------


class TestScheduler:
    def test_coalesces_inflight_duplicates_deterministically(self):
        picked_up = threading.Event()
        release = threading.Event()
        calls = []

        def slow_submit(payload):
            calls.append(payload)
            picked_up.set()
            assert release.wait(10)
            return {"kind": "x", "echo": payload["k"]}

        scheduler = ShardedScheduler(
            slow_submit, shards=1, queue_depth=4
        )
        try:
            payload = dict(SUMMARY)
            leader = scheduler.submit(payload)
            assert picked_up.wait(10)  # worker is now inside slow_submit
            follower = scheduler.submit(dict(SUMMARY))
            assert follower is leader  # same future, no second queue slot
            release.set()
            assert leader.result(10)["echo"] == SUMMARY["k"]
            assert len(calls) == 1
            stats = scheduler.stats()
            assert stats["singleflight"]["leaders"] == 1
            assert stats["singleflight"]["coalesced"] == 1
        finally:
            release.set()
            scheduler.stop()

    def test_full_queue_sheds_load_with_overloaded(self):
        picked_up = threading.Event()
        release = threading.Event()

        def slow_submit(payload):
            picked_up.set()
            assert release.wait(10)
            return {"kind": "x"}

        scheduler = ShardedScheduler(
            slow_submit, shards=1, queue_depth=1
        )
        try:
            scheduler.submit({"kind": "summary", "dataset": "a", "k": 1})
            assert picked_up.wait(10)
            # Worker busy; this one occupies the single queue slot.
            queued = scheduler.submit(
                {"kind": "summary", "dataset": "b", "k": 2}
            )
            shed = scheduler.submit(
                {"kind": "summary", "dataset": "c", "k": 3}
            )
            assert shed.done()  # rejected immediately, not queued
            response = shed.result(1)
            assert response["kind"] == "error"
            assert response["error_type"] == "Overloaded"
            assert scheduler.stats()["overloaded"] == 1
            release.set()
            assert queued.result(10)["kind"] == "x"
        finally:
            release.set()
            scheduler.stop()

    def test_coalesce_disabled_runs_every_duplicate(self):
        release = threading.Event()
        calls = []

        def submit(payload):
            calls.append(payload)
            assert release.wait(10)
            return {"kind": "x"}

        scheduler = ShardedScheduler(
            submit, shards=1, queue_depth=8,
            coalesce=False,
        )
        try:
            first = scheduler.submit(dict(SUMMARY))
            second = scheduler.submit(dict(SUMMARY))
            assert second is not first
            release.set()
            first.result(10), second.result(10)
            assert len(calls) == 2
            assert scheduler.stats()["singleflight"]["leaders"] == 0
        finally:
            release.set()
            scheduler.stop()

    def test_dataset_routing_is_stable(self):
        scheduler = ShardedScheduler(lambda p: p, shards=4)
        try:
            payload = {"kind": "summary", "dataset": "paper"}
            index = scheduler.shard_index(payload)
            assert all(
                scheduler.shard_index(payload) == index for _ in range(10)
            )
            assert scheduler.shard_index({"kind": "stats"}) == 0
        finally:
            scheduler.stop()

    def test_worker_exception_becomes_error_payload(self):
        def boom(payload):
            raise RuntimeError("kaput")

        scheduler = ShardedScheduler(boom, shards=1)
        try:
            response = scheduler.submit(dict(SUMMARY)).result(10)
            assert response["kind"] == "error"
            assert response["error_type"] == "RuntimeError"
        finally:
            scheduler.stop()

    def test_stop_drains_queued_work(self):
        scheduler = ShardedScheduler(
            lambda p: {"kind": "x", "k": p["k"]}, shards=2
        )
        futures = [
            scheduler.submit({"kind": "summary", "dataset": "d%d" % i,
                              "k": i})
            for i in range(8)
        ]
        scheduler.stop()
        assert sorted(f.result(1)["k"] for f in futures) == list(range(8))


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_histogram_quantiles_and_summary(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        for seconds in (0.001, 0.001, 0.001, 0.2):
            histogram.observe(seconds)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["max_seconds"] == pytest.approx(0.2)
        assert summary["p50_seconds"] == 0.001
        assert summary["p99_seconds"] >= 0.2

    def test_terminal_bucket_reports_exact_max(self):
        histogram = LatencyHistogram()
        histogram.observe(120.0)
        assert histogram.quantile(0.99) == pytest.approx(120.0)

    def test_server_metrics_snapshot(self):
        metrics = ServerMetrics()
        metrics.incr("responses")
        metrics.incr("responses")
        metrics.observe("summary", 0.01)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["responses"] == 2
        assert snapshot["latency"]["summary"]["count"] == 1

    def test_client_supplied_kinds_cannot_grow_histograms_unboundedly(self):
        """Unknown kinds collapse into one "other" histogram — a hostile
        client inventing kinds must not allocate per-kind state."""
        metrics = ServerMetrics()
        for index in range(100):
            metrics.observe("invented-%d" % index, 0.001)
        metrics.observe("summary", 0.001)
        latency = metrics.snapshot()["latency"]
        assert set(latency) == {"other", "summary"}
        assert latency["other"]["count"] == 100


# -- TCP transport ------------------------------------------------------------


def _threads_of(server: TCPServer) -> set:
    if server.scheduler is None:
        return set()
    return {
        thread
        for shard in server.scheduler._shards
        for thread in shard.threads
    }


@pytest.fixture
def tcp_server():
    handles = []

    def start(engine=None, **kwargs):
        server = TCPServer(engine or make_engine(), port=0, **kwargs)
        handle = BackgroundServer(server).start()
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()


class TestTCPServer:
    def test_ping_and_summary(self, tcp_server):
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            assert client.request({"kind": "ping"})["kind"] == "pong"
            response = client.request(SUMMARY)
            assert response["kind"] == "summary_response"
            assert response["solution_size"] == 2

    def test_matches_direct_engine_submission(self, tcp_server):
        handle = tcp_server()
        direct = zero_timings(make_engine().submit_dict(dict(SUMMARY)))
        with LineClient(handle.host, handle.port) as client:
            over_wire = zero_timings(client.request(SUMMARY))
        assert over_wire == direct

    def test_pipelined_requests_answered_in_order(self, tcp_server):
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            client.send_raw(
                b'{"kind": "ping"}\n'
                + json.dumps(SUMMARY).encode() + b"\n"
                + b'{"kind": "datasets"}\n'
            )
            kinds = [client.recv()["kind"] for _ in range(3)]
        assert kinds == ["pong", "summary_response", "datasets"]

    def test_many_concurrent_clients(self, tcp_server):
        handle = tcp_server(shards=2)
        barrier = threading.Barrier(8)
        results = []

        def worker(index):
            dataset = "paper" if index % 2 else "other"
            payload = {"schema_version": 2, "kind": "summary",
                       "dataset": dataset, "k": 2, "L": 4, "D": 1}
            with LineClient(handle.host, handle.port) as client:
                barrier.wait(timeout=10)
                for _ in range(3):
                    results.append(client.request(payload)["kind"])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert results.count("summary_response") == 24

    def test_identical_inflight_requests_coalesce(self, tcp_server):
        engine = make_engine()
        release = threading.Event()
        first_call = threading.Event()

        def gated_submit(payload):
            if not first_call.is_set():
                first_call.set()
                assert release.wait(10)
            return engine.submit_dict(payload)

        handle = tcp_server(engine=engine, shards=1, submit=gated_submit)
        responses = []

        def client_worker():
            with LineClient(handle.host, handle.port) as client:
                responses.append(client.request(SUMMARY))

        threads = [threading.Thread(target=client_worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        assert first_call.wait(10)  # the leader is inside compute
        # Event-gated wait for the three followers to coalesce onto the
        # leader (the flight notifies its condition on every begin()).
        flight = handle.server.scheduler.flight
        assert flight.wait_coalesced(3, timeout=10)
        release.set()
        for thread in threads:
            thread.join(30)
        assert len(responses) == 4
        normalized = {json.dumps(r, sort_keys=True) for r in responses}
        assert len(normalized) == 1  # fan-out: byte-identical responses
        stats = handle.server.scheduler.stats()["singleflight"]
        assert stats["leaders"] == 1
        assert stats["coalesced"] == 3

    def test_oversized_line_rejected_and_connection_survives(
        self, tcp_server
    ):
        handle = tcp_server(max_line_bytes=256)
        with LineClient(handle.host, handle.port) as client:
            client.send_raw(b"x" * 5000 + b"\n")
            response = client.recv()
            assert response["kind"] == "error"
            assert response["error_type"] == "LineTooLong"
            assert client.request({"kind": "ping"})["kind"] == "pong"

    def test_oversized_line_never_buffered_whole(self, tcp_server):
        """A huge line streams through in chunks and still yields one
        error — the discard path, not an accumulate-then-check."""
        handle = tcp_server(max_line_bytes=1024)
        with LineClient(handle.host, handle.port) as client:
            for _ in range(64):  # 1 MiB total, no newline until the end
                client.send_raw(b"y" * 16384)
            client.send_raw(b"\n")
            response = client.recv()
            assert response["error_type"] == "LineTooLong"
            assert client.request({"kind": "ping"})["kind"] == "pong"

    def test_undecodable_bytes_rejected_and_connection_survives(
        self, tcp_server
    ):
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            client.send_raw(b'\xff\xfe{"kind": "ping"}\n')
            response = client.recv()
            assert response["kind"] == "error"
            assert response["error_type"] == "SchemaError"
            assert "UTF-8" in response["message"]
            assert client.request({"kind": "ping"})["kind"] == "pong"

    def test_malformed_json_rejected_and_connection_survives(
        self, tcp_server
    ):
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            client.send_raw(b"this is not json\n")
            assert client.recv()["kind"] == "error"
            assert client.request({"kind": "ping"})["kind"] == "pong"

    def test_rejections_counted_in_stats(self, tcp_server):
        handle = tcp_server(max_line_bytes=64)
        with LineClient(handle.host, handle.port) as client:
            client.send_raw(b"z" * 100 + b"\n")
            client.recv()
            client.send_raw(b"\xff\n")
            client.recv()
            client.send_raw(b"{broken\n")
            client.recv()
            stats = client.request({"kind": "stats"})
        assert stats["rejected"] == {
            "oversized": 1, "undecodable": 1, "malformed": 1,
            "auth": 0, "quota": 0, "deadline": 0, "draining": 0,
        }
        assert stats["server"]["scheduler"]["shards"] >= 1

    def test_clean_eof_closes_session(self, tcp_server):
        handle = tcp_server()
        client = LineClient(handle.host, handle.port)
        client.request({"kind": "ping"})
        client.close()  # EOF, no shutdown request
        # The server must survive it and keep serving new connections.
        with LineClient(handle.host, handle.port) as second:
            assert second.request({"kind": "ping"})["kind"] == "pong"

    def test_session_shutdown_acks_then_closes(self, tcp_server):
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            ack = client.request({"kind": "shutdown"})
            assert ack == {"kind": "shutdown_ack", "schema_version": 2,
                           "scope": "session"}
            assert client.recv() is None  # server closed its end
        with LineClient(handle.host, handle.port) as second:
            assert second.request({"kind": "ping"})["kind"] == "pong"

    def test_server_shutdown_stops_listening(self, tcp_server):
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            ack = client.request({"kind": "shutdown", "scope": "server"})
            assert ack["scope"] == "server"
        assert handle.stop(timeout=10)
        with pytest.raises(OSError):
            socket.create_connection(
                (handle.host, handle.server.bound_port), timeout=0.5
            )

    def test_bind_failure_does_not_leak_worker_threads(self, tcp_server):
        handle = tcp_server()  # occupies a port
        failed = TCPServer(make_engine(), port=handle.port, shards=2)
        background = BackgroundServer(failed)
        with pytest.raises(RuntimeError) as info:
            background.start()
        assert isinstance(info.value.__cause__, OSError)
        # Deterministic gate: join the failed run()'s thread instead of
        # sleeping and hoping its finally-cleanup has finished.
        background._thread.join(timeout=10)
        assert not background._thread.is_alive()
        leaked = [
            thread for thread in threading.enumerate()
            if thread.name.startswith("repro-shard") and thread.is_alive()
            and thread not in _threads_of(handle.server)
        ]
        assert leaked == []

    def test_bad_shutdown_scope_is_error(self, tcp_server):
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            response = client.request({"kind": "shutdown", "scope": "bogus"})
            assert response["kind"] == "error"
            assert client.request({"kind": "ping"})["kind"] == "pong"

    def test_load_csv_over_tcp(self, tcp_server, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("era,grp,val\n1970s,student,4.5\n1980s,student,4.0\n"
                        "1990s,writer,2.0\n")
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            loaded = client.request({"kind": "load_csv", "path": str(path)})
            assert loaded["kind"] == "dataset_loaded"
            response = client.request({
                "schema_version": 2, "kind": "summary", "dataset": "mini",
                "k": 2, "L": 2, "D": 0,
            })
            assert response["kind"] == "summary_response"


class TestTransportParity:
    def test_stdio_and_tcp_responses_are_byte_identical(self, tcp_server):
        """Same request lines, same bytes out (timings zeroed), both
        transports — the dispatcher really is transport-agnostic."""
        requests = [
            {"kind": "ping"},
            dict(SUMMARY, include_elements=True, algorithm="bottom-up"),
            {"schema_version": 2, "kind": "explore", "dataset": "paper",
             "k": 3, "L": 4, "D": 1, "k_range": [2, 4], "d_values": [1, 2]},
            {"schema_version": 2, "kind": "guidance", "dataset": "paper",
             "L": 4, "k_range": [2, 4], "d_values": [1]},
            {"kind": "datasets"},
            {"kind": "frobnicate"},
            {"schema_version": 2, "kind": "summary", "dataset": "nope",
             "k": 1},
        ]
        lines = "".join(
            json.dumps(request, sort_keys=True) + "\n" for request in requests
        )
        stdio_out = io.BytesIO()
        serve(io.BytesIO(lines.encode()), stdio_out, engine=make_engine())
        stdio_responses = [
            json.dumps(zero_timings(json.loads(line)), sort_keys=True)
            for line in stdio_out.getvalue().splitlines()
        ]
        handle = tcp_server()
        with LineClient(handle.host, handle.port) as client:
            client.send_raw(lines.encode("utf-8"))
            tcp_responses = [
                json.dumps(zero_timings(client.recv()), sort_keys=True)
                for _ in requests
            ]
        assert stdio_responses == tcp_responses
