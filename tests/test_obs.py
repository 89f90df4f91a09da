"""The observability layer: trace trees, the ring buffer, structured
logs, the unified telemetry registry, and their integration through the
dispatcher, scheduler, and both concurrent transports.

The two contracts that matter most:

* **disarmed is invisible** — with tracing off, responses (including a
  request that *asks* for a trace) are byte-identical to the golden wire
  file, and the ``trace`` envelope field never changes coalescing keys;
* **armed is attributable** — a seeded latency fault at the
  ``scheduler.worker`` site must show up in the slowest-N ring buffer
  with the delay on the correct span, retrievable over both TCP (the
  ``trace`` admin kind) and HTTP (``POST /v2/admin/trace``), and the
  structured log line for that request must carry the same trace_id.
"""

from __future__ import annotations

import io
import json
import threading
import time

import http.client

import pytest

from tests.conftest import paper_like_answers, zero_timings
from repro.common import faults
from repro.obs import (
    RequestTrace,
    StructuredLogger,
    Telemetry,
    TelemetryRegistry,
    TraceBuffer,
    TraceIdGenerator,
    annotate,
    current_trace,
    record_span,
    span,
    trace_scope,
)
from repro.service.engine import Engine
from repro.service.serve import Dispatcher
from repro.server.scheduler import ShardedScheduler

pytestmark = pytest.mark.tier1

GOLDEN = json.loads(
    (__import__("pathlib").Path(__file__).parent / "golden"
     / "summary_response.json").read_text()
)

SUMMARY_REQUEST = {
    "schema_version": 2, "kind": "summary", "dataset": "paper",
    "k": 2, "L": 4, "D": 1, "algorithm": "bottom-up",
    "include_elements": True,
}


@pytest.fixture(autouse=True)
def disarm_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def engine() -> Engine:
    e = Engine()
    e.register_dataset("paper", paper_like_answers())
    return e


def armed_telemetry(**kwargs) -> Telemetry:
    kwargs.setdefault("tracing", True)
    return Telemetry(**kwargs)


# -- tracing primitives -------------------------------------------------------


class TestSpans:
    def test_span_without_installed_trace_is_a_noop(self):
        assert current_trace() is None
        with span("engine.solve") as node:
            assert node is None
        record_span("engine.pool_build", 0.01)  # must not raise
        annotate("orphan", True)

    def test_spans_nest_under_the_installed_trace(self):
        trace = RequestTrace("t-1", kind="summary")
        with trace_scope(trace):
            assert current_trace() is trace
            with span("scheduler.worker", shard=0):
                with span("engine.request"):
                    with span("engine.solve", kernel="bitset"):
                        pass
                record_span("engine.serialize", 0.002)
        assert current_trace() is None
        trace.finish("ok")
        tree = trace.to_dict()
        worker = tree["spans"][0]
        assert worker["name"] == "scheduler.worker"
        assert worker["attributes"] == {"shard": 0}
        request = worker["children"][0]
        names = [child["name"] for child in request["children"]]
        assert names == ["engine.solve"]
        # record_span lands under the open worker span, after the
        # engine.request child.
        assert [c["name"] for c in worker["children"]] == [
            "engine.request", "engine.serialize",
        ]

    def test_record_span_backdates_start_by_elapsed(self):
        trace = RequestTrace("t-2")
        with trace_scope(trace):
            record_span("engine.pool_build", 0.05, cache_hit=False)
        node = trace.find_span("engine.pool_build")
        assert node.seconds == pytest.approx(0.05, abs=0.01)
        assert node.attributes == {"cache_hit": False}

    def test_trace_scope_nests_and_restores(self):
        outer, inner = RequestTrace("outer"), RequestTrace("inner")
        with trace_scope(outer):
            with trace_scope(inner):
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None

    def test_trace_scope_none_is_supported(self):
        with trace_scope(None):
            assert current_trace() is None

    def test_finish_is_idempotent(self):
        trace = RequestTrace("t-3")
        trace.finish("ok")
        first = trace.duration_seconds
        time.sleep(0.002)
        trace.finish("late-error")
        assert trace.status == "ok"
        assert trace.duration_seconds == first

    def test_add_span_from_explicit_instants(self):
        trace = RequestTrace("t-4")
        now = time.perf_counter()
        trace.add_span("scheduler.queue", now - 0.25, now, shard=3)
        node = trace.find_span("scheduler.queue")
        assert node.seconds == pytest.approx(0.25, abs=0.01)
        assert node.attributes["shard"] == 3

    def test_annotations_survive_into_the_tree(self):
        trace = RequestTrace("t-5")
        trace.annotate("coalesced", True)
        with trace_scope(trace):
            annotate("deadline_shed", "queued")
        trace.finish("ok")
        tree = trace.to_dict()
        assert tree["annotations"] == {
            "coalesced": True, "deadline_shed": "queued",
        }

    def test_spans_from_two_threads_share_one_tree(self):
        trace = RequestTrace("t-6")

        def worker():
            with trace_scope(trace):
                with span("scheduler.worker"):
                    pass

        thread = threading.Thread(target=worker)
        with trace_scope(trace):
            with span("edge.dispatch"):
                thread.start()
                thread.join()
        names = {s["name"] for s in trace.to_dict()["spans"]}
        # The worker thread had its own empty span stack, so its span is
        # a root sibling, not a child of the edge span.
        assert names == {"edge.dispatch", "scheduler.worker"}


class TestTraceIds:
    def test_deterministic_sequence(self):
        generator = TraceIdGenerator(seed=7)
        assert generator.next_id() == "trace-0007-000001"
        assert generator.next_id() == "trace-0007-000002"
        assert TraceIdGenerator(seed=7).next_id() == "trace-0007-000001"


class TestTraceBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)

    def _trace(self, trace_id: str, seconds: float) -> dict:
        return {"trace_id": trace_id, "duration_seconds": seconds}

    def test_recent_evicts_oldest_slowest_keeps_max(self):
        buffer = TraceBuffer(capacity=3)
        for index, seconds in enumerate([0.5, 0.1, 0.9, 0.2, 0.3]):
            buffer.record(self._trace("t%d" % index, seconds))
        snap = buffer.snapshot()
        assert snap["recorded"] == 5
        assert snap["capacity"] == 3
        assert [t["trace_id"] for t in snap["recent"]] == ["t2", "t3", "t4"]
        # Slowest three of the five, slowest first — t0 (0.5) survives
        # even though recency evicted it.
        assert [t["trace_id"] for t in snap["slowest"]] == ["t2", "t0", "t4"]
        assert len(buffer) == 3

    def test_equal_durations_tiebreak_on_arrival(self):
        buffer = TraceBuffer(capacity=2)
        buffer.record(self._trace("a", 0.1))
        buffer.record(self._trace("b", 0.1))
        buffer.record(self._trace("c", 0.1))  # not strictly slower: kept out
        assert [t["trace_id"] for t in buffer.snapshot()["slowest"]] == [
            "a", "b",
        ]


# -- structured logging -------------------------------------------------------


class TestStructuredLogger:
    def test_request_record_shape(self):
        sink = io.StringIO()
        logger = StructuredLogger(sink)
        trace = RequestTrace("t-log", kind="summary", user="op")
        trace.finish("ok")
        logger.request(trace.to_dict())
        record = json.loads(sink.getvalue())
        assert record["event"] == "request"
        assert record["trace_id"] == "t-log"
        assert record["user"] == "op"
        assert record["kind"] == "summary"
        assert record["status"] == "ok"
        assert record["spans"] == []
        assert logger.emitted == 1

    def test_event_records_and_nonjsonable_coercion(self):
        sink = io.StringIO()
        logger = StructuredLogger(sink)
        logger.event("quarantine", shard=1, error=ValueError("boom"))
        record = json.loads(sink.getvalue())
        assert record["event"] == "quarantine"
        assert record["shard"] == 1
        assert "boom" in record["error"]

    def test_closed_sink_never_raises(self):
        sink = io.StringIO()
        logger = StructuredLogger(sink)
        sink.close()
        logger.event("drain", transport="tcp")  # swallowed, not raised
        assert logger.emitted == 1


# -- telemetry + registry -----------------------------------------------------


class TestTelemetry:
    def test_disarmed_begin_trace_returns_none(self):
        telemetry = Telemetry()
        assert telemetry.begin_trace("summary") is None
        assert telemetry.describe()["armed"] is False

    def test_armed_roundtrip_records_and_logs(self):
        sink = io.StringIO()
        telemetry = armed_telemetry(logger=StructuredLogger(sink))
        trace = telemetry.begin_trace("summary", user="op")
        tree = telemetry.finish_trace(trace, "ok")
        assert tree["trace_id"] == "trace-0000-000001"
        assert telemetry.traces()["recorded"] == 1
        logged = json.loads(sink.getvalue())
        assert logged["trace_id"] == tree["trace_id"]

    def test_request_id_overrides_generator(self):
        telemetry = armed_telemetry()
        trace = telemetry.begin_trace("summary", request_id="client-id-9")
        assert trace.trace_id == "client-id-9"

    def test_event_without_logger_is_dropped(self):
        Telemetry().event("drain", transport="tcp")  # no logger: no raise


class TestTelemetryRegistry:
    def test_sections_and_snapshot(self):
        registry = TelemetryRegistry()
        registry.register("quota", lambda: {
            "granted": 5, "rejected": 2, "users": 3,
        })
        assert registry.registered() == ["quota"]
        assert registry.section("quota")["granted"] == 5
        assert registry.section("missing") is None
        assert registry.snapshot() == {
            "quota": {"granted": 5, "rejected": 2, "users": 3},
        }

    def test_prometheus_extra_gauge_names_are_stable(self):
        registry = TelemetryRegistry()
        registry.register("quota", lambda: {
            "granted": 5, "rejected": 2, "users": 3,
        })
        registry.register("auth", lambda: {"rejected": 4})
        extra = registry.prometheus_extra()
        assert extra == {
            "quota_granted": 5, "quota_rejected": 2, "quota_users": 3,
            "auth_rejected": 4,
        }

    def test_traces_recorded_gauge_only_when_armed(self):
        disarmed = TelemetryRegistry(Telemetry())
        assert "traces_recorded" not in disarmed.prometheus_extra()
        armed = TelemetryRegistry(armed_telemetry())
        assert armed.prometheus_extra()["traces_recorded"] == 0

    def test_server_stats_tracing_key_only_when_armed(self):
        base = {"transport": "tcp"}
        assert "tracing" not in TelemetryRegistry().server_stats(base)
        assert "tracing" not in (
            TelemetryRegistry(Telemetry()).server_stats(base)
        )
        stats = TelemetryRegistry(armed_telemetry()).server_stats(base)
        assert stats["tracing"]["armed"] is True
        assert stats["transport"] == "tcp"


# -- dispatcher integration ---------------------------------------------------


def _canonical(response: dict) -> str:
    return json.dumps(zero_timings(response), sort_keys=True)


class TestDispatcherDisarmed:
    def test_trace_flag_leaves_response_byte_identical(self):
        def cold_engine():
            e = Engine()
            e.register_dataset("paper", paper_like_answers())
            return e

        # Two cold engines so cache_hit flags agree; only the envelope
        # flag differs between the requests.
        plain = Dispatcher(cold_engine()).dispatch_payload(
            dict(SUMMARY_REQUEST)
        ).response
        flagged = Dispatcher(cold_engine()).dispatch_payload(
            {**SUMMARY_REQUEST, "trace": True}
        ).response
        assert "trace" not in flagged
        assert _canonical(flagged) == _canonical(plain)
        assert zero_timings(plain) == GOLDEN

    def test_trace_flag_must_be_boolean(self, engine):
        response = Dispatcher(engine).dispatch_payload(
            {**SUMMARY_REQUEST, "trace": "yes"}
        ).response
        assert response["kind"] == "error"
        assert response["error_type"] == "SchemaError"
        assert "trace must be a boolean" in response["message"]

    def test_trace_admin_kind_reports_disarmed_shape(self, engine):
        response = Dispatcher(engine).dispatch_payload(
            {"schema_version": 2, "kind": "trace"}
        ).response
        assert response == {
            "schema_version": 2, "kind": "trace", "armed": False,
            "capacity": 0, "recorded": 0, "recent": [], "slowest": [],
        }

    def test_stats_has_no_tracing_key(self, engine):
        response = Dispatcher(engine).dispatch_payload(
            {"schema_version": 2, "kind": "stats"}
        ).response
        assert "tracing" not in response.get("server", {})


class TestDispatcherArmed:
    def test_inline_trace_is_opt_in(self, engine):
        dispatcher = Dispatcher(engine, telemetry=armed_telemetry())
        # Cold request first, flagged, so it compares against the golden
        # file (which pins cache_hit false).
        flagged = dispatcher.dispatch_payload(
            {**SUMMARY_REQUEST, "trace": True}
        ).response
        silent = dispatcher.dispatch_payload(dict(SUMMARY_REQUEST)).response
        assert "trace" not in silent
        tree = flagged["trace"]
        assert tree["trace_id"] == "trace-0000-000001"
        assert tree["status"] == "ok"
        assert tree["kind"] == "summary"
        assert [s["name"] for s in tree["spans"]] == ["engine.request"]
        child_names = [
            c["name"] for c in tree["spans"][0]["children"]
        ]
        assert "engine.pool_build" in child_names
        assert "engine.solve" in child_names
        assert "engine.serialize" in child_names
        # Modulo the trace key, the armed response is the golden one.
        stripped = {k: v for k, v in flagged.items() if k != "trace"}
        assert zero_timings(stripped) == GOLDEN

    def test_solver_counters_ride_as_span_attributes(self, engine):
        dispatcher = Dispatcher(engine, telemetry=armed_telemetry())
        response = dispatcher.dispatch_payload(
            {**SUMMARY_REQUEST, "trace": True}
        ).response
        solve = next(
            c for c in response["trace"]["spans"][0]["children"]
            if c["name"] == "engine.solve"
        )
        assert solve["attributes"]["algorithm"] == "bottom-up"
        assert "argmax_rounds" in solve["attributes"]
        assert "kernel" in solve["attributes"]

    def test_error_requests_are_traced_with_error_status(self, engine):
        telemetry = armed_telemetry()
        dispatcher = Dispatcher(engine, telemetry=telemetry)
        response = dispatcher.dispatch_payload({
            "schema_version": 2, "kind": "summary",
            "dataset": "missing", "k": 2, "L": 4, "D": 1,
        }).response
        assert response["kind"] == "error"
        snap = telemetry.traces()
        assert snap["recorded"] == 1
        assert snap["recent"][0]["status"] == response["error_type"]

    def test_trace_admin_kind_serves_the_buffer(self, engine):
        telemetry = armed_telemetry()
        dispatcher = Dispatcher(engine, telemetry=telemetry)
        dispatcher.dispatch_payload(dict(SUMMARY_REQUEST))
        response = dispatcher.dispatch_payload(
            {"schema_version": 2, "kind": "trace"}
        ).response
        assert response["armed"] is True
        assert response["recorded"] == 1
        assert response["recent"][0]["trace_id"] == "trace-0000-000001"
        assert response["slowest"][0]["trace_id"] == "trace-0000-000001"

    def test_admin_kinds_are_not_traced(self, engine):
        telemetry = armed_telemetry()
        dispatcher = Dispatcher(engine, telemetry=telemetry)
        dispatcher.dispatch_payload({"schema_version": 2, "kind": "ping"})
        dispatcher.dispatch_payload({"schema_version": 2, "kind": "stats"})
        assert telemetry.traces()["recorded"] == 0

    def test_trace_admin_kind_is_auth_gated(self, engine):
        from repro.web.auth import AuthService

        dispatcher = Dispatcher(
            engine,
            auth=AuthService({"secret": "op"}),
            telemetry=armed_telemetry(),
        )
        denied = dispatcher.dispatch_payload(
            {"schema_version": 2, "kind": "trace"}
        ).response
        assert denied["error_type"] == "AuthError"
        granted = dispatcher.dispatch_payload(
            {"schema_version": 2, "kind": "trace", "auth": "secret"}
        ).response
        assert granted["armed"] is True

    def test_stats_grows_tracing_section_when_armed(self, engine):
        from repro.server.tcp import BackgroundServer, TCPServer

        telemetry = armed_telemetry()
        server = TCPServer(engine, telemetry=telemetry)
        with BackgroundServer(server) as handle:
            from repro.server.client import LineClient

            client = LineClient(handle.host, handle.port, timeout=60.0)
            try:
                client.request(dict(SUMMARY_REQUEST))
                stats = client.request(
                    {"schema_version": 2, "kind": "stats"}
                )
            finally:
                client.close()
        tracing = stats["server"]["tracing"]
        assert tracing["armed"] is True
        assert tracing["recorded"] == 1


class TestSchedulerTracing:
    def test_queue_and_worker_spans_with_coalesce_linkage(self, engine):
        telemetry = armed_telemetry()
        release = threading.Event()

        def gated_submit(payload):
            release.wait(timeout=30.0)
            return engine.submit_dict(payload)

        scheduler = ShardedScheduler(
            gated_submit, shards=1, telemetry=telemetry,
        )
        try:
            dispatcher = Dispatcher(
                engine, submit=scheduler.submit, telemetry=telemetry
            )
            leader_future = dispatcher.dispatch_payload(
                {**SUMMARY_REQUEST, "trace": True}
            ).response
            follower_future = dispatcher.dispatch_payload(
                {**SUMMARY_REQUEST, "trace": True}
            ).response
            release.set()
            leader = leader_future.result(timeout=30.0)
            follower = follower_future.result(timeout=30.0)
        finally:
            release.set()
            scheduler.stop()
        leader_tree, follower_tree = leader["trace"], follower["trace"]
        assert leader_tree["trace_id"] != follower_tree["trace_id"]
        # The leader computed: queue wait and worker compute both spanned.
        names = [s["name"] for s in leader_tree["spans"]]
        assert "scheduler.queue" in names
        assert "scheduler.worker" in names
        worker = next(
            s for s in leader_tree["spans"]
            if s["name"] == "scheduler.worker"
        )
        assert worker["children"][0]["name"] == "engine.request"
        assert "coalesced" not in leader_tree["annotations"]
        # The follower waited on the leader's flight: no spans of its
        # own, but a durable link to the trace that did the work.
        assert follower_tree["annotations"]["coalesced"] is True
        assert follower_tree["annotations"]["leader_trace_id"] == (
            leader_tree["trace_id"]
        )
        # Both responses carry identical payloads modulo the trace key.
        assert _canonical(
            {k: v for k, v in leader.items() if k != "trace"}
        ) == _canonical(
            {k: v for k, v in follower.items() if k != "trace"}
        )


# -- the slow-request investigation (acceptance criterion) --------------------


class TestSlowRequestInvestigation:
    def test_latency_fault_localizes_to_scheduler_worker(self, engine):
        """One shared Telemetry, both concurrent transports: a seeded
        latency fault at ``scheduler.worker`` must surface in the
        slowest-N with the delay on that span, via the TCP ``trace``
        admin kind *and* ``POST /v2/admin/trace``, and the structured
        log must carry the same trace_id."""
        from repro.server.client import LineClient
        from repro.server.tcp import BackgroundServer, TCPServer
        from repro.web.http import BackgroundWebServer, WebServer

        sink = io.StringIO()
        telemetry = armed_telemetry(logger=StructuredLogger(sink))
        tcp = TCPServer(engine, shards=1, telemetry=telemetry)
        web = BackgroundWebServer(
            WebServer(engine, port=0, telemetry=telemetry)
        ).start()
        try:
            with BackgroundServer(tcp) as handle:
                client = LineClient(handle.host, handle.port, timeout=60.0)
                try:
                    # First request eats a 200 ms injected stall inside
                    # the worker; the second runs clean for contrast.
                    faults.arm(
                        "scheduler.worker", "latency", param=200, times=1,
                    )
                    slow = client.request(dict(SUMMARY_REQUEST))
                    fast = client.request({
                        **SUMMARY_REQUEST, "k": 3, "D": 0,
                    })
                    assert slow["kind"] == "summary_response"
                    assert fast["kind"] == "summary_response"
                    over_tcp = client.request(
                        {"schema_version": 2, "kind": "trace"}
                    )
                finally:
                    client.close()
            connection = http.client.HTTPConnection(
                web.host, web.port, timeout=60.0
            )
            try:
                connection.request(
                    "POST", "/v2/admin/trace", body=b"{}",
                    headers={"Content-Type": "application/json"},
                )
                over_http = json.loads(connection.getresponse().read())
            finally:
                connection.close()
        finally:
            web.stop()
        # Both transports serve the same shared ring buffer.
        assert over_tcp["armed"] is True
        assert over_tcp["recorded"] == 2
        slowest = over_tcp["slowest"][0]
        assert slowest["duration_seconds"] >= 0.2
        worker = next(
            s for s in slowest["spans"] if s["name"] == "scheduler.worker"
        )
        queue = next(
            s for s in slowest["spans"] if s["name"] == "scheduler.queue"
        )
        # The delay is attributed to the worker window (the fault site
        # sits inside it), not to queue wait.
        assert worker["duration_seconds"] >= 0.2
        assert queue["duration_seconds"] < 0.2
        assert over_http["slowest"][0]["trace_id"] == slowest["trace_id"]
        assert over_http["recorded"] == over_tcp["recorded"]
        # The structured log's completion record carries the trace_id.
        records = [
            json.loads(line) for line in sink.getvalue().splitlines()
        ]
        completions = [r for r in records if r["event"] == "request"]
        assert slowest["trace_id"] in {
            r["trace_id"] for r in completions
        }
        slow_record = next(
            r for r in completions
            if r["trace_id"] == slowest["trace_id"]
        )
        assert slow_record["status"] == "ok"
        assert slow_record["duration_seconds"] >= 0.2


# -- HTTP request ids ---------------------------------------------------------


class TestHttpRequestIds:
    def test_x_request_id_becomes_the_trace_id(self, engine):
        from repro.web.http import BackgroundWebServer, WebServer

        telemetry = armed_telemetry()
        web = BackgroundWebServer(
            WebServer(engine, port=0, telemetry=telemetry)
        ).start()
        try:
            connection = http.client.HTTPConnection(
                web.host, web.port, timeout=60.0
            )
            try:
                connection.request(
                    "POST", "/v2/summary",
                    body=json.dumps({**SUMMARY_REQUEST, "trace": True}),
                    headers={
                        "Content-Type": "application/json",
                        "X-Request-Id": "req-abc-123",
                    },
                )
                first = json.loads(connection.getresponse().read())
                # A garbage header falls back to the generator; a later
                # request on the same (reused) handler thread must not
                # inherit the previous id.
                connection.request(
                    "POST", "/v2/summary",
                    body=json.dumps({**SUMMARY_REQUEST, "trace": True}),
                    headers={
                        "Content-Type": "application/json",
                        "X-Request-Id": "bad id\twith control",
                    },
                )
                second = json.loads(connection.getresponse().read())
            finally:
                connection.close()
        finally:
            web.stop()
        assert first["trace"]["trace_id"] == "req-abc-123"
        assert second["trace"]["trace_id"].startswith("trace-")

    def test_clean_request_id_rules(self):
        from repro.web.http import _clean_request_id

        assert _clean_request_id("req-1") == "req-1"
        assert _clean_request_id("  padded  ") == "padded"
        assert _clean_request_id(None) is None
        assert _clean_request_id("") is None
        assert _clean_request_id("a" * 200) is None
        assert _clean_request_id("has space") is None
        assert _clean_request_id("ctrl\x01char") is None


# -- scenario rollups ---------------------------------------------------------


class TestScenarioSpanRollup:
    def _trace(self, kind, duration, queue, compute, coalesced=False):
        spans = []
        if queue:
            spans.append({
                "name": "scheduler.queue", "duration_seconds": queue,
                "children": [],
            })
        if compute:
            spans.append({
                "name": "scheduler.worker", "duration_seconds": compute,
                "children": [],
            })
        return {
            "kind": kind,
            "duration_seconds": duration,
            "annotations": {"coalesced": True} if coalesced else {},
            "spans": spans,
        }

    def test_split_and_overhead_percentile(self):
        from repro.scenarios.runner import span_rollup

        rollup = span_rollup([
            self._trace("summary", 1.0, queue=0.2, compute=0.8),
            self._trace("summary", 1.0, queue=0.5, compute=0.5),
            self._trace("explore", 0.5, queue=0.1, compute=0.4),
        ])
        assert rollup["summary"]["traces"] == 2
        assert rollup["summary"]["queue_seconds"] == pytest.approx(0.7)
        assert rollup["summary"]["compute_seconds"] == pytest.approx(1.3)
        assert rollup["summary"]["overhead_p95"] == pytest.approx(0.5)
        assert rollup["explore"]["overhead_p95"] == pytest.approx(0.2)

    def test_coalesced_followers_excluded_from_overhead(self):
        from repro.scenarios.runner import span_rollup

        rollup = span_rollup([
            self._trace("summary", 1.0, queue=0.0, compute=0.9),
            self._trace("summary", 1.0, queue=0.0, compute=0.0,
                        coalesced=True),
        ])
        # The follower still counts in the split totals but its 100%
        # "overhead" (it never computes) must not poison the percentile.
        assert rollup["summary"]["traces"] == 2
        assert rollup["summary"]["overhead_p95"] == pytest.approx(
            0.1, abs=1e-9
        )

    def test_stdio_traces_fall_back_to_engine_request(self):
        from repro.scenarios.runner import span_rollup

        rollup = span_rollup([{
            "kind": "summary", "duration_seconds": 1.0,
            "annotations": {},
            "spans": [{
                "name": "engine.request", "duration_seconds": 0.75,
                "children": [],
            }],
        }])
        assert rollup["summary"]["compute_seconds"] == pytest.approx(0.75)
        assert rollup["summary"]["overhead_p95"] == pytest.approx(0.25)

    def test_max_p95_overhead_floor(self):
        from repro.scenarios.report import evaluate_floors

        report = {
            "spec": {"floors": {"max_p95_overhead": 0.5}},
            "spans": {"summary": {"overhead_p95": 0.8}},
        }
        violations = evaluate_floors(report)
        assert len(violations) == 1
        assert "overhead" in violations[0]
        report["spans"]["summary"]["overhead_p95"] = 0.3
        assert evaluate_floors(report) == []
