"""Chaos tests: fault injection driven through the real serving stack.

Where ``test_resilience.py`` exercises the resilience primitives in
isolation, this suite arms :mod:`repro.common.faults` rules in process
(no wire request can arm them) and drives the *assembled* system — scheduler worker pools, the TCP transport, the
HTTP front door — asserting the failure is contained: workers restart,
poisoned requests are quarantined, injected I/O errors become typed
responses, and no client ever hangs.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common import faults
from repro.common.errors import InvalidParameterError
from repro.server import (
    BackgroundServer,
    LineClient,
    RetryingClient,
    ShardedScheduler,
    TCPServer,
)
from repro.service import Engine
from repro.service.serve import Dispatcher
from repro.web import AuthService, WebServer
from tests.conftest import paper_like_answers
from tests.test_web import http_call

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def disarm_faults():
    faults.clear()
    yield
    faults.clear()


def make_engine() -> Engine:
    engine = Engine()
    engine.register_dataset("paper", paper_like_answers())
    return engine


SUMMARY = {
    "schema_version": 2, "kind": "summary", "dataset": "paper",
    "k": 2, "L": 4, "D": 1,
}


# -- worker-crash supervision (satellite d) -----------------------------------


class TestWorkerCrashResilience:
    def test_single_crash_is_retried_and_worker_restarts(self):
        """A fault that kills one shard worker mid-request must not kill
        the request: the dying worker re-enqueues it, the supervisor
        restarts the worker, and the client's future resolves."""
        engine = make_engine()
        scheduler = ShardedScheduler(engine.submit_dict, shards=2)
        try:
            faults.arm("scheduler.worker", "crash", times=1)
            future = scheduler.submit(dict(SUMMARY))
            response = future.result(timeout=10)
            assert response["kind"] == "summary_response"
            # Event-gated: the supervisor notifies the stats condition on
            # restart, so no sleep-polling (and no flake window).
            assert scheduler.wait_stat("worker_restarts", 1, timeout=10)
            stats = scheduler.stats()
            assert stats["worker_restarts"] >= 1
            assert stats["crash_retries"] == 1
            assert stats["poisoned"] == 0
            # The pool keeps serving afterwards.
            assert scheduler.submit(
                {**SUMMARY, "k": 3}
            ).result(timeout=10)["kind"] == "summary_response"
        finally:
            scheduler.stop()

    def test_repeat_crasher_is_quarantined(self):
        """A request that kills every worker it touches gets a typed
        PoisonedRequest answer — after the strike threshold it never
        reaches a worker again."""
        engine = make_engine()
        scheduler = ShardedScheduler(engine.submit_dict, shards=1)
        try:
            faults.arm("scheduler.worker", "crash")  # every dequeue crashes
            future = scheduler.submit(dict(SUMMARY))
            response = future.result(timeout=10)
            assert response["error_type"] == "PoisonedRequest"
            assert "quarantined" in response["message"]
            faults.clear()
            # Quarantine persists after the fault is gone: the same
            # request is answered immediately, without a worker.
            again = scheduler.submit(dict(SUMMARY)).result(timeout=10)
            assert again["error_type"] == "PoisonedRequest"
            # A *different* request is served normally.
            other = scheduler.submit(
                {**SUMMARY, "k": 3}
            ).result(timeout=10)
            assert other["kind"] == "summary_response"
            stats = scheduler.stats()
            assert stats["quarantined"] == 1
            assert stats["poisoned"] == 2
        finally:
            scheduler.stop()

    def test_crash_over_tcp_keeps_serving_no_client_hangs(self):
        """End-to-end worker-crash drill over the wire: one worker dies
        mid-trace, the scheduler keeps serving, and no client hangs."""
        engine = make_engine()
        server = TCPServer(engine, shards=1)
        with BackgroundServer(server) as handle:
            with LineClient(handle.host, handle.port, timeout=15) as client:
                armed = faults.arm_from_spec("scheduler.worker=crash:1:0:1")
                assert len(armed) == 1
                response = client.request(dict(SUMMARY))
                assert response["kind"] == "summary_response"
                for k in (2, 3):
                    follow_up = client.request({**SUMMARY, "k": k})
                    assert follow_up["kind"] == "summary_response"
                stats = client.request({"kind": "stats"})
                scheduler = stats["server"]["scheduler"]
                assert scheduler["worker_restarts"] >= 1
                assert scheduler["workers_leaked"] == 0

    def test_stop_counts_healthy_shutdown_as_zero_leaked(self):
        scheduler = ShardedScheduler(make_engine().submit_dict, shards=2)
        scheduler.stop()
        assert scheduler.stats()["workers_leaked"] == 0


# -- injected compute/transport faults ----------------------------------------


class TestInjectedFaults:
    def test_engine_compute_error_is_typed_response(self):
        faults.arm("engine.compute", "error", times=1)
        dispatcher = Dispatcher(make_engine())
        response = dispatcher.dispatch_payload(dict(SUMMARY)).response
        assert response["kind"] == "error"
        assert response["error_type"] == "InjectedFault"
        # The budget is spent: the next request is healthy.
        ok = dispatcher.dispatch_payload(dict(SUMMARY)).response
        assert ok["kind"] == "summary_response"

    def test_engine_latency_fault_slows_but_serves(self):
        faults.arm("engine.compute", "latency", param=50, times=1)
        dispatcher = Dispatcher(make_engine())
        start = time.perf_counter()
        response = dispatcher.dispatch_payload(dict(SUMMARY)).response
        assert time.perf_counter() - start >= 0.045
        assert response["kind"] == "summary_response"

    def test_tcp_write_disconnect_drops_connection_not_server(self):
        engine = make_engine()
        with BackgroundServer(TCPServer(engine)) as handle:
            with LineClient(handle.host, handle.port, timeout=5) as victim:
                # Armed in-process (server shares our process): arming
                # over the wire would reset the arming response itself.
                faults.arm("tcp.write", "disconnect", times=1)
                victim.send(dict(SUMMARY))
                # The injected reset hits this connection's response
                # write: clean EOF or a transport error, never a hang.
                try:
                    assert victim.recv() is None
                except Exception:
                    pass
            with LineClient(handle.host, handle.port, timeout=5) as fresh:
                assert fresh.request({"kind": "ping"})["kind"] == "pong"

    def test_session_write_fault_is_http_500_not_crash(self, tmp_path):
        server = WebServer(
            make_engine(), port=0,
            session_dir=str(tmp_path / "sessions"),
        )
        handle = BackgroundServer(server).start()
        try:
            faults.arm("sessions.write", "error", times=1)
            base = {**SUMMARY}
            status, payload = http_call(
                handle, "POST", "/v2/sessions",
                {"name": "chaos", "base": base},
            )
            assert status == 500
            assert payload["error_type"] == "InjectedFault"
            # The store survives: the same create succeeds afterwards.
            status, record = http_call(
                handle, "POST", "/v2/sessions",
                {"name": "chaos", "base": base},
            )
            assert status == 200
            assert record["name"] == "chaos"
        finally:
            handle.stop()


# -- arming is in process only -------------------------------------------------


def assert_unknown_kind(response):
    """A ``faults`` request is an unknown kind: it arms nothing."""
    assert response["error_type"] == "SchemaError"
    assert response["message"].startswith("unknown request kind 'faults'")
    assert faults.describe() == []


class TestFaultsAdminKind:
    """The ``faults`` admin kind is gone: one client could arm faults
    that every other client (every tenant) then hit."""

    def test_arm_describe_clear_round_trip(self):
        dispatcher = Dispatcher(make_engine())
        for request in (
            {"kind": "faults", "arm": "engine.compute=latency:0.5:20",
             "seed": 9},
            {"kind": "faults"},
            {"kind": "faults", "clear": True},
        ):
            assert_unknown_kind(dispatcher.dispatch_payload(request).response)
        armed = faults.arm_from_spec("engine.compute=latency:0.5:20", seed=9)
        assert [rule.site for rule in armed] == ["engine.compute"]
        assert faults.describe()[0]["site"] == "engine.compute"
        faults.clear()
        assert faults.describe() == []

    def test_malformed_specs_are_schema_errors(self):
        dispatcher = Dispatcher(make_engine())
        for request in (
            {"kind": "faults", "arm": 7},
            {"kind": "faults", "arm": "tcp.write=error", "seed": "x"},
            {"kind": "faults", "arm": "nope=error"},
        ):
            assert_unknown_kind(dispatcher.dispatch_payload(request).response)
        with pytest.raises(InvalidParameterError):
            faults.arm_from_spec("nope=error")

    def test_faults_kind_requires_auth_on_secured_server(self):
        """On a token-secured server the kind still needs a token, like
        every kind but ping, and then arms nothing for any tenant."""
        dispatcher = Dispatcher(
            make_engine(), auth=AuthService({"tok": "op"})
        )
        denied = dispatcher.dispatch_payload(
            {"kind": "faults", "arm": "engine.compute=error"}
        ).response
        assert denied["error_type"] == "AuthError"
        assert faults.describe() == []
        assert_unknown_kind(dispatcher.dispatch_payload(
            {"kind": "faults", "arm": "engine.compute=error",
             "auth": "tok"}
        ).response)
        served = dispatcher.dispatch_payload(dict(SUMMARY, auth="tok"))
        assert served.response["kind"] == "summary_response"


# -- retrying client against a chaotic server ---------------------------------


class TestRetryingClientUnderChaos:
    def test_closed_loop_survives_crash_and_latency_faults(self):
        """A short closed loop with worker crashes + latency spikes:
        every request resolves (success or typed error), nothing hangs —
        the miniature of benchmarks/bench_chaos.py."""
        import random

        engine = make_engine()
        server = TCPServer(engine, shards=2)
        with BackgroundServer(server) as handle:
            faults.arm_from_spec(
                "scheduler.worker=crash:0.2:0:2;"
                "engine.compute=latency:0.3:20",
                seed=13,
            )
            outcomes: list[str] = []
            lock = threading.Lock()

            def drive(worker_id: int) -> None:
                client = RetryingClient(
                    handle.host, handle.port, timeout=15,
                    attempts=4, base_delay=0.01,
                    rng=random.Random(worker_id),
                )
                with client:
                    for i in range(6):
                        response = client.request(
                            {**SUMMARY, "k": 2 + (i % 3)}
                        )
                        kind = (
                            "ok" if response.get("kind") != "error"
                            else response.get("error_type", "unknown")
                        )
                        with lock:
                            outcomes.append(kind)

            threads = [
                threading.Thread(target=drive, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            hung = [t for t in threads if t.is_alive()]
            assert not hung, "client threads hung under chaos"
            assert len(outcomes) == 24
            typed = {"ok", "PoisonedRequest", "Overloaded"}
            assert set(outcomes) <= typed, outcomes
            assert outcomes.count("ok") >= 12
