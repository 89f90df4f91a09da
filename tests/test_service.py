"""Tests for the service layer: wire format, engine caching, serve loop."""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path

import pytest

from repro.common.errors import InvalidParameterError, SchemaError
from repro.core.answers import AnswerSet
from repro.service import (
    Dispatcher,
    Engine,
    ErrorResponse,
    ExploreRequest,
    GuidanceRequest,
    GuidanceResponse,
    SummaryRequest,
    SummaryResponse,
    parse_request,
    parse_response,
    serve,
)
from repro.service.serve import serve_line
from tests.conftest import (
    paper_like_answers,
    random_answer_set,
    zero_timings,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def engine() -> Engine:
    eng = Engine()
    eng.register_dataset("paper", paper_like_answers())
    return eng


class TestWireRoundTrip:
    def test_summary_request_roundtrip(self):
        request = SummaryRequest(
            dataset="paper", k=3, L=4, D=1, algorithm="bottom-up",
            options={"use_delta": False}, include_elements=True,
        )
        assert SummaryRequest.from_dict(request.to_dict()) == request
        assert SummaryRequest.from_json(request.to_json()) == request

    def test_explore_request_roundtrip(self):
        request = ExploreRequest(
            dataset="paper", k=3, L=4, D=1, k_range=(2, 5), d_values=(1, 2),
        )
        parsed = ExploreRequest.from_json(request.to_json())
        assert parsed == request
        assert isinstance(parsed.k_range, tuple)
        assert isinstance(parsed.d_values, tuple)

    def test_guidance_request_roundtrip(self):
        request = GuidanceRequest(
            dataset="paper", L=4, k_range=(2, 5), d_values=(1, 2),
        )
        assert GuidanceRequest.from_json(request.to_json()) == request

    def test_summary_response_roundtrip(self, engine):
        response = engine.submit(
            SummaryRequest(dataset="paper", k=2, L=4, D=1,
                           include_elements=True)
        )
        parsed = SummaryResponse.from_json(response.to_json())
        assert parsed == response
        assert parsed.total_seconds == pytest.approx(response.total_seconds)

    def test_guidance_response_roundtrip(self, engine):
        response = engine.submit(
            GuidanceRequest(dataset="paper", L=4, k_range=(2, 4),
                            d_values=(1, 2))
        )
        assert GuidanceResponse.from_json(response.to_json()) == response

    def test_error_response_roundtrip(self):
        error = ErrorResponse(error_type="InvalidParameterError",
                              message="k=0 out of range")
        assert ErrorResponse.from_json(error.to_json()) == error

    def test_parse_request_dispatches_by_kind(self):
        payload = SummaryRequest(dataset="paper", k=2).to_dict()
        assert isinstance(parse_request(payload), SummaryRequest)
        payload = GuidanceRequest(
            dataset="paper", L=4, k_range=(2, 4), d_values=(1,)
        ).to_dict()
        assert isinstance(parse_request(payload), GuidanceRequest)

    def test_parse_response_dispatches_by_kind(self, engine):
        payload = engine.submit(
            SummaryRequest(dataset="paper", k=2, L=4, D=1)
        ).to_dict()
        assert isinstance(parse_response(payload), SummaryResponse)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown request kind"):
            parse_request({"schema_version": 2, "kind": "frobnicate"})

    def test_wrong_schema_version_rejected(self):
        payload = SummaryRequest(dataset="paper", k=2).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SchemaError, match="schema_version"):
            SummaryRequest.from_dict(payload)

    def test_unknown_keys_rejected(self):
        payload = SummaryRequest(dataset="paper", k=2).to_dict()
        payload["kk"] = 3
        with pytest.raises(SchemaError, match="kk"):
            SummaryRequest.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            SummaryRequest.from_json("{not json")

    def test_wrong_field_types_rejected_at_boundary(self):
        with pytest.raises(SchemaError, match="k must be an integer"):
            SummaryRequest(dataset="paper", k="two")
        with pytest.raises(SchemaError, match="k_range"):
            ExploreRequest(dataset="paper", k=2, L=3, D=0, k_range=5,
                           d_values=(0,))
        with pytest.raises(SchemaError, match="d_values"):
            GuidanceRequest(dataset="paper", L=3, k_range=(1, 2),
                            d_values="1,2")

    def test_missing_required_key_is_schema_error(self):
        with pytest.raises(SchemaError, match="missing required"):
            SummaryRequest.from_dict({"schema_version": 2, "kind": "summary"})
        with pytest.raises(SchemaError, match="missing required"):
            GuidanceRequest.from_dict({
                "schema_version": 2, "kind": "guidance", "dataset": "paper",
            })

    def test_wrong_field_type_over_wire_is_error_payload(self, engine):
        """A type-confused request must not crash the serve loop."""
        response = engine.submit_dict({
            "schema_version": 2, "kind": "summary", "dataset": "paper",
            "k": "two",
        })
        assert response["kind"] == "error"
        assert "integer" in response["message"]


class TestGoldenWireFormat:
    def test_summary_response_matches_golden_file(self, engine):
        """The wire schema is a contract: field names, nesting, and the
        solution content for a fixed request must not drift silently."""
        response = engine.submit(
            SummaryRequest(dataset="paper", k=2, L=4, D=1,
                           algorithm="bottom-up", include_elements=True)
        )
        payload = response.to_dict()
        # Timings are machine-dependent; the golden file pins them to 0.
        for key in ("init_seconds", "algo_seconds", "total_seconds"):
            assert isinstance(payload[key], float)
            payload[key] = 0.0
        for key, value in payload["phase_seconds"].items():
            assert isinstance(value, float)
            payload["phase_seconds"][key] = 0.0
        golden = json.loads(
            (GOLDEN_DIR / "summary_response.json").read_text()
        )
        assert json.loads(json.dumps(payload)) == golden


class TestEngineCaching:
    def test_resubmission_hits_cache(self, engine):
        request = SummaryRequest(dataset="paper", k=2, L=4, D=1)
        cold = engine.submit(request)
        warm = engine.submit(request)
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert warm.init_seconds <= cold.init_seconds
        assert warm.init_seconds == 0.0
        assert warm.clusters == cold.clusters
        assert warm.objective == pytest.approx(cold.objective)

    def test_json_resubmission_acceptance(self, engine):
        """The ISSUE acceptance criterion, end to end over the wire."""
        wire = json.loads(
            SummaryRequest(dataset="paper", k=2, L=4, D=1).to_json()
        )
        first = engine.submit_dict(wire)
        second = engine.submit_dict(json.loads(json.dumps(wire)))
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["init_seconds"] < max(first["init_seconds"], 1e-9)
        assert second["clusters"] == first["clusters"]

    def test_pool_shared_across_L_equal_requests(self, engine):
        engine.submit(SummaryRequest(dataset="paper", k=2, L=4, D=1))
        engine.submit(SummaryRequest(dataset="paper", k=3, L=4, D=0))
        stats = engine.stats()
        assert stats.pools.misses == 1
        assert stats.pools.hits == 1

    def test_explore_store_cached_across_requests(self, engine):
        request = ExploreRequest(
            dataset="paper", k=3, L=4, D=1, k_range=(2, 4), d_values=(1, 2),
        )
        cold = engine.submit(request)
        warm = engine.submit(request)
        assert cold.algorithm == "precomputed"
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert warm.objective == pytest.approx(cold.objective)

    def test_explore_matches_summary_store_objective(self, engine):
        explore = engine.submit(ExploreRequest(
            dataset="paper", k=3, L=4, D=1, k_range=(2, 4), d_values=(1,),
        ))
        store, _, _ = engine.checkout_store("paper", 4, (2, 4), (1,))
        assert explore.objective == pytest.approx(store.objective(3, 1))

    def test_d_values_order_does_not_split_cache(self, engine):
        first, _, _ = engine.checkout_store("paper", 4, (2, 4), [2, 1])
        second, _, _ = engine.checkout_store("paper", 4, (2, 4), [1, 2, 2])
        assert first is second

    def test_eager_and_lazy_share_cached_state(self, engine):
        """``lazy`` names the ``eager`` mapping: the second name hits the
        pool and store the first built, an append carries one pool, and
        the answers match once timings are zeroed."""
        summary = {"schema_version": 2, "kind": "summary",
                   "dataset": "paper", "k": 2, "L": 4, "D": 1}
        explore = {"schema_version": 2, "kind": "explore",
                   "dataset": "paper", "k": 3, "L": 4, "D": 1,
                   "k_range": [2, 4], "d_values": [1, 2]}
        for payload in (summary, explore):
            eager = engine.submit_dict(dict(payload, mapping="eager"))
            lazy = engine.submit_dict(dict(payload, mapping="lazy"))
            assert (eager.pop("cache_hit"), lazy.pop("cache_hit")) == (
                False, True
            )
            assert zero_timings(lazy) == zero_timings(eager)
        stats = engine.stats()
        assert (stats.pools.size, stats.pools.misses) == (1, 1)
        assert (stats.stores.size, stats.stores.misses) == (1, 1)
        pool, _, hit = engine.checkout_pool("paper", 4, "lazy")
        assert hit and pool.strategy == "eager"
        appended = engine.append_rows("paper", [("2000s", "poet")], [1.0])
        assert appended["pools_maintained"] == 1

    def test_lru_eviction_bounds_pool_cache(self):
        eng = Engine(max_pools=2)
        eng.register_dataset("r", random_answer_set(n=30, m=4, domain=3,
                                                    seed=3))
        for L in (4, 5, 6, 7):
            eng.checkout_pool("r", L)
        stats = eng.stats()
        assert stats.pools.size == 2
        assert stats.pools.evictions == 2

    def test_failed_build_does_not_leak_build_locks(self, engine):
        for L in (100, 200, 300):  # far beyond n=8 -> ClusterPool raises
            with pytest.raises(InvalidParameterError):
                engine.checkout_pool("paper", L)
        assert engine._pools._building == {}

    def test_concurrent_submissions_share_one_build(self, engine):
        request = SummaryRequest(dataset="paper", k=2, L=5, D=1)
        responses = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            responses.append(engine.submit(request))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(responses) == 4
        stats = engine.stats()
        assert stats.pools.misses == 1  # one build, everyone else waited
        objectives = {r.objective for r in responses}
        assert len(objectives) == 1


class TestEngineValidation:
    def test_unknown_dataset(self, engine):
        with pytest.raises(InvalidParameterError, match="unknown dataset"):
            engine.submit(SummaryRequest(dataset="nope", k=2))

    def test_duplicate_dataset_rejected(self, engine):
        with pytest.raises(InvalidParameterError, match="already registered"):
            engine.register_dataset("paper", paper_like_answers())
        engine.register_dataset("paper", paper_like_answers(), replace=True)

    def test_unknown_algorithm_over_the_wire(self, engine):
        response = engine.submit_dict({
            "schema_version": 2, "kind": "summary", "dataset": "paper",
            "k": 2, "algorithm": "nope",
        })
        assert response["kind"] == "error"
        assert response["error_type"] == "InvalidParameterError"
        assert "nope" in response["message"]

    def test_unknown_mapping_rejected_before_caching(self, engine):
        for payload in (
            {"kind": "summary", "k": 2, "L": 4, "D": 1},
            {"kind": "explore", "k": 3, "L": 4, "D": 1, "k_range": [2, 4],
             "d_values": [1]},
            {"kind": "guidance", "L": 4, "k_range": [2, 4],
             "d_values": [1]},
        ):
            response = engine.submit_dict(dict(
                payload, schema_version=2, dataset="paper", mapping="bogus"
            ))
            assert response["error_type"] == "InvalidParameterError"
            assert response["message"] == (
                "unknown mapping strategy 'bogus'; expected one of "
                "('eager', 'naive', 'lazy')"
            )
        stats = engine.stats()
        assert (stats.pools.size, stats.stores.size) == (0, 0)

    def test_python_kernel_is_a_typed_error_on_every_kind(self, engine):
        """The python kernel left the wire in 4.0.0: naming it in summary
        options, an explore or a guidance request answers a typed error."""
        for payload, error_type in (
            ({"kind": "summary", "k": 2, "L": 4, "D": 1,
              "algorithm": "bottom-up", "options": {"kernel": "python"}},
             "InvalidParameterError"),
            ({"kind": "explore", "k": 3, "L": 4, "D": 1, "k_range": [2, 4],
              "d_values": [1], "kernel": "python"}, "SchemaError"),
            ({"kind": "guidance", "L": 4, "k_range": [2, 4],
              "d_values": [1], "kernel": "python"}, "SchemaError"),
        ):
            response = engine.submit_dict(
                dict(payload, schema_version=2, dataset="paper")
            )
            assert response["kind"] == "error"
            assert response["error_type"] == error_type
            assert "python" in response["message"]
        stats = engine.stats()
        assert (stats.pools.size, stats.stores.size) == (0, 0)

    def test_store_bounds_k_range_and_d_values_as_a_summary(self, engine):
        """Explore and guidance reject k_max > n and any D outside
        [0, m], as a summary rejects k and D, before any pool or sweep
        is built: a k_max of 10^6 on an 8-row dataset used to record
        10^6 k's."""
        for bounds in (
            {"k_range": [1, 1000000], "d_values": [1]},
            {"k_range": [2, 9], "d_values": [1]},
            {"k_range": [2, 4], "d_values": [-7, 0, 99]},
            {"k_range": [2, 4], "d_values": [3]},
        ):
            for payload in (
                {"kind": "explore", "k": 2, "L": 4, "D": 1},
                {"kind": "guidance", "L": 4},
            ):
                response = engine.submit_dict(dict(
                    payload, schema_version=2, dataset="paper", **bounds
                ))
                assert response["kind"] == "error", (payload, bounds)
                assert response["error_type"] == "InvalidParameterError"
        stats = engine.stats()
        assert (stats.pools.size, stats.stores.size) == (0, 0)
        # The bounds themselves are served: k_max = n = 8, D = m = 2.
        response = engine.submit_dict({
            "schema_version": 2, "kind": "explore", "dataset": "paper",
            "k": 8, "L": 4, "D": 2, "k_range": [1, 8], "d_values": [0, 2],
        })
        assert response["kind"] == "summary_response"

    def test_bad_option_over_the_wire(self, engine):
        response = engine.submit_dict({
            "schema_version": 2, "kind": "summary", "dataset": "paper",
            "k": 2, "options": {"bogus": 1},
        })
        assert response["kind"] == "error"
        assert "bogus" in response["message"]

    def test_defaults_k_and_L_resolved(self, engine):
        response = engine.submit(SummaryRequest(dataset="paper"))
        n = paper_like_answers().n
        assert (response.k, response.L) == (n, n)

    def test_guidance_series_match_view(self, engine):
        response = engine.submit(GuidanceRequest(
            dataset="paper", L=4, k_range=(2, 4), d_values=(1, 2),
        ))
        assert {s.D for s in response.series} == {1, 2}
        for series in response.series:
            assert series.k_values == (2, 3, 4)
            assert len(series.averages) == 3


class TestServeLoop:
    def run_lines(self, engine, *payloads: dict) -> list[dict]:
        stdin = io.StringIO(
            "\n".join(json.dumps(p) for p in payloads) + "\n"
        )
        stdout = io.StringIO()
        serve(stdin, stdout, engine=engine)
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_ping_and_summary_and_stats(self, engine):
        responses = self.run_lines(
            engine,
            {"kind": "ping"},
            {"schema_version": 2, "kind": "summary", "dataset": "paper",
             "k": 2, "L": 4, "D": 1},
            {"kind": "stats"},
        )
        assert [r["kind"] for r in responses] == [
            "pong", "summary_response", "stats"
        ]
        assert responses[2]["requests"] == 1
        assert responses[2]["datasets"] == ["paper"]

    def test_algorithms_introspection(self, engine):
        (response,) = self.run_lines(engine, {"kind": "algorithms"})
        names = {a["name"] for a in response["algorithms"]}
        assert "hybrid" in names
        assert all("kwargs" in a for a in response["algorithms"])

    def test_malformed_line_yields_error_not_crash(self, engine):
        stdin = io.StringIO("this is not json\n"
                            '{"kind": "ping"}\n')
        stdout = io.StringIO()
        serve(stdin, stdout, engine=engine)
        first, second = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert first["kind"] == "error"
        assert second["kind"] == "pong"

    def test_blank_lines_skipped(self, engine):
        responses = self.run_lines(engine, {"kind": "ping"})
        stdin = io.StringIO("\n\n")
        stdout = io.StringIO()
        assert serve(stdin, stdout, engine=engine) == 0
        assert responses[0]["kind"] == "pong"

    def test_load_csv_then_query(self, engine, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("era,grp,val\n1970s,student,4.5\n1980s,student,4.0\n"
                        "1990s,writer,2.0\n")
        responses = self.run_lines(
            engine,
            {"kind": "load_csv", "path": str(path)},
            {"schema_version": 2, "kind": "summary", "dataset": "mini",
             "k": 2, "L": 2, "D": 0},
        )
        assert responses[0]["kind"] == "dataset_loaded"
        assert responses[0]["n"] == 3
        assert responses[1]["kind"] == "summary_response"

    def test_load_missing_csv_reports_error(self, engine):
        (response,) = self.run_lines(
            engine, {"kind": "load_csv", "path": "/does/not/exist.csv"}
        )
        assert response["kind"] == "error"

    def test_load_non_numeric_csv_reports_error_and_loop_survives(
        self, engine, tmp_path
    ):
        path = tmp_path / "text.csv"
        path.write_text("era,val\n1970s,high\n")
        responses = self.run_lines(
            engine,
            {"kind": "load_csv", "path": str(path)},
            {"kind": "ping"},
        )
        assert responses[0]["kind"] == "error"
        assert "numeric" in responses[0]["message"]
        assert responses[1]["kind"] == "pong"


class TestServeLoopTermination:
    """The satellite contracts: shutdown kind, clean EOF, hostile input."""

    def run_stream(self, engine, text: str):
        stdout = io.StringIO()
        written = serve(io.StringIO(text), stdout, engine=engine)
        return written, [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]

    def test_shutdown_acks_and_stops_the_loop(self, engine):
        written, responses = self.run_stream(
            engine,
            '{"kind": "ping"}\n'
            '{"kind": "shutdown"}\n'
            '{"kind": "ping"}\n',  # must never be served
        )
        assert written == 2
        assert [r["kind"] for r in responses] == ["pong", "shutdown_ack"]
        assert responses[1]["scope"] == "session"

    def test_shutdown_server_scope_acks_with_scope(self, engine):
        _, responses = self.run_stream(
            engine, '{"kind": "shutdown", "scope": "server"}\n'
        )
        assert responses[0] == {
            "kind": "shutdown_ack", "schema_version": 2, "scope": "server",
        }

    def test_bad_shutdown_scope_is_error_and_loop_survives(self, engine):
        _, responses = self.run_stream(
            engine,
            '{"kind": "shutdown", "scope": "bogus"}\n{"kind": "ping"}\n',
        )
        assert responses[0]["kind"] == "error"
        assert "scope" in responses[0]["message"]
        assert responses[1]["kind"] == "pong"

    def test_eof_terminates_cleanly_without_output(self, engine):
        written, responses = self.run_stream(engine, "")
        assert written == 0
        assert responses == []

    def test_eof_after_requests_is_clean(self, engine):
        written, responses = self.run_stream(engine, '{"kind": "ping"}')
        assert written == 1  # final unterminated line still served
        assert responses[0]["kind"] == "pong"

    def test_oversized_line_rejected_with_line_too_long(self, engine):
        stdout = io.StringIO()
        dispatcher = Dispatcher(engine, max_line_bytes=64)
        serve(
            io.StringIO('{"pad": "%s"}\n{"kind": "ping"}\n' % ("x" * 200)),
            stdout, dispatcher=dispatcher,
        )
        first, second = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert first["kind"] == "error"
        assert first["error_type"] == "LineTooLong"
        assert second["kind"] == "pong"
        assert dispatcher.oversized == 1

    def test_giant_line_discarded_in_chunks_one_error(self, engine):
        """A line many times the limit streams through the bounded reader
        as chunks, yields exactly one LineTooLong, and the loop recovers
        at the next newline — stdio mirrors the TCP framing guarantee."""
        dispatcher = Dispatcher(engine, max_line_bytes=64)
        stdout = io.StringIO()
        serve(
            io.StringIO("x" * 10_000 + '\n{"kind": "ping"}\n'),
            stdout, dispatcher=dispatcher,
        )
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert [r["kind"] for r in responses] == ["error", "pong"]
        assert responses[0]["error_type"] == "LineTooLong"
        assert dispatcher.oversized == 1

    def test_oversized_final_line_at_eof(self, engine):
        dispatcher = Dispatcher(engine, max_line_bytes=64)
        stdout = io.StringIO()
        written = serve(io.StringIO("y" * 500), stdout,
                        dispatcher=dispatcher)
        (response,) = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert written == 1
        assert response["error_type"] == "LineTooLong"

    def test_undecodable_bytes_rejected_with_error_response(self, engine):
        """Bad bytes on a text stream produce an error line, never an
        exception.  (The text decoder discards the rest of its chunk, so
        per-line recovery is a TCP-framing feature — tested in
        test_server.py; stdio just has to fail soft and terminate.)"""
        raw = io.BytesIO(b'\xff\xfe\n{"kind": "ping"}\n')
        stream = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        stdout = io.StringIO()
        written = serve(stream, stdout, engine=engine)
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert written == len(responses) >= 1
        assert responses[0]["kind"] == "error"
        assert "UTF-8" in responses[0]["message"]

    def test_dispatcher_bytes_line_paths(self, engine):
        dispatcher = Dispatcher(engine, max_line_bytes=64)
        oversized = dispatcher.dispatch_line(b"x" * 100)
        assert oversized.response["error_type"] == "LineTooLong"
        undecodable = dispatcher.dispatch_line(b"\xff\xfe")
        assert undecodable.response["error_type"] == "SchemaError"
        pong = dispatcher.dispatch_line(b'{"kind": "ping"}\n')
        assert pong.response["kind"] == "pong"
        assert pong.kind == "ping"
        assert dispatcher.undecodable == 1

    def test_stats_reports_rejection_counters(self, engine):
        dispatcher = Dispatcher(engine, max_line_bytes=64)
        dispatcher.dispatch_line("y" * 100)
        dispatcher.dispatch_line("not json")
        stats = dispatcher.dispatch_line('{"kind": "stats"}').response
        assert stats["rejected"] == {
            "oversized": 1, "undecodable": 0, "malformed": 1,
            "auth": 0, "quota": 0, "deadline": 0, "draining": 0,
        }
        assert "coalesced" in stats["pools"]

    def test_serve_line_compat_wrapper(self, engine):
        assert serve_line(engine, "\n") is None
        assert serve_line(engine, '{"kind": "ping"}')["kind"] == "pong"


class TestSessionEngineSharing:
    def test_two_sessions_share_pools(self):
        from repro.interactive.session import ExplorationSession

        answers = random_answer_set(n=40, m=4, domain=4, seed=11)
        engine = Engine()
        first = ExplorationSession(answers, engine=engine, dataset="shared")
        second = ExplorationSession(answers, engine=engine, dataset="shared")
        assert first.pool(8) is second.pool(8)
        assert engine.stats().pools.misses == 1

    def test_session_rejects_conflicting_dataset(self):
        from repro.interactive.session import ExplorationSession

        engine = Engine()
        ExplorationSession(
            random_answer_set(n=20, m=3, domain=3, seed=1),
            engine=engine, dataset="shared",
        )
        with pytest.raises(ValueError, match="different"):
            ExplorationSession(
                random_answer_set(n=20, m=3, domain=3, seed=2),
                engine=engine, dataset="shared",
            )

    def test_precompute_records_session_init_seconds(self):
        from repro.interactive.session import ExplorationSession

        answers = random_answer_set(n=60, m=4, domain=4, seed=11)
        session = ExplorationSession(answers)
        session.precompute(L=10, k_range=(2, 6), d_values=[1])
        # The pool was built by this session (via precompute), so its init
        # cost must be attributed to it, not reported as 0.
        assert session.init_seconds(10) > 0.0

    def test_session_solve_reports_cache_hit(self):
        from repro.interactive.session import ExplorationSession

        answers = random_answer_set(n=40, m=4, domain=4, seed=11)
        session = ExplorationSession(answers)
        cold = session.solve(k=4, L=8, D=1)
        warm = session.solve(k=3, L=8, D=1)
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert warm.init_seconds == 0.0
