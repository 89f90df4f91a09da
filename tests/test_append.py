"""Incremental append maintenance: extended sets/pools ≡ from-scratch.

The append scenario's core guarantee: after any sequence of row appends,
the incrementally maintained state — :meth:`AnswerSet.extended`'s grown
set plus :meth:`ClusterPool.extended`'s carried-over pool — is *bit-identical*
to rebuilding from scratch over the concatenated rows, on both kernels
(bitset holds int masks; dense packs uint64 blocks) and all three
mapping strategies.  On top sit the service-layer contracts: dataset versions key
caches so stale pools/stores are unreachable, cached pools are carried
over (not dropped) by an append, and the ``append_rows`` wire kind
round-trips with typed errors for hostile input.
"""

from __future__ import annotations

import http.client
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import serve_main
from repro.core import reference
from repro.core.answers import AnswerSet
from repro.core.bitset import DENSE_KERNEL
from repro.core.bottom_up import bottom_up
from repro.core.semilattice import ClusterPool
from repro.server import BackgroundServer, LineClient, TCPServer
from repro.service import Engine
from repro.service.serve import Dispatcher
from repro.web import WebServer

pytestmark = pytest.mark.tier1


# -- AnswerSet.extended -------------------------------------------------------


class TestAnswerSetExtended:
    def test_delta_is_final_rank_positions(self):
        answers = AnswerSet.from_rows(
            [("a",), ("b",), ("c",)], [9.0, 5.0, 1.0]
        )
        bigger, delta = answers.extended([("d",), ("e",)], [7.0, 0.5])
        assert [bigger.values[i] for i in delta] == [7.0, 0.5]
        assert bigger.values == [9.0, 7.0, 5.0, 1.0, 0.5]
        assert bigger.n == 5

    def test_original_set_is_untouched_and_codec_shared(self):
        answers = AnswerSet.from_rows([("a",), ("b",)], [2.0, 1.0])
        bigger, _ = answers.extended([("z",)], [3.0])
        assert answers.n == 2
        assert bigger.codec is answers.codec
        assert bigger.decode(bigger.elements[0]) == ("z",)

    def test_duplicate_append_is_rejected(self):
        answers = AnswerSet.from_rows([("a",), ("b",)], [2.0, 1.0])
        from repro.common.errors import SchemaError

        with pytest.raises(SchemaError):
            answers.extended([("a",)], [5.0])
        with pytest.raises(SchemaError):
            answers.extended([("c",), ("c",)], [5.0, 4.0])
        with pytest.raises(SchemaError):
            answers.extended([], [])
        with pytest.raises(SchemaError):
            answers.extended([("c",)], [1.0, 2.0])

    def test_codecless_sets_extend_with_encoded_tuples(self):
        answers = AnswerSet([(0, 1), (1, 0)], [2.0, 1.0])
        bigger, delta = answers.extended([(2, 2)], [9.0])
        assert bigger.elements[delta[0]] == (2, 2)


# -- pool after k appends ≡ pool rebuilt from scratch -------------------------


@st.composite
def append_runs(draw):
    """A base instance plus 1-3 append batches of distinct rows.

    Values are dyadic rationals (q/4) so every partial sum is exact and
    the cross-kernel comparison can demand identical floats.
    """
    m = draw(st.integers(min_value=2, max_value=3))
    domain = draw(st.integers(min_value=2, max_value=4))
    element_strategy = st.tuples(
        *[st.integers(min_value=0, max_value=domain - 1)] * m
    )
    universe = draw(
        st.lists(element_strategy, min_size=6, max_size=20, unique=True)
    )
    values = [
        q / 4.0
        for q in draw(
            st.lists(
                st.integers(min_value=0, max_value=40),
                min_size=len(universe),
                max_size=len(universe),
            )
        )
    ]
    base_n = draw(st.integers(min_value=4, max_value=max(4, len(universe) - 2)))
    base_n = min(base_n, len(universe) - 1)
    batches = []
    cursor = base_n
    while cursor < len(universe):
        size = draw(st.integers(min_value=1, max_value=len(universe) - cursor))
        batches.append(
            (universe[cursor:cursor + size], values[cursor:cursor + size])
        )
        cursor += size
    L = draw(st.integers(min_value=1, max_value=min(base_n, 6)))
    strategy = draw(st.sampled_from(["eager", "naive"]))
    return universe[:base_n], values[:base_n], batches, L, strategy


def _assert_pools_identical(maintained, rebuilt):
    assert list(maintained.patterns()) == list(rebuilt.patterns())
    for pattern in rebuilt.patterns():
        left, right = maintained.mask(pattern), rebuilt.mask(pattern)
        # Key on the kernel the pool resolved: without numpy a "dense"
        # pool holds int masks.
        if rebuilt.kernel == DENSE_KERNEL:
            assert left._as_int() == right._as_int(), pattern
            assert left.nbits == right.nbits
        else:
            assert left == right, pattern
        assert maintained.coverage(pattern) == rebuilt.coverage(pattern)
        assert (
            maintained.cluster(pattern).value_sum
            == rebuilt.cluster(pattern).value_sum
        ), pattern


@settings(max_examples=60, deadline=None)
@given(append_runs())
def test_pool_after_appends_equals_rebuild_int_masks(run):
    """bitset kernel (int-mask pools): maintenance ≡ rebuild."""
    elements, values, batches, L, strategy = run
    answers = AnswerSet(elements, values)
    pool = ClusterPool(answers, L, strategy=strategy)
    for rows, row_values in batches:
        answers, delta = answers.extended(rows, row_values)
        pool = pool.extended(answers, delta)
        rebuilt = ClusterPool(answers, L, strategy=strategy)
        _assert_pools_identical(pool, rebuilt)


@settings(max_examples=40, deadline=None)
@given(append_runs())
def test_pool_after_appends_equals_rebuild_dense_numpy(run):
    elements, values, batches, L, strategy = run
    answers = AnswerSet(elements, values)
    pool = ClusterPool(answers, L, strategy=strategy, kernel="dense")
    for rows, row_values in batches:
        answers, delta = answers.extended(rows, row_values)
        pool = pool.extended(answers, delta)
        rebuilt = ClusterPool(answers, L, strategy=strategy, kernel="dense")
        _assert_pools_identical(pool, rebuilt)


@settings(max_examples=30, deadline=None)
@given(append_runs(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2))
def test_solutions_identical_on_maintained_pools(run, k, D):
    """Solve-level equivalence: bottom-up on the maintained pool returns
    the same clusters/objective as on a rebuilt pool, int and dense, and
    so does the reference engine on the maintained coverage sets."""
    elements, values, batches, L, strategy = run
    answers = AnswerSet(elements, values)
    int_pool = ClusterPool(answers, L, strategy=strategy)
    dense_pool = ClusterPool(answers, L, strategy=strategy, kernel="dense")
    for rows, row_values in batches:
        answers, delta = answers.extended(rows, row_values)
        int_pool = int_pool.extended(answers, delta)
        dense_pool = dense_pool.extended(answers, delta)
    rebuilt = ClusterPool(answers, L, strategy=strategy)
    expected = bottom_up(rebuilt, k, D)
    for solution in (bottom_up(int_pool, k, D),
                     bottom_up(dense_pool, k, D),
                     reference.bottom_up(int_pool, k, D)):
        assert solution.avg == expected.avg
        assert {c.pattern for c in solution.clusters} == {
            c.pattern for c in expected.clusters
        }


def test_full_rebuild_fallback_when_top_l_churns():
    """An append dominated by new top-L rows replaces most of the pool;
    the result must still equal a from-scratch pool."""
    answers = AnswerSet.from_rows(
        [("a", "x"), ("b", "y"), ("c", "z")], [3.0, 2.0, 1.0]
    )
    pool = ClusterPool(answers, L=2)
    rows = [("p", "q"), ("r", "s"), ("t", "u"), ("v", "w")]
    answers2, delta = answers.extended(rows, [99.0, 98.0, 97.0, 96.0])
    maintained = pool.extended(answers2, delta)
    rebuilt = ClusterPool(answers2, L=2)
    _assert_pools_identical(maintained, rebuilt)


def test_extended_rejects_inconsistent_delta():
    from repro.common.errors import InvalidParameterError

    answers = AnswerSet.from_rows([("a",), ("b",)], [2.0, 1.0])
    pool = ClusterPool(answers, L=1)
    bigger, _delta = answers.extended([("c",)], [3.0])
    with pytest.raises(InvalidParameterError):
        pool.extended(bigger, [0, 1])


@pytest.mark.parametrize("kernel", ["bitset", "dense"])
def test_append_that_widens_a_field_repacks_the_pool(kernel):
    """A 16th value of the first attribute takes ``code + 1`` from 15 to
    16, one bit wider: the carried-over pool must derive its packing
    again (a packing carried over could not pack the new row, which
    enters the top-L), and answer as a fresh engine over base + row."""
    rows = [("a%d" % (i % 15), "b%d" % (i % 4), "c%d" % (i % 3))
            for i in range(60)]
    values = [(i * 37 % 64) / 8 for i in range(60)]
    row, value = ("a15", "b0", "c1"), 99.0
    summary = {"schema_version": 2, "kind": "summary", "dataset": "wide",
               "k": 3, "L": 10, "D": 1, "options": {"kernel": kernel}}
    explore = {"schema_version": 2, "kind": "explore", "dataset": "wide",
               "k": 3, "L": 10, "D": 1, "k_range": [2, 5],
               "d_values": [0, 1], "kernel": kernel}
    engine = Engine()
    engine.register_dataset("wide", AnswerSet.from_rows(rows, values))
    engine.submit_dict(summary)
    before = engine.checkout_pool("wide", 10, kernel=kernel)[0]
    engine.append_rows("wide", [row], [value])
    maintained, _, hit = engine.checkout_pool("wide", 10, kernel=kernel)
    assert hit
    assert maintained.packing.width == before.packing.width + 1
    fresh = Engine()
    fresh.register_dataset(
        "wide", AnswerSet.from_rows(rows + [row], values + [value])
    )
    for request in (summary, explore):
        got = engine.submit_dict(dict(request))
        want = fresh.submit_dict(dict(request))
        for key in ("objective", "clusters", "covered_count",
                    "solution_size"):
            assert got[key] == want[key], key


# -- service layer: versioned caches + the append_rows wire kind --------------


def _paper_engine() -> tuple[Engine, AnswerSet]:
    answers = AnswerSet.from_rows(
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "x")],
        [9.0, 7.0, 5.0, 3.0, 1.0],
    )
    engine = Engine()
    engine.register_dataset("toy", answers)
    return engine, answers


SUMMARY = {
    "schema_version": 2, "kind": "summary", "dataset": "toy",
    "k": 2, "L": 3, "D": 1,
}


class TestEngineAppend:
    def test_append_bumps_version_and_carries_pools(self):
        engine, _ = _paper_engine()
        dispatcher = Dispatcher(engine)
        assert engine.dataset_version("toy") == 0
        cold = dispatcher.dispatch_payload(dict(SUMMARY)).response
        assert cold["cache_hit"] is False
        result = engine.append_rows("toy", [("c", "y")], [8.0])
        assert result["version"] == 1
        assert result["appended"] == 1
        assert result["pools_maintained"] == 1
        assert engine.dataset_version("toy") == 1
        # The carried-over pool serves the new version's requests warm.
        warm = dispatcher.dispatch_payload(dict(SUMMARY)).response
        assert warm["cache_hit"] is True

    def test_post_append_answers_match_fresh_engine(self):
        engine, _ = _paper_engine()
        dispatcher = Dispatcher(engine)
        dispatcher.dispatch_payload(dict(SUMMARY))
        engine.append_rows("toy", [("c", "y"), ("d", "x")], [8.0, 2.0])
        maintained = dispatcher.dispatch_payload(dict(SUMMARY)).response
        fresh = Engine()
        fresh.register_dataset(
            "toy",
            AnswerSet.from_rows(
                [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
                 ("c", "x"), ("c", "y"), ("d", "x")],
                [9.0, 7.0, 5.0, 3.0, 1.0, 8.0, 2.0],
            ),
        )
        reference = Dispatcher(fresh).dispatch_payload(
            dict(SUMMARY)
        ).response
        for key in ("objective", "clusters", "covered_count",
                    "solution_size"):
            assert maintained[key] == reference[key], key

    def test_appends_drop_superseded_cache_entries(self):
        engine, _ = _paper_engine()
        dispatcher = Dispatcher(engine)
        explore = {
            "schema_version": 2, "kind": "explore", "dataset": "toy",
            "k": 2, "L": 3, "D": 1, "k_range": [1, 3], "d_values": [0, 1],
        }
        for L in (2, 3):
            dispatcher.dispatch_payload(dict(SUMMARY, L=L))
        dispatcher.dispatch_payload(dict(explore))
        appended = [(("c", "y"), 8.0), (("d", "x"), 2.0), (("d", "y"), 6.0)]
        for row, value in appended:
            engine.append_rows("toy", [row], [value])
        version = engine.dataset_version("toy")
        live = [key for key, _ in engine._pools.snapshot_items()
                if key[1] == version]
        assert len(live) == 2
        assert engine.stats().pools.size == len(live)
        assert engine.stats().stores.size == 0
        fresh = Engine()
        fresh.register_dataset("toy", AnswerSet.from_rows(
            [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "x")]
            + [row for row, _ in appended],
            [9.0, 7.0, 5.0, 3.0, 1.0] + [value for _, value in appended],
        ))
        for payload in (dict(SUMMARY), dict(SUMMARY, L=2), dict(explore)):
            maintained = dispatcher.dispatch_payload(dict(payload)).response
            reference = Dispatcher(fresh).dispatch_payload(payload).response
            for key in ("objective", "clusters", "covered_count"):
                assert maintained[key] == reference[key], key
        engine.register_dataset("toy", fresh.dataset("toy"), replace=True)
        assert engine.stats().pools.size == 0
        assert engine.stats().stores.size == 0

    @pytest.mark.parametrize("kind, checkout", [
        ("summary", "checkout_pool"), ("explore", "checkout_store"),
    ])
    def test_read_racing_an_append_answers_one_version(self, kind, checkout):
        """An append published between a read's dataset lookup and its
        pool/store checkout: the response (elements included) equals a
        fresh engine's over the appended content, never a mix of two
        versions."""
        engine, _ = _paper_engine()
        checkout_once = getattr(engine, checkout)

        def racing(*args, **kwargs):
            setattr(engine, checkout, checkout_once)
            engine.append_rows("toy", [("d", "w")], [9.0])
            return checkout_once(*args, **kwargs)

        setattr(engine, checkout, racing)
        payload = {
            "schema_version": 2, "kind": kind, "dataset": "toy",
            "k": 2, "L": 3, "D": 1, "include_elements": True,
        }
        if kind == "explore":
            payload.update(k_range=[1, 3], d_values=[0, 1])
        raced = Dispatcher(engine).dispatch_payload(dict(payload)).response
        assert engine.dataset_version("toy") == 1
        fresh = Engine()
        fresh.register_dataset("toy", AnswerSet.from_rows(
            [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "x"),
             ("d", "w")],
            [9.0, 7.0, 5.0, 3.0, 1.0, 9.0],
        ))
        reference = Dispatcher(fresh).dispatch_payload(payload).response
        for key in ("objective", "clusters", "covered_count",
                    "solution_size"):
            assert raced[key] == reference[key], key

    def test_stores_of_old_version_are_unreachable(self):
        engine, _ = _paper_engine()
        explore = {
            "schema_version": 2, "kind": "explore", "dataset": "toy",
            "k": 2, "L": 3, "D": 1, "k_range": [1, 3], "d_values": [0, 1],
        }
        dispatcher = Dispatcher(engine)
        first = dispatcher.dispatch_payload(dict(explore)).response
        assert first["cache_hit"] is False
        engine.append_rows("toy", [("z", "z")], [0.25])
        # Same request, new version: the store must rebuild, not hit.
        second = dispatcher.dispatch_payload(dict(explore)).response
        assert second["cache_hit"] is False

    def test_replace_registration_bumps_version(self):
        engine, answers = _paper_engine()
        assert engine.dataset_version("toy") == 0
        engine.register_dataset("toy", answers, replace=True)
        assert engine.dataset_version("toy") == 1

    def test_wire_kind_round_trip_and_errors(self):
        engine, _ = _paper_engine()
        dispatcher = Dispatcher(engine)
        ok = dispatcher.dispatch_payload({
            "kind": "append_rows", "dataset": "toy",
            "rows": [["c", "y"]], "values": [8.0],
        }).response
        assert ok["kind"] == "rows_appended"
        assert ok["n"] == 6 and ok["version"] == 1
        for bad, error_type in (
            ({"kind": "append_rows", "dataset": 7}, "SchemaError"),
            ({"kind": "append_rows", "dataset": "toy"}, "SchemaError"),
            ({"kind": "append_rows", "dataset": "toy", "rows": [],
              "values": []}, "SchemaError"),
            ({"kind": "append_rows", "dataset": "toy",
              "rows": [["q", "q"]], "values": ["x"]}, "SchemaError"),
            ({"kind": "append_rows", "dataset": "toy",
              "rows": [["a", "x"]], "values": [1.0]}, "SchemaError"),
            ({"kind": "append_rows", "dataset": "missing",
              "rows": [["a", "x"]], "values": [1.0]},
             "InvalidParameterError"),
        ):
            response = dispatcher.dispatch_payload(dict(bad)).response
            assert response["error_type"] == error_type, bad

    def test_append_requires_auth_on_secured_server(self):
        from repro.web import AuthService

        engine, _ = _paper_engine()
        dispatcher = Dispatcher(engine, auth=AuthService({"tok": "op"}))
        denied = dispatcher.dispatch_payload({
            "kind": "append_rows", "dataset": "toy",
            "rows": [["c", "y"]], "values": [8.0],
        }).response
        assert denied["error_type"] == "AuthError"
        allowed = dispatcher.dispatch_payload({
            "kind": "append_rows", "dataset": "toy",
            "rows": [["c", "y"]], "values": [8.0], "auth": "tok",
        }).response
        assert allowed["kind"] == "rows_appended"


# -- malformed rows on every transport ----------------------------------------

#: Rows the dispatcher must refuse with a SchemaError before the engine
#: sees them (the toy dataset has two grouping columns).
MALFORMED_ROWS = {
    "short-row": [["x"]],
    "array-cell": [[["x"], "y"]],
    "object-cell": [[{"x": 1}, "y"]],
}


def _append_payload(rows: list) -> dict:
    return {
        "kind": "append_rows", "dataset": "toy",
        "rows": rows, "values": [1.0] * len(rows),
    }


def _session(rows: list) -> list[dict]:
    """The malformed append, a ping and a good append, in order."""
    return [
        _append_payload(rows), {"kind": "ping"},
        _append_payload([["d", "x"]]),
    ]


def _assert_refused_and_unchanged(responses: list[dict]) -> None:
    refused, pong, appended = responses
    assert (refused["kind"], refused["error_type"]) == ("error", "SchemaError")
    assert pong["kind"] == "pong"
    # The refused batch did not move the dataset version.
    assert (appended["kind"], appended["version"]) == ("rows_appended", 1)


@pytest.mark.parametrize("rows", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
class TestMalformedRowsOnEveryTransport:
    def test_stdio(self, rows, tmp_path, monkeypatch, capsys):
        csv = tmp_path / "toy.csv"
        csv.write_text("a,b,v\na,x,9\na,y,7\nb,x,5\nb,y,3\nc,x,1\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(
            json.dumps(payload) + "\n" for payload in _session(rows)
        )))
        assert serve_main([str(csv)]) == 0
        _banner, *responses = map(
            json.loads, capsys.readouterr().out.splitlines()
        )
        _assert_refused_and_unchanged(responses)

    def test_tcp(self, rows):
        engine, _ = _paper_engine()
        with BackgroundServer(TCPServer(engine, shards=1)) as handle:
            with LineClient(handle.host, handle.port, timeout=30) as client:
                responses = [
                    client.request(payload) for payload in _session(rows)
                ]
        _assert_refused_and_unchanged(responses)
        assert engine.dataset_version("toy") == 1

    def test_http(self, rows, tmp_path):
        engine, _ = _paper_engine()
        server = WebServer(engine, shards=1, session_dir=str(tmp_path))
        with BackgroundServer(server) as handle:
            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            statuses, responses = [], []
            try:
                for payload in _session(rows):
                    connection.request(
                        "POST", "/v2/admin/" + payload["kind"],
                        body=json.dumps(payload),
                    )
                    reply = connection.getresponse()
                    statuses.append(reply.status)
                    responses.append(json.loads(reply.read()))
            finally:
                connection.close()
        assert statuses == [400, 200, 200]
        _assert_refused_and_unchanged(responses)
        assert engine.dataset_version("toy") == 1
