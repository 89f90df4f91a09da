"""Durability layer: WAL framing, snapshots, recovery, drain, readiness.

The torn-tail *generator* lives in ``test_durability_properties.py``
(hypothesis drives random truncation/corruption offsets); this suite
pins the deterministic contracts:

* WAL records are length-prefixed + checksummed, and :func:`scan`
  recovers exactly the longest valid prefix of any byte soup;
* snapshots round-trip the attribute codec (domains in code order), so
  recovery is bit-identical — same elements, ranks, versions, and the
  same summary bytes on both kernels;
* the ack contract: a WAL failure (injected ``short-write`` / ``ENOSPC``)
  aborts the append before anything is published, and the log stays
  replayable;
* the drain contract: seal = final flush + fsync, then typed
  :class:`ShuttingDown` refusals (``rejected.draining`` in stats,
  HTTP 503 with ``Retry-After``);
* the readiness state machine behind ``/healthz``.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.common import faults
from repro.common.errors import (
    InvalidParameterError,
    ReproError,
    SchemaError,
    ShuttingDown,
)
from repro.core.answers import AnswerSet
from repro.core.bitset import KERNELS
from repro.durability import DurabilityManager, WriteAheadLog, scan
from repro.durability.snapshot import (
    load_snapshot,
    snapshot_document,
    write_snapshot,
)
from repro.durability.wal import encode_record
from repro.server.lifecycle import (
    DRAINING,
    READY,
    RECOVERING,
    STARTING,
    ServerLifecycle,
)
from repro.server import BackgroundServer
from repro.service import Engine
from repro.service.serve import Dispatcher
from repro.web import WebServer
from tests.conftest import paper_like_answers, zero_timings


@pytest.fixture(autouse=True)
def disarm_faults():
    faults.clear()
    yield
    faults.clear()


def durable_engine(tmp_path, **kwargs) -> tuple[Engine, DurabilityManager]:
    manager = DurabilityManager(str(tmp_path / "data"), **kwargs)
    engine = Engine(durability=manager)
    engine.register_dataset("paper", paper_like_answers())
    return engine, manager


BATCHES = [
    ([("2000s", "student")], [1.5]),
    ([("2000s", "educator"), ("1970s", "artist")], [1.25, 3.75]),
    ([("2010s", "writer")], [0.5]),
]


def append_all(engine: Engine, name: str = "paper") -> None:
    for rows, values in BATCHES:
        engine.append_rows(name, rows, values)


# -- WAL framing --------------------------------------------------------------


class TestWalFraming:
    def test_scan_round_trips_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="always")
        payloads = [{"seq": i, "rows": [["a", str(i)]]} for i in range(5)]
        for payload in payloads:
            wal.append(payload)
        wal.close()
        recovered, valid_bytes, torn = scan(path)
        assert recovered == payloads
        assert valid_bytes == os.path.getsize(path)
        assert torn is False

    def test_missing_file_is_an_empty_log(self, tmp_path):
        assert scan(str(tmp_path / "nope.log")) == ([], 0, False)

    def test_scan_stops_at_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        good = encode_record({"seq": 1}) + encode_record({"seq": 2})
        torn_tail = encode_record({"seq": 3})[:-4]  # cut mid-record
        (tmp_path / "wal.log").write_bytes(good + torn_tail)
        payloads, valid_bytes, torn = scan(path)
        assert [p["seq"] for p in payloads] == [1, 2]
        assert valid_bytes == len(good)
        assert torn is True

    @pytest.mark.parametrize("mangle", [
        lambda r: r[:-1],                      # newline lost
        lambda r: r[:-2] + b"x\n",             # payload byte flipped
        lambda r: b"9999" + r,                 # length lies
        lambda r: r.replace(b":", b";", 1),    # frame separator gone
        lambda r: b"\x00\xff" + r[2:],         # binary garbage up front
    ], ids=["no-newline", "bitflip", "bad-length", "bad-frame", "garbage"])
    def test_any_mangled_tail_is_detected(self, tmp_path, mangle):
        path = tmp_path / "wal.log"
        good = encode_record({"seq": 1})
        path.write_bytes(good + mangle(encode_record({"seq": 2})))
        payloads, valid_bytes, torn = scan(str(path))
        assert [p["seq"] for p in payloads] == [1]
        assert valid_bytes == len(good)
        assert torn is True

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        first = WriteAheadLog(path)
        first.append({"seq": 1})
        first.close()
        second = WriteAheadLog(path)
        assert second.records == 1
        second.append({"seq": 2})
        second.close()
        payloads, _, torn = scan(path)
        assert [p["seq"] for p in payloads] == [1, 2] and torn is False

    def test_truncate_to_zero_resets(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.append({"seq": 1})
        wal.truncate_to(0)
        assert wal.records == 0 and wal.bytes == 0
        wal.append({"seq": 1})
        assert [p["seq"] for p in wal.replay()] == [1]
        wal.close()

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.close()
        with pytest.raises(OSError):
            wal.append({"seq": 1})
        wal.close()  # idempotent

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            WriteAheadLog(str(tmp_path / "wal.log"), fsync="sometimes")
        with pytest.raises(InvalidParameterError):
            DurabilityManager(str(tmp_path / "data"), fsync="sometimes")

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_every_policy_round_trips(self, tmp_path, policy):
        path = str(tmp_path / ("%s.log" % policy))
        wal = WriteAheadLog(path, fsync=policy)
        for seq in range(3):
            wal.append({"seq": seq})
        wal.flush()  # policy-independent: flush always fsyncs
        wal.close()
        assert [p["seq"] for p in scan(path)[0]] == [0, 1, 2]


# -- snapshots ----------------------------------------------------------------


class TestSnapshots:
    def test_round_trip_is_bit_identical(self, tmp_path):
        answers = paper_like_answers()
        path = str(tmp_path / "snapshot.json")
        write_snapshot(path, "paper", answers, seq=7)
        name, loaded, seq = load_snapshot(path)
        assert (name, seq) == ("paper", 7)
        # The document is the canonical byte view: elements in rank
        # order, domains in code order — equality here is bit-identity.
        assert snapshot_document("paper", loaded, 7) == snapshot_document(
            "paper", answers, 7
        )

    def test_write_leaves_no_temp_files(self, tmp_path):
        write_snapshot(
            str(tmp_path / "snapshot.json"), "paper",
            paper_like_answers(), seq=0,
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot.json"
        ]

    def test_missing_snapshot_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("content", [
        b"{not json",
        b"[1, 2, 3]",
        b'{"schema": 99, "dataset": "x"}',
        b'{"schema": 1, "dataset": "x"}',
        b'{"schema": 1, "dataset": 5, "seq": 0, "attributes": null,'
        b' "domains": null, "elements": [], "values": []}',
    ], ids=["not-json", "not-object", "wrong-schema", "missing-keys",
            "bad-name"])
    def test_malformed_snapshots_are_schema_errors(self, tmp_path, content):
        path = tmp_path / "snapshot.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError):
            load_snapshot(str(path))


# -- manager: recovery --------------------------------------------------------


class TestRecovery:
    def test_recovery_is_bit_identical_across_kernels(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        append_all(engine)
        expected_version = engine.dataset_version("paper")
        expected_doc = snapshot_document(
            "paper", engine.dataset("paper"), 0
        )
        manager.seal()

        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered_engine = Engine(durability=fresh)
        summary = fresh.recover(recovered_engine)
        assert [d["dataset"] for d in summary["datasets"]] == ["paper"]
        assert summary["datasets"][0]["records"] == len(BATCHES)
        assert recovered_engine.dataset_version("paper") == expected_version
        assert snapshot_document(
            "paper", recovered_engine.dataset("paper"), 0
        ) == expected_doc

        # Same wire bytes on every kernel, timings zeroed.
        reference = Dispatcher(engine)
        replayed = Dispatcher(recovered_engine)
        for kernel in KERNELS:
            request = {
                "schema_version": 2, "kind": "summary", "dataset": "paper",
                "k": 3, "L": 5, "D": 1, "include_elements": True,
                "options": {"kernel": kernel},
            }
            left = zero_timings(
                reference.dispatch_payload(dict(request)).response
            )
            right = zero_timings(
                replayed.dispatch_payload(dict(request)).response
            )
            assert left == right, "kernel %s diverged" % kernel

    def test_recovered_server_accepts_new_appends(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        append_all(engine)
        manager.seal()
        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered = Engine(durability=fresh)
        fresh.recover(recovered)
        recovered.append_rows("paper", [("2020s", "student")], [2.0])
        assert fresh.stats()["wal_records"] == len(BATCHES) + 1

    def test_torn_tail_is_truncated_and_counted(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        append_all(engine)
        manager.seal()
        wal_path = manager.wal_path("paper")
        with open(wal_path, "ab") as handle:
            handle.write(b"43:deadbeef:{\"seq\": 4, torn mid-")
        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered = Engine(durability=fresh)
        summary = fresh.recover(recovered)
        assert fresh.wal_truncated == 1
        assert summary["wal_truncated"] == 1
        assert summary["datasets"][0]["records"] == len(BATCHES)
        # Repaired on disk: a second scan sees a clean log.
        assert scan(wal_path)[2] is False

    def test_seq_guard_skips_records_folded_into_snapshot(self, tmp_path):
        """A crash between snapshot-write and WAL-truncate must not
        double-apply: records at or below the snapshot seq are skipped."""
        engine, manager = durable_engine(tmp_path)
        rows1, values1 = BATCHES[0]
        rows2, values2 = BATCHES[1]
        rows3, values3 = BATCHES[2]
        engine.append_rows("paper", rows1, values1)
        engine.append_rows("paper", rows2, values2)
        # Simulate a compaction that crashed after the snapshot write
        # but before the WAL truncate: snapshot at seq=2 (its state is
        # exactly the first two batches), WAL untouched.
        write_snapshot(
            manager.snapshot_path("paper"), "paper",
            engine.dataset("paper"), seq=2,
        )
        engine.append_rows("paper", rows3, values3)
        expected_doc = snapshot_document(
            "paper", engine.dataset("paper"), 0
        )
        manager.seal()
        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered = Engine(durability=fresh)
        summary = fresh.recover(recovered)
        # Seq 1 and 2 are folded into the snapshot and must be skipped
        # (replaying them would be a duplicate-element SchemaError);
        # only seq=3 replays, and the result is the uncrashed state.
        assert summary["datasets"][0]["records"] == 1
        assert summary["datasets"][0]["snapshot_seq"] == 2
        assert snapshot_document(
            "paper", recovered.dataset("paper"), 0
        ) == expected_doc

    def test_compaction_trips_threshold_and_recovers(self, tmp_path):
        manager = DurabilityManager(
            str(tmp_path / "data"), compact_records=2
        )
        engine = Engine(durability=manager)
        engine.register_dataset("paper", paper_like_answers())
        append_all(engine)  # 3 appends -> compaction after the 2nd
        assert manager.compactions >= 1
        stats = manager.stats()
        assert stats["wal_records"] < len(BATCHES)
        expected_doc = snapshot_document(
            "paper", engine.dataset("paper"), 0
        )
        manager.seal()
        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered = Engine(durability=fresh)
        fresh.recover(recovered)
        assert snapshot_document(
            "paper", recovered.dataset("paper"), 0
        ) == expected_doc

    def test_unreadable_snapshot_skips_dataset_not_boot(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        engine.register_dataset("other", paper_like_answers())
        manager.seal()
        with open(manager.snapshot_path("other"), "wb") as handle:
            handle.write(b"{corrupt")
        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered = Engine(durability=fresh)
        summary = fresh.recover(recovered)
        assert [d["dataset"] for d in summary["datasets"]] == ["paper"]
        assert fresh.snapshots_unreadable == 1
        assert recovered.dataset_names() == ["paper"]

    def test_stray_directories_are_ignored(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        os.makedirs(str(tmp_path / "data" / "not-a-dataset"))
        (tmp_path / "data" / "stray.txt").write_text("hi")
        manager.seal()
        fresh = DurabilityManager(str(tmp_path / "data"))
        summary = fresh.recover(Engine(durability=fresh))
        assert [d["dataset"] for d in summary["datasets"]] == ["paper"]

    def test_dataset_names_are_percent_encoded_on_disk(self, tmp_path):
        manager = DurabilityManager(str(tmp_path / "data"))
        engine = Engine(durability=manager)
        name = "weird/name with spaces"
        engine.register_dataset(name, paper_like_answers())
        engine.append_rows(name, [("2000s", "student")], [1.5])
        manager.seal()
        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered = Engine(durability=fresh)
        fresh.recover(recovered)
        assert recovered.dataset_names() == [name]
        assert recovered.dataset(name).n == 9

    def test_replace_racing_an_append_is_serialized(
        self, tmp_path, monkeypatch
    ):
        """A replace that arrives while an append builds the next version
        waits for the append and then publishes its own version: memory,
        the version counter and a recovered engine all hold the
        replacement, and no version names two contents."""
        manager = DurabilityManager(str(tmp_path / "data"))
        engine = Engine(durability=manager)
        engine.register_dataset("toy", AnswerSet.from_rows(
            [("a", "x"), ("a", "y"), ("b", "x")], [3.0, 2.0, 1.0]
        ))
        replacement = AnswerSet.from_rows(
            [("c", "z"), ("d", "z")], [5.0, 4.0]
        )
        errors = []

        def replace():
            try:
                engine.register_dataset("toy", replacement, replace=True)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        replacer = threading.Thread(target=replace)
        extended = AnswerSet.extended

        def racing(answers, rows, values):
            monkeypatch.setattr(AnswerSet, "extended", extended)
            replacer.start()
            # Serialized, the replace blocks until the append publishes:
            # join briefly so that case cannot deadlock.
            replacer.join(0.5)
            return extended(answers, rows, values)

        monkeypatch.setattr(AnswerSet, "extended", racing)
        result = engine.append_rows("toy", [("b", "y")], [0.5])
        replacer.join(10)
        assert not replacer.is_alive()
        assert errors == []
        assert result["version"] == 1
        assert engine.dataset_version("toy") == 2
        expected_doc = snapshot_document("toy", replacement, 0)
        assert snapshot_document(
            "toy", engine.dataset("toy"), 0
        ) == expected_doc
        manager.seal()
        fresh = DurabilityManager(str(tmp_path / "data"))
        recovered = Engine(durability=fresh)
        fresh.recover(recovered)
        fresh.seal()
        assert snapshot_document(
            "toy", recovered.dataset("toy"), 0
        ) == expected_doc


# -- the ack contract under injected write failures ---------------------------


@pytest.mark.chaos
class TestWalFaults:
    def test_enospc_aborts_append_before_publish(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        n_before = engine.dataset("paper").n
        version_before = engine.dataset_version("paper")
        faults.arm("wal.write", "enospc", times=1)
        with pytest.raises(OSError):
            engine.append_rows("paper", [("2000s", "student")], [1.5])
        assert engine.dataset("paper").n == n_before
        assert engine.dataset_version("paper") == version_before
        assert manager.write_failures == 1
        # The fault budget is spent: the retry lands and publishes.
        engine.append_rows("paper", [("2000s", "student")], [1.5])
        assert engine.dataset("paper").n == n_before + 1
        assert manager.stats()["wal_records"] == 1

    def test_short_write_leaves_log_replayable(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        engine.append_rows("paper", [("2000s", "student")], [1.5])
        faults.arm("wal.write", "short-write", param=7, times=1)
        with pytest.raises(OSError):
            engine.append_rows("paper", [("2010s", "writer")], [0.5])
        # The failed write's partial bytes were rolled back: the log is
        # clean (not torn) and holds exactly the acked record.
        payloads, _, torn = scan(manager.wal_path("paper"))
        assert torn is False
        assert [p["seq"] for p in payloads] == [1]
        engine.append_rows("paper", [("2010s", "writer")], [0.5])
        assert [p["seq"] for p in scan(manager.wal_path("paper"))[0]] == [
            1, 2
        ]

    def test_fsync_fault_aborts_append_under_always(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        faults.arm("wal.fsync", "enospc", times=1)
        with pytest.raises(OSError):
            engine.append_rows("paper", [("2000s", "student")], [1.5])
        assert engine.dataset("paper").n == 8
        payloads, _, torn = scan(manager.wal_path("paper"))
        assert payloads == [] and torn is False


# -- seal / draining rejection ------------------------------------------------


class TestSealAndDraining:
    def test_seal_is_idempotent_and_refuses_mutations(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        manager.seal()
        manager.seal()
        assert manager.sealed is True
        with pytest.raises(ShuttingDown):
            engine.append_rows("paper", [("2000s", "student")], [1.5])
        with pytest.raises(ShuttingDown):
            engine.register_dataset("other", paper_like_answers())
        assert engine.dataset("paper").n == 8  # nothing published

    def test_server_scope_shutdown_rejects_later_appends(self, tmp_path):
        engine, _ = durable_engine(tmp_path)
        dispatcher = Dispatcher(engine)
        ack = dispatcher.dispatch_payload(
            {"kind": "shutdown", "scope": "server"}
        ).response
        assert ack["kind"] == "shutdown_ack"
        rejected = dispatcher.dispatch_payload({
            "schema_version": 2, "kind": "append_rows", "dataset": "paper",
            "rows": [["2000s", "student"]], "values": [1.5],
        }).response
        assert rejected["error_type"] == "ShuttingDown"
        stats = dispatcher.dispatch_payload({"kind": "stats"}).response
        assert stats["rejected"]["draining"] == 1
        # Reads still drain normally while the server winds down.
        summary = dispatcher.dispatch_payload({
            "schema_version": 2, "kind": "summary", "dataset": "paper",
            "k": 2, "L": 4, "D": 1,
        }).response
        assert summary["kind"] == "summary_response"

    def test_lifecycle_draining_rejects_appends_too(self):
        lifecycle = ServerLifecycle(initial=READY)
        engine = Engine()
        engine.register_dataset("paper", paper_like_answers())
        dispatcher = Dispatcher(engine, lifecycle=lifecycle)
        lifecycle.to_draining()
        rejected = dispatcher.dispatch_payload({
            "schema_version": 2, "kind": "append_rows", "dataset": "paper",
            "rows": [["2000s", "student"]], "values": [1.5],
        }).response
        assert rejected["error_type"] == "ShuttingDown"


# -- lifecycle state machine --------------------------------------------------


class TestServerLifecycle:
    def test_forward_transitions_and_idempotence(self):
        lifecycle = ServerLifecycle()
        assert lifecycle.state == STARTING
        lifecycle.to_recovering()
        lifecycle.to_recovering()  # idempotent
        assert lifecycle.state == RECOVERING
        lifecycle.to_ready()
        assert lifecycle.is_ready
        lifecycle.to_draining()
        assert lifecycle.is_draining

    def test_starting_straight_to_ready(self):
        lifecycle = ServerLifecycle()
        lifecycle.to_ready()
        assert lifecycle.state == READY

    def test_backward_transitions_raise(self):
        lifecycle = ServerLifecycle(initial=READY)
        with pytest.raises(ReproError):
            lifecycle.to_recovering()
        lifecycle.to_draining()
        with pytest.raises(ReproError):
            lifecycle.to_ready()

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(ReproError):
            ServerLifecycle(initial="warming-up")

    def test_describe_reports_state_and_age(self):
        description = ServerLifecycle(initial=DRAINING).describe()
        assert description["state"] == DRAINING
        assert description["state_seconds"] >= 0.0


# -- HTTP: healthz states + Retry-After on 503 --------------------------------


def http_get_with_headers(handle, path):
    request = urllib.request.Request(
        "http://%s:%d%s" % (handle.host, handle.port, path), method="GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def http_post_with_headers(handle, path, body):
    request = urllib.request.Request(
        "http://%s:%d%s" % (handle.host, handle.port, path),
        data=json.dumps(body).encode("utf-8"), method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestHttpReadinessAndRetryAfter:
    def test_healthz_tracks_lifecycle_states(self, tmp_path):
        lifecycle = ServerLifecycle()
        engine, manager = durable_engine(tmp_path)
        handle = BackgroundServer(WebServer(
            engine, port=0, shards=1,
            durability=manager, lifecycle=lifecycle,
        )).start()
        try:
            status, _, payload = http_get_with_headers(handle, "/healthz")
            assert (status, payload["state"]) == (503, STARTING)
            assert payload["status"] == "unavailable"
            lifecycle.to_recovering()
            status, _, payload = http_get_with_headers(handle, "/healthz")
            assert (status, payload["state"]) == (503, RECOVERING)
            lifecycle.to_ready()
            status, _, payload = http_get_with_headers(handle, "/healthz")
            assert (status, payload["state"]) == (200, READY)
            assert payload["status"] == "ok"
        finally:
            assert handle.stop(timeout=30)
        # Drain flipped the state machine on the way out.
        assert lifecycle.is_draining
        assert manager.sealed is True

    def test_healthz_defaults_to_ready_without_lifecycle(self):
        engine = Engine()
        engine.register_dataset("paper", paper_like_answers())
        handle = BackgroundServer(WebServer(
            engine, port=0, shards=1,
        )).start()
        try:
            status, _, payload = http_get_with_headers(handle, "/healthz")
            assert (status, payload["status"]) == (200, "ok")
            assert payload["state"] == READY
        finally:
            assert handle.stop(timeout=30)

    def test_shutting_down_is_503_with_retry_after(self, tmp_path):
        engine, manager = durable_engine(tmp_path)
        handle = BackgroundServer(WebServer(
            engine, port=0, shards=1,
            durability=manager,
        )).start()
        try:
            manager.seal()  # drain has taken the final fsync
            status, headers, payload = http_post_with_headers(
                handle, "/v2/admin/append_rows", {
                    "schema_version": 2, "dataset": "paper",
                    "rows": [["2000s", "student"]], "values": [1.5],
                },
            )
            assert status == 503
            assert payload["error_type"] == "ShuttingDown"
            assert headers.get("Retry-After", "").isdigit()
            # Stats over HTTP surface the durability + lifecycle view.
            status, _, stats = http_post_with_headers(
                handle, "/v2/admin/stats", {"schema_version": 2}
            )
            assert status == 200
            assert stats["durability"]["sealed"] is True
            assert stats["lifecycle"]["state"] == READY
        finally:
            assert handle.stop(timeout=30)
