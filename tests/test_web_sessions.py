"""Tests for the durable session store: atomicity, corruption, LRU, service."""

from __future__ import annotations

import errno
import json
import os
import stat
import threading

import pytest

from repro.common.errors import (
    InvalidParameterError,
    SchemaError,
    UnknownSessionError,
)
from repro.service import Engine
from repro.service.serve import Dispatcher
from repro.web import SessionRecord, SessionService, SessionStore
from tests.conftest import paper_like_answers

BASE = {"schema_version": 2, "kind": "summary", "dataset": "paper",
        "k": 2, "L": 4, "D": 1}


def make_record(name="expl", user="alice", **base_overrides):
    return SessionRecord(
        name=name, user=user, base=dict(BASE, **base_overrides),
        created_at=1.0, updated_at=1.0,
    )


def make_service(tmp_path, **store_kwargs):
    engine = Engine()
    engine.register_dataset("paper", paper_like_answers())
    store = SessionStore(tmp_path / "sessions", **store_kwargs)
    return SessionService(store, Dispatcher(engine)), store


class TestSessionStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SessionStore(tmp_path)
        record = make_record()
        store.save(record)
        fresh = SessionStore(tmp_path)  # cold cache: reads the file
        loaded = fresh.load("alice", "expl")
        assert loaded is not None
        assert loaded.to_dict() == record.to_dict()

    def test_missing_session_is_none(self, tmp_path):
        store = SessionStore(tmp_path)
        assert store.load("alice", "nope") is None
        assert store.stats()["corrupted"] == 0

    def test_save_is_atomic_no_temp_litter(self, tmp_path):
        store = SessionStore(tmp_path)
        for step in range(5):
            record = make_record(k=2 + step % 3)
            store.save(record)
        directory = tmp_path / "alice"
        assert sorted(p.name for p in directory.iterdir()) == ["expl.json"]
        # The on-disk bytes are always a complete, parseable record.
        payload = json.loads((directory / "expl.json").read_text())
        assert payload["name"] == "expl"

    def test_save_fsyncs_file_then_replaces_then_fsyncs_directory(
        self, tmp_path, monkeypatch
    ):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", os.path.basename(target)))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        SessionStore(tmp_path).save(make_record())
        assert events == [
            ("fsync", "file"), ("replace", "expl.json"), ("fsync", "dir"),
        ]

    def test_failed_write_keeps_previous_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        store = SessionStore(tmp_path)
        store.save(make_record(k=2))
        path = tmp_path / "alice" / "expl.json"
        before = path.read_bytes()

        def fsync(fd):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError):
            store.save(make_record(k=3))
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["expl.json"]

    def test_corrupted_file_served_as_not_found_and_counted(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save(make_record())
        path = tmp_path / "alice" / "expl.json"
        path.write_text("{torn write")
        fresh = SessionStore(tmp_path)
        assert fresh.load("alice", "expl") is None
        assert fresh.stats()["corrupted"] == 1

    def test_wrong_shape_counts_as_corrupted(self, tmp_path):
        store = SessionStore(tmp_path)
        path = tmp_path / "alice"
        path.mkdir()
        (path / "expl.json").write_text('{"name": "expl"}')  # missing fields
        assert store.load("alice", "expl") is None
        assert store.stats()["corrupted"] == 1
        (path / "list.json").write_text('[1, 2]')  # not even an object
        assert store.load("alice", "list") is None
        assert store.stats()["corrupted"] == 2

    def test_lru_cache_is_bounded(self, tmp_path):
        store = SessionStore(tmp_path, cache_size=2)
        for index in range(4):
            store.save(make_record(name="s%d" % index))
        assert store.stats()["cached"] == 2
        # Evicted entries still load — from disk.
        assert store.load("alice", "s0") is not None

    def test_delete(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save(make_record())
        assert store.delete("alice", "expl") is True
        assert store.load("alice", "expl") is None
        assert store.delete("alice", "expl") is False

    def test_list_ignores_dotfiles(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save(make_record(name="b"))
        store.save(make_record(name="a"))
        (tmp_path / "alice" / ".hidden.json").write_text("{}")
        assert store.list("alice") == ["a", "b"]
        assert store.list("nobody") == []

    def test_path_traversal_names_rejected(self, tmp_path):
        store = SessionStore(tmp_path)
        with pytest.raises(SchemaError):
            store.load("alice", "../../etc/passwd")
        with pytest.raises(SchemaError):
            store.load("..", "expl")


class TestSessionRecord:
    def test_from_dict_rejects_malformed(self):
        with pytest.raises(SchemaError):
            SessionRecord.from_dict("not a dict")
        with pytest.raises(SchemaError):
            SessionRecord.from_dict({"name": "x"})
        with pytest.raises(SchemaError):
            SessionRecord.from_dict({
                "name": "x", "user": "u", "base": "not-a-dict",
                "steps": [], "created_at": 0, "updated_at": 0,
            })


class TestSessionService:
    def test_create_requires_analytic_base(self, tmp_path):
        service, _ = make_service(tmp_path)
        with pytest.raises(SchemaError):
            service.create("alice", "expl", {"kind": "ping"})
        with pytest.raises(SchemaError):
            service.create("alice", "expl", dict(BASE, kind="shutdown"))
        with pytest.raises(SchemaError):
            service.create("alice", "expl", "not a dict")
        with pytest.raises(SchemaError):
            service.create(
                "alice", "expl",
                {"kind": "summary"},  # no dataset
            )

    def test_create_then_duplicate(self, tmp_path):
        service, _ = make_service(tmp_path)
        service.create("alice", "expl", dict(BASE))
        with pytest.raises(InvalidParameterError):
            service.create("alice", "expl", dict(BASE))

    def test_step_advances_only_on_success(self, tmp_path):
        service, _ = make_service(tmp_path)
        service.create("alice", "expl", dict(BASE))
        good = service.step("alice", "expl", {"k": 3})
        assert good["kind"] == "summary_response"
        assert good["k"] == 3
        bad = service.step("alice", "expl", {"k": "three"})
        assert bad["kind"] == "error"
        record = service.get("alice", "expl")
        assert record.base["k"] == 3
        assert len(record.steps) == 1

    def test_step_none_override_unsets_key(self, tmp_path):
        service, _ = make_service(tmp_path)
        service.create(
            "alice", "expl", dict(BASE, algorithm="bottom-up")
        )
        service.step("alice", "expl", {"algorithm": None})
        assert "algorithm" not in service.get("alice", "expl").base

    def test_step_cannot_change_to_non_analytic_kind(self, tmp_path):
        service, _ = make_service(tmp_path)
        service.create("alice", "expl", dict(BASE))
        with pytest.raises(SchemaError):
            service.step("alice", "expl", {"kind": "shutdown"})

    def test_unknown_session_raises(self, tmp_path):
        service, _ = make_service(tmp_path)
        with pytest.raises(UnknownSessionError):
            service.get("alice", "nope")
        with pytest.raises(UnknownSessionError):
            service.step("alice", "nope", {})
        with pytest.raises(UnknownSessionError):
            service.delete("alice", "nope")

    def test_concurrent_steps_serialize(self, tmp_path):
        """Parallel steps on one session never lose an update: every
        step lands in the history exactly once."""
        service, _ = make_service(tmp_path)
        service.create("alice", "expl", dict(BASE))
        errors: list[Exception] = []

        def drill(k: int):
            try:
                service.step("alice", "expl", {"k": k})
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=drill, args=(2 + index % 3,))
            for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        record = service.get("alice", "expl")
        assert len(record.steps) == 6

    def test_crash_between_saves_keeps_previous_version(self, tmp_path):
        """Simulated torn save: os.replace never ran, so the original
        file still loads."""
        store = SessionStore(tmp_path)
        record = make_record()
        store.save(record)
        # A crashed writer leaves a temp file behind; it must be ignored
        # by list() and load() alike.
        litter = tmp_path / "alice" / ".expl-crash.tmp"
        litter.write_text("{half a reco")
        fresh = SessionStore(tmp_path)
        assert fresh.load("alice", "expl").base == record.base
        assert fresh.list("alice") == ["expl"]
        os.unlink(litter)
