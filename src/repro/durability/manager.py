"""Durability orchestration: snapshots + WALs per dataset, plus recovery.

:class:`DurabilityManager` owns one directory per dataset under the
server's ``--data-dir``::

    <data_dir>/<quoted dataset name>/snapshot.json   (atomic, complete)
    <data_dir>/<quoted dataset name>/wal.log         (append-only records)

and hooks into the engine at exactly three points:

* :meth:`record_register` — a dataset was (re)registered: write its
  snapshot, reset its WAL.  Registration is the durable baseline every
  later append builds on.
* :meth:`record_append` — an ``append_rows`` batch passed validation:
  append one WAL record *before* the engine publishes the new version.
  If the WAL write fails, the exception aborts the append and nothing
  is published — the ack contract runs through this method.
* :meth:`maybe_compact` — after a publish, fold the WAL into a fresh
  snapshot once it crosses the size/record thresholds.  Snapshot first,
  then truncate; a crash between the two is covered by the snapshot's
  ``seq`` (recovery skips already-applied records).

Recovery (:meth:`recover`) replays each dataset through the engine's own
``register_dataset`` + ``append_rows`` — the same
:meth:`~repro.core.answers.AnswerSet.extended` / version-bump path live
appends take — so a recovered engine is bit-identical to one that never
crashed: same codes (domains re-interned in snapshot order), same ranks,
same pools on every kernel.  Torn WAL tails are truncated to the longest
valid record prefix (counted in ``wal_truncated``), never fatal.

:meth:`seal` is the drain contract: flush + fsync every WAL, then refuse
further mutations with :class:`~repro.common.errors.ShuttingDown` so a
late ``append_rows`` can never slip rows past the final fsync.
"""

from __future__ import annotations

import os
import threading
import time
import urllib.parse
from typing import Any

from repro.common.errors import ShuttingDown
from repro.durability.snapshot import load_snapshot, write_snapshot
from repro.durability.wal import FSYNC_POLICIES, WriteAheadLog, scan

__all__ = [
    "DurabilityManager",
    "COMPACT_THRESHOLD_BYTES",
    "COMPACT_THRESHOLD_RECORDS",
]

#: Compact a dataset's WAL once it holds this many bytes ...
COMPACT_THRESHOLD_BYTES = 1 << 20
#: ... or this many records, whichever trips first.
COMPACT_THRESHOLD_RECORDS = 256

_SNAPSHOT_FILE = "snapshot.json"
_WAL_FILE = "wal.log"


class DurabilityManager:
    """Per-dataset durability under one data directory.

    Parameters
    ----------
    data_dir:
        Root directory (created if missing).  One subdirectory per
        dataset, named by percent-encoding the dataset name so any
        registered name maps to a safe path component.
    fsync:
        WAL fsync policy, one of :data:`~repro.durability.wal.FSYNC_POLICIES`.
    compact_records:
        WAL record count beyond which :meth:`maybe_compact` folds the
        log into a fresh snapshot (as it does past
        :data:`COMPACT_THRESHOLD_BYTES` bytes).
    """

    def __init__(
        self,
        data_dir: str,
        fsync: str = "always",
        compact_records: int = COMPACT_THRESHOLD_RECORDS,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            # WriteAheadLog would reject it too, but fail at construction
            # so a typo'd --fsync never boots a server.
            from repro.common.errors import InvalidParameterError

            raise InvalidParameterError(
                "unknown fsync policy %r (policies: %s)"
                % (fsync, ", ".join(FSYNC_POLICIES))
            )
        self.data_dir = data_dir
        self.fsync = fsync
        self.compact_records = int(compact_records)
        os.makedirs(data_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._wals: dict[str, WriteAheadLog] = {}
        self._seq: dict[str, int] = {}
        self._replaying = False
        self._sealed = False
        self.wal_truncated = 0
        self.snapshots_written = 0
        self.compactions = 0
        self.write_failures = 0
        self.recovery_seconds = 0.0
        self.recovered_datasets = 0
        self.recovered_records = 0
        self.snapshots_unreadable = 0

    # -- paths ---------------------------------------------------------------

    def dataset_dir(self, name: str) -> str:
        return os.path.join(
            self.data_dir, urllib.parse.quote(name, safe="")
        )

    def snapshot_path(self, name: str) -> str:
        return os.path.join(self.dataset_dir(name), _SNAPSHOT_FILE)

    def wal_path(self, name: str) -> str:
        return os.path.join(self.dataset_dir(name), _WAL_FILE)

    # -- engine hooks --------------------------------------------------------

    def record_register(self, name: str, answers) -> None:
        """Persist a (re)registered dataset: snapshot now, empty WAL."""
        if self._replaying:
            return
        with self._lock:
            self._check_open()
            os.makedirs(self.dataset_dir(name), exist_ok=True)
            self._seq[name] = 0
            write_snapshot(self.snapshot_path(name), name, answers, seq=0)
            self.snapshots_written += 1
            wal = self._wals.pop(name, None)
            if wal is not None:
                wal.truncate_to(0)
                self._wals[name] = wal
            else:
                self._wals[name] = WriteAheadLog(
                    self.wal_path(name), fsync=self.fsync
                )

    def record_append(self, name: str, rows, values) -> int:
        """Durably log one validated append batch; returns its seq.

        Raises :class:`ShuttingDown` after :meth:`seal`, and whatever
        ``OSError`` the WAL write hit — in both cases the engine aborts
        the append before publishing, so memory and log stay in step.
        """
        if self._replaying:
            return self._seq.get(name, 0)
        with self._lock:
            self._check_open()
            wal = self._wals.get(name)
            if wal is None:
                # A dataset registered before the manager was attached
                # (or recovered from a snapshot-less dir): start its log
                # lazily from the live engine state at seq 0.
                os.makedirs(self.dataset_dir(name), exist_ok=True)
                wal = WriteAheadLog(self.wal_path(name), fsync=self.fsync)
                self._wals[name] = wal
                self._seq.setdefault(name, 0)
            seq = self._seq.get(name, 0) + 1
            try:
                wal.append({
                    "seq": seq,
                    "rows": [list(row) for row in rows],
                    "values": [float(value) for value in values],
                })
            except OSError:
                self.write_failures += 1
                raise
            self._seq[name] = seq
            return seq

    def maybe_compact(self, name: str, answers) -> bool:
        """Fold the WAL into a fresh snapshot when thresholds trip."""
        if self._replaying:
            return False
        with self._lock:
            if self._sealed:
                return False
            wal = self._wals.get(name)
            if wal is None:
                return False
            if (
                wal.bytes < COMPACT_THRESHOLD_BYTES
                and wal.records < self.compact_records
            ):
                return False
            write_snapshot(
                self.snapshot_path(name), name, answers,
                seq=self._seq.get(name, 0),
            )
            self.snapshots_written += 1
            wal.truncate_to(0)
            self.compactions += 1
            return True

    # -- recovery ------------------------------------------------------------

    def recover(self, engine) -> dict[str, Any]:
        """Rebuild *engine*'s datasets from disk; returns a summary.

        Replays through ``engine.register_dataset`` / ``engine.append_rows``
        with persistence suppressed (the records being replayed are the
        durable state), repairing torn WAL tails on disk as it goes.
        """
        start = time.monotonic()
        recovered: list[dict[str, Any]] = []
        self._replaying = True
        try:
            for entry in sorted(os.listdir(self.data_dir)):
                dataset_dir = os.path.join(self.data_dir, entry)
                if not os.path.isdir(dataset_dir):
                    continue
                summary = self._recover_dataset(engine, dataset_dir)
                if summary is not None:
                    recovered.append(summary)
        finally:
            self._replaying = False
        self.recovery_seconds = time.monotonic() - start
        self.recovered_datasets = len(recovered)
        self.recovered_records = sum(item["records"] for item in recovered)
        return {
            "datasets": recovered,
            "recovery_seconds": self.recovery_seconds,
            "wal_truncated": self.wal_truncated,
        }

    def _recover_dataset(
        self, engine, dataset_dir: str
    ) -> dict[str, Any] | None:
        snapshot_path = os.path.join(dataset_dir, _SNAPSHOT_FILE)
        wal_path = os.path.join(dataset_dir, _WAL_FILE)
        try:
            name, answers, snapshot_seq = load_snapshot(snapshot_path)
        except FileNotFoundError:
            # A directory with no snapshot is not a dataset we wrote
            # (registration snapshots before the first append can log).
            return None
        except Exception:
            # An unreadable snapshot never takes the whole boot down;
            # the dataset is simply not served until re-registered.
            self.snapshots_unreadable += 1
            return None
        engine.register_dataset(name, answers, replace=True)
        payloads, valid_bytes, torn = scan(wal_path)
        if torn:
            self._truncate_file(wal_path, valid_bytes)
            self.wal_truncated += 1
        replayed = 0
        last_seq = snapshot_seq
        for payload in payloads:
            seq = payload.get("seq")
            if not isinstance(seq, int) or seq <= snapshot_seq:
                continue  # already folded into the snapshot (compaction)
            rows = [tuple(row) for row in payload.get("rows", [])]
            values = payload.get("values", [])
            engine.append_rows(name, rows, values)
            replayed += 1
            last_seq = seq
        with self._lock:
            self._seq[name] = last_seq
            self._wals[name] = WriteAheadLog(wal_path, fsync=self.fsync)
        return {
            "dataset": name,
            "snapshot_seq": snapshot_seq,
            "records": replayed,
            "torn": torn,
            "n": engine.dataset(name).n,
            "version": engine.dataset_version(name),
        }

    @staticmethod
    def _truncate_file(path: str, size: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Flush + fsync every open WAL (policy-independent)."""
        with self._lock:
            for wal in self._wals.values():
                wal.flush()

    def seal(self) -> None:
        """Final flush + fsync, then refuse further mutations.

        Idempotent; called by every transport's drain path before exit.
        """
        with self._lock:
            if self._sealed:
                return
            for wal in self._wals.values():
                wal.flush()
                wal.close(fsync=True)
            self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _check_open(self) -> None:
        if self._sealed:
            raise ShuttingDown(
                "durability layer is sealed (server draining); "
                "the WAL has taken its final fsync"
            )

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for the ``stats`` admin kind and telemetry gauges."""
        with self._lock:
            wal_records = sum(wal.records for wal in self._wals.values())
            wal_bytes = sum(wal.bytes for wal in self._wals.values())
            datasets = len(self._wals)
        return {
            "enabled": True,
            "fsync": self.fsync,
            "datasets": datasets,
            "wal_records": wal_records,
            "wal_bytes": wal_bytes,
            "wal_truncated": self.wal_truncated,
            "snapshots_written": self.snapshots_written,
            "snapshots_unreadable": self.snapshots_unreadable,
            "compactions": self.compactions,
            "write_failures": self.write_failures,
            "recovery_seconds": self.recovery_seconds,
            "recovered_datasets": self.recovered_datasets,
            "recovered_records": self.recovered_records,
            "sealed": self._sealed,
        }
