"""Durable named exploration sessions: the paper's interactive loop, resumable.

:class:`repro.interactive.session.ExplorationSession` holds the
summarize -> explore -> guidance loop in process memory; this module is
the multi-tenant, restart-surviving version of that state.  A session is
a named cursor over the exploration: the *base request* (the full
analytic wire payload the user is currently looking at) plus the drill
history that led there.  Stepping a session merges an override dict
(``{"k": 5}``, ``{"D": 2}`` ...) into the base, dispatches the merged
request through the shared transport-agnostic dispatcher, and — only on
success — advances the base, so a session resumed after a server
restart produces the byte-identical next-step response it would have
produced without the restart (the acceptance test for this subsystem).

Durability contract:

* one JSON file per session, under ``root/<user>/<name>.json`` — user
  and session names are validated path components (see
  :func:`repro.web.auth.validate_name`);
* every save is **atomic** and durable
  (:func:`repro.common.atomic.write_atomic`): write and fsync a temp
  file in the same directory, ``os.replace``, fsync the directory — a
  crash mid-save leaves the previous version, never a torn file;
* a file that fails to load (corrupted JSON, wrong shape) is served as
  *not found* and counted in ``corrupted`` — a bad byte on disk must
  not take the server down;
* reads go through a small LRU cache, so the hot path of an interactive
  burst does not touch the disk per step.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.atomic import write_atomic
from repro.common.faults import fault_point
from repro.common.errors import (
    InvalidParameterError,
    SchemaError,
    UnknownSessionError,
)
from repro.web.auth import validate_name

logger = logging.getLogger(__name__)

#: The request kinds a session base may carry — the analytical loop.
SESSION_KINDS = frozenset({"summary", "explore", "guidance"})

#: Default LRU bound on in-memory session records.
DEFAULT_CACHE_SIZE = 128


@dataclass
class SessionRecord:
    """One durable session: identity, the current base request, history."""

    name: str
    user: str
    base: dict[str, Any]
    steps: list[dict[str, Any]] = field(default_factory=list)
    created_at: float = 0.0
    updated_at: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "user": self.user,
            "base": self.base,
            "steps": self.steps,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "SessionRecord":
        if not isinstance(payload, dict):
            raise SchemaError("session file must hold a JSON object")
        try:
            record = cls(
                name=payload["name"],
                user=payload["user"],
                base=payload["base"],
                steps=payload["steps"],
                created_at=float(payload["created_at"]),
                updated_at=float(payload["updated_at"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SchemaError("session file is malformed: %s" % error)
        if not isinstance(record.base, dict) or not isinstance(
            record.steps, list
        ):
            raise SchemaError("session file is malformed: wrong field types")
        return record


class SessionStore:
    """Atomic JSON-file persistence with an LRU read cache."""

    def __init__(
        self, root: str | Path, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._cache: OrderedDict[tuple[str, str], SessionRecord] = (
            OrderedDict()
        )
        self._cache_size = max(1, cache_size)
        self.corrupted = 0
        self.saves = 0

    def _path(self, user: str, name: str) -> Path:
        validate_name(user, "session user")
        validate_name(name, "session name")
        return self.root / user / (name + ".json")

    # -- persistence ---------------------------------------------------------

    def save(self, record: SessionRecord) -> None:
        # Chaos site: an injected error here models a full/failing disk;
        # placed before the temp file exists so nothing needs cleanup.
        fault_point("sessions.write")
        path = self._path(record.user, record.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(record.to_dict(), sort_keys=True, indent=1)
        write_atomic(
            str(path), data.encode("utf-8"), prefix=".%s-" % record.name
        )
        with self._lock:
            self.saves += 1
            self._cache[(record.user, record.name)] = record
            self._cache.move_to_end((record.user, record.name))
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def load(self, user: str, name: str) -> SessionRecord | None:
        """The stored record, or None for missing *and* unreadable files."""
        key = (user, name)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached
        path = self._path(user, name)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            self._count_corrupted(path, error)
            return None
        try:
            record = SessionRecord.from_dict(json.loads(text))
        except (json.JSONDecodeError, SchemaError) as error:
            self._count_corrupted(path, error)
            return None
        with self._lock:
            self._cache[key] = record
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return record

    def _count_corrupted(self, path: Path, error: Exception) -> None:
        with self._lock:
            self.corrupted += 1
        logger.warning(
            "session file %s is unreadable (served as not found): %s",
            path, error,
        )

    def delete(self, user: str, name: str) -> bool:
        path = self._path(user, name)
        with self._lock:
            self._cache.pop((user, name), None)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def list(self, user: str) -> list[str]:
        validate_name(user, "session user")
        directory = self.root / user
        if not directory.is_dir():
            return []
        return sorted(
            entry.stem for entry in directory.glob("*.json")
            if not entry.name.startswith(".")
        )

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "cached": len(self._cache),
                "cache_size": self._cache_size,
                "saves": self.saves,
                "corrupted": self.corrupted,
            }


class SessionService:
    """Create/step/resume named sessions over the shared dispatcher.

    Steps on the *same* session are serialized by a per-session lock
    (two concurrent drills cannot interleave load-modify-save); steps on
    different sessions proceed in parallel.
    """

    def __init__(self, store: SessionStore, dispatcher) -> None:
        self.store = store
        self.dispatcher = dispatcher
        self._locks_guard = threading.Lock()
        self._locks: dict[tuple[str, str], threading.Lock] = {}

    def _session_lock(self, user: str, name: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(
                (user, name), threading.Lock()
            )

    # -- lifecycle -----------------------------------------------------------

    def create(
        self, user: str, name: str, base: dict[str, Any]
    ) -> SessionRecord:
        if not isinstance(base, dict):
            raise SchemaError("session 'base' must be a request object")
        kind = base.get("kind")
        if kind not in SESSION_KINDS:
            raise SchemaError(
                "session base kind must be one of %s, got %r"
                % (sorted(SESSION_KINDS), kind)
            )
        if not isinstance(base.get("dataset"), str):
            raise SchemaError("session base needs a string 'dataset'")
        with self._session_lock(user, name):
            if self.store.load(user, name) is not None:
                raise InvalidParameterError(
                    "session %r already exists for user %r" % (name, user)
                )
            now = time.time()
            record = SessionRecord(
                name=name, user=user, base=dict(base),
                created_at=now, updated_at=now,
            )
            self.store.save(record)
        return record

    def get(self, user: str, name: str) -> SessionRecord:
        record = self.store.load(user, name)
        if record is None:
            raise UnknownSessionError(
                "unknown session %r for user %r" % (name, user)
            )
        return record

    def delete(self, user: str, name: str) -> None:
        with self._session_lock(user, name):
            if not self.store.delete(user, name):
                raise UnknownSessionError(
                    "unknown session %r for user %r" % (name, user)
                )

    def list(self, user: str) -> list[str]:
        return self.store.list(user)

    # -- stepping ------------------------------------------------------------

    def step(
        self,
        user: str,
        name: str,
        overrides: dict[str, Any],
        auth_token: str | None = None,
    ) -> dict[str, Any]:
        """Merge *overrides* into the base, dispatch, advance on success.

        Returns the analytic wire response verbatim (the transport maps
        its payload to a status code).  An error response leaves the
        session unchanged, so a typo'd drill never corrupts the cursor.
        """
        if not isinstance(overrides, dict):
            raise SchemaError("session step body must be a JSON object")
        if "kind" in overrides and overrides["kind"] not in SESSION_KINDS:
            raise SchemaError(
                "session step cannot change kind to %r" % overrides["kind"]
            )
        with self._session_lock(user, name):
            record = self.get(user, name)
            merged = dict(record.base)
            for key, value in overrides.items():
                if value is None:
                    merged.pop(key, None)
                else:
                    merged[key] = value
            request = dict(merged)
            if auth_token is not None:
                request["auth"] = auth_token
            outcome = self.dispatcher.dispatch_payload(request)
            response = outcome.response
            if hasattr(response, "result"):  # scheduler future
                response = response.result()
            if (
                isinstance(response, dict)
                and response.get("kind") != "error"
            ):
                record.base = merged
                record.steps.append({"overrides": dict(overrides)})
                record.updated_at = time.time()
                self.store.save(record)
            return response
