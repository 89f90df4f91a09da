"""Server lifecycle: the readiness state machine behind ``/healthz``.

A durable server is not ready the instant the process starts — it may
be replaying a write-ahead log.  :class:`ServerLifecycle` names the
phases and enforces their order::

    starting ──> recovering ──> ready ──> draining
        └──────────────────────────┘

(``starting -> ready`` directly when there is nothing to recover.)

``/healthz`` reports the current state and answers 200 only in
``ready`` — a load balancer keeps traffic away while recovery replays
and stops sending new work the moment drain begins.  Transports flip
``draining`` before their scheduler drain + WAL seal, so the window
between "stopped accepting" and "exited" is observable.  The move to
``draining`` also runs every :meth:`ServerLifecycle.on_draining`
callback: each network server registers its stop there, so transports
that share one lifecycle (``repro-serve --tcp … --http …``) stop
together whichever of them is shut down.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.common.errors import ReproError

__all__ = [
    "ServerLifecycle",
    "STARTING",
    "RECOVERING",
    "READY",
    "DRAINING",
    "STATES",
]

STARTING = "starting"
RECOVERING = "recovering"
READY = "ready"
DRAINING = "draining"

STATES = (STARTING, RECOVERING, READY, DRAINING)

_ALLOWED = {
    STARTING: (RECOVERING, READY, DRAINING),
    RECOVERING: (READY, DRAINING),
    READY: (DRAINING,),
    DRAINING: (),
}


class ServerLifecycle:
    """Thread-safe, forward-only readiness state.

    Transitions that skip backward (or repeat) raise
    :class:`~repro.common.errors.ReproError`, except that every
    ``to_*`` method is idempotent for its own target state — two
    transports racing to drain one process must both succeed.
    """

    def __init__(self, initial: str = STARTING) -> None:
        if initial not in STATES:
            raise ReproError(
                "unknown lifecycle state %r (states: %s)"
                % (initial, ", ".join(STATES))
            )
        self._lock = threading.Lock()
        self._state = initial
        self._entered = time.monotonic()
        self._on_draining: list[Callable[[], None]] = []

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def is_ready(self) -> bool:
        return self.state == READY

    @property
    def is_draining(self) -> bool:
        return self.state == DRAINING

    def _transition(self, target: str) -> bool:
        """Move to *target*; whether the state changed."""
        with self._lock:
            if self._state == target:
                return False
            if target not in _ALLOWED[self._state]:
                raise ReproError(
                    "illegal lifecycle transition %s -> %s"
                    % (self._state, target)
                )
            self._state = target
            self._entered = time.monotonic()
            return True

    def on_draining(self, callback: Callable[[], None]) -> None:
        """Run *callback* (outside the lock) when draining begins."""
        with self._lock:
            self._on_draining.append(callback)

    def to_recovering(self) -> None:
        self._transition(RECOVERING)

    def to_ready(self) -> None:
        self._transition(READY)

    def to_draining(self) -> None:
        if self._transition(DRAINING):
            for callback in self._on_draining:
                callback()

    def describe(self) -> dict[str, Any]:
        """The healthz/stats view: state + time spent in it."""
        with self._lock:
            return {
                "state": self._state,
                "state_seconds": time.monotonic() - self._entered,
            }
