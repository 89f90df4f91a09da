"""Deterministic fault injection for chaos tests and benchmarks.

Production code is sprinkled with *named fault sites* — single calls to
:func:`fault_point` at the places that fail in real deployments:

========================  ====================================================
site                      where it sits
========================  ====================================================
``engine.compute``        :meth:`repro.service.engine.Engine.submit`, before
                          any solve work
``scheduler.worker``      the shard worker loop, after dequeue and before
                          compute (a firing ``crash`` kills the worker thread)
``sessions.write``        :meth:`repro.web.sessions.SessionStore.save`, before
                          the temp-file write
``tcp.write``             the TCP connection handler, before writing a
                          response line to the socket
``wal.write``             :meth:`repro.durability.wal.WriteAheadLog.append`,
                          before the record write hits the log file
``wal.fsync``             same method, before ``os.fsync`` of the log file
========================  ====================================================

When nothing is armed, ``fault_point`` is a module-level boolean check —
the sites add no measurable cost and no behavioral drift (the golden
wire-parity tests run with faults disarmed).

Arming is deterministic: every rule rolls a seeded ``random.Random``,
so a chaos run with the same seed and the same request interleaving
fires the same faults.  Rules are armed in the process they fire in,
two ways:

* programmatically (:func:`arm`, :func:`arm_from_spec`, :func:`clear` —
  what the chaos tests and ``bench_chaos.py`` use, with the server in
  their own process),
* via the ``REPRO_FAULTS`` environment variable at import time
  (``site=behavior[:probability[:param[:times]]]`` joined by ``;``, with
  ``REPRO_FAULTS_SEED`` seeding the RNG), for drills that start a
  separate server process, e.g.::

      REPRO_FAULTS="scheduler.worker=crash:0.05;engine.compute=latency:1:25"

No wire request arms or lists faults: on a shared server one client
could otherwise fail every other client's requests.

Behaviors:

``crash``
    raise :class:`FaultCrash` — a ``BaseException`` that sails through
    both the engine's ``except (ReproError, ...)`` belt and the worker's
    ``except Exception`` belt, simulating a worker death (segfault/OOM
    stand-in) rather than a handled error.
``error``
    raise :class:`~repro.common.errors.InjectedFault` (a ``ReproError``;
    surfaces as a typed error response).
``latency``
    sleep ``param`` milliseconds (a stall, not a failure).
``disconnect``
    raise :class:`ConnectionResetError` (for transport-layer sites).
``short-write``
    raise :class:`FaultShortWrite` — the disk-layer sites catch it, write
    only a prefix of the pending record (``param`` bytes; 0 = half), and
    surface the failure as an ``OSError``, producing exactly the torn
    tail a power cut mid-write leaves behind.
``enospc``
    raise ``OSError(errno.ENOSPC)`` — the disk filling up underneath a
    write or fsync.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.common.errors import InjectedFault, InvalidParameterError

__all__ = [
    "FAULT_SITES",
    "BEHAVIORS",
    "FaultCrash",
    "FaultShortWrite",
    "FaultRule",
    "arm",
    "arm_from_spec",
    "clear",
    "describe",
    "fault_point",
    "set_seed",
]

#: Every fault site compiled into the codebase.  Arming an unknown site
#: is an error — a typo'd chaos config should fail loudly, not silently
#: inject nothing.
FAULT_SITES = (
    "engine.compute",
    "scheduler.worker",
    "sessions.write",
    "tcp.write",
    "wal.write",
    "wal.fsync",
)

BEHAVIORS = (
    "crash", "error", "latency", "disconnect", "short-write", "enospc",
)


class FaultCrash(BaseException):
    """An injected worker death.

    Deliberately *not* an :class:`Exception`: the scheduler worker's
    ``except Exception`` error belt must not absorb it, so it propagates
    exactly like a real crash and exercises the supervision path.
    """


class FaultShortWrite(Exception):
    """An injected partial disk write.

    A plain :class:`Exception` on purpose — the WAL's write path catches
    it deliberately, persists only ``keep_bytes`` of the pending record
    (half the record when 0), and then fails the append with an
    ``OSError``.  Nothing else should ever see it.
    """

    def __init__(self, keep_bytes: int = 0) -> None:
        super().__init__("injected short write (keep %d bytes)" % keep_bytes)
        self.keep_bytes = int(keep_bytes)


class FaultRule:
    """One armed behavior at one site.

    Parameters
    ----------
    site:
        One of :data:`FAULT_SITES`.
    behavior:
        One of :data:`BEHAVIORS`.
    probability:
        Chance of firing per visit, rolled on the module's seeded RNG.
    param:
        Behavior parameter — latency milliseconds for ``latency``,
        unused otherwise.
    times:
        Maximum number of firings (``None`` = unlimited).  One-shot
        rules (``times=1``) make crash tests deterministic.
    """

    __slots__ = ("site", "behavior", "probability", "param", "times", "fired")

    def __init__(
        self,
        site: str,
        behavior: str,
        probability: float = 1.0,
        param: float = 0.0,
        times: Optional[int] = None,
    ) -> None:
        if site not in FAULT_SITES:
            raise InvalidParameterError(
                "unknown fault site %r (sites: %s)"
                % (site, ", ".join(FAULT_SITES))
            )
        if behavior not in BEHAVIORS:
            raise InvalidParameterError(
                "unknown fault behavior %r (behaviors: %s)"
                % (behavior, ", ".join(BEHAVIORS))
            )
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError(
                "fault probability must be in [0, 1], got %r" % (probability,)
            )
        if times is not None and times < 1:
            raise InvalidParameterError(
                "fault times must be >= 1, got %r" % (times,)
            )
        self.site = site
        self.behavior = behavior
        self.probability = float(probability)
        self.param = float(param)
        self.times = times
        self.fired = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "behavior": self.behavior,
            "probability": self.probability,
            "param": self.param,
            "times": self.times,
            "fired": self.fired,
        }


_lock = threading.Lock()
_rules: Dict[str, FaultRule] = {}
_rng = random.Random(0)
#: Fast-path flag: fault_point() reads this without the lock.  Written
#: only under the lock; stale reads cost one extra lock round-trip at
#: worst (arming/clearing races are inherently racy anyway).
_armed = False


def set_seed(seed: int) -> None:
    """Re-seed the shared RNG (determinism across chaos runs)."""
    with _lock:
        _rng.seed(seed)

def arm(
    site: str,
    behavior: str,
    probability: float = 1.0,
    param: float = 0.0,
    times: Optional[int] = None,
) -> FaultRule:
    """Arm *behavior* at *site*, replacing any existing rule there."""
    global _armed
    rule = FaultRule(site, behavior, probability, param, times)
    with _lock:
        _rules[site] = rule
        _armed = True
    return rule


def clear(site: Optional[str] = None) -> None:
    """Disarm one site, or every site when *site* is None."""
    global _armed
    with _lock:
        if site is None:
            _rules.clear()
        else:
            _rules.pop(site, None)
        _armed = bool(_rules)


def describe() -> List[Dict[str, Any]]:
    """Snapshot of armed rules and their fire counts (admin ``faults``)."""
    with _lock:
        return [_rules[site].describe() for site in sorted(_rules)]


def fault_point(site: str) -> None:
    """A named fault site; a near-no-op unless chaos rules are armed."""
    if not _armed:
        return
    with _lock:
        rule = _rules.get(site)
        if rule is None:
            return
        if rule.times is not None and rule.fired >= rule.times:
            return
        if rule.probability < 1.0 and _rng.random() >= rule.probability:
            return
        rule.fired += 1
        behavior = rule.behavior
        param = rule.param
    # Act outside the lock: a latency sleep must not serialize every
    # other fault site behind it.
    if behavior == "latency":
        time.sleep(param / 1000.0)
    elif behavior == "error":
        raise InjectedFault("injected fault at site %r" % site)
    elif behavior == "crash":
        raise FaultCrash(site)
    elif behavior == "disconnect":
        raise ConnectionResetError("injected disconnect at site %r" % site)
    elif behavior == "short-write":
        raise FaultShortWrite(int(param))
    elif behavior == "enospc":
        raise OSError(
            errno.ENOSPC, "injected ENOSPC at site %r" % site
        )


def arm_from_spec(spec: str, seed: Optional[int] = None) -> List[FaultRule]:
    """Arm rules from a compact spec string (the ``REPRO_FAULTS`` syntax).

    ``site=behavior[:probability[:param[:times]]]`` entries joined by
    ``;``.  Examples::

        scheduler.worker=crash:0.05
        engine.compute=latency:0.2:50
        sessions.write=error:1:0:3

    >>> rules = arm_from_spec("engine.compute=latency:0.5:25", seed=7)
    >>> [(r.site, r.behavior, r.probability, r.param) for r in rules]
    [('engine.compute', 'latency', 0.5, 25.0)]
    >>> clear()
    """
    if seed is not None:
        set_seed(seed)
    rules: List[FaultRule] = []
    for entry in _split_entries(spec):
        site, separator, tail = entry.partition("=")
        if not separator:
            raise InvalidParameterError(
                "fault spec entry %r lacks 'site=behavior'" % entry
            )
        parts = tail.split(":")
        behavior = parts[0]
        try:
            probability = float(parts[1]) if len(parts) > 1 else 1.0
            param = float(parts[2]) if len(parts) > 2 else 0.0
            times = int(parts[3]) if len(parts) > 3 else None
        except ValueError:
            raise InvalidParameterError(
                "malformed fault spec entry %r "
                "(want site=behavior[:probability[:param[:times]]])" % entry
            ) from None
        rules.append(arm(site.strip(), behavior, probability, param, times))
    return rules


def _split_entries(spec: str) -> Iterable[str]:
    for entry in spec.replace(",", ";").split(";"):
        entry = entry.strip()
        if entry:
            yield entry


def _arm_from_environment() -> None:
    spec = os.environ.get("REPRO_FAULTS")
    if not spec:
        return
    seed_text = os.environ.get("REPRO_FAULTS_SEED")
    seed = int(seed_text) if seed_text else None
    arm_from_spec(spec, seed=seed)


_arm_from_environment()
