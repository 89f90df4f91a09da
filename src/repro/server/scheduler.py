"""Sharded worker pools with bounded queues and admission control.

One heavy ``summary`` must not starve every other dataset: requests are
routed to a *shard* chosen by a stable hash of their ``dataset`` field,
and each shard owns one worker thread and its own bounded queue.
A flood against one dataset fills one shard's queue (new arrivals get
``kind="error", error_type="Overloaded"`` immediately — load shedding,
not unbounded buffering) while the other shards keep serving.

Single-flight coalescing sits *in front* of the queues: followers of an
in-flight identical request share the leader's future without consuming
a queue slot, so duplicate-heavy traffic costs one computation and one
slot per distinct request (see :mod:`repro.server.singleflight`).
Requests carrying a :class:`~repro.common.budget.Budget` bypass
coalescing: a short-deadline leader must not poison deadline-free
followers with *its* ``DeadlineExceeded``, so deadlined requests are
always their own flight.

Workers are threads because the kernels are CPU-bound pure Python — the
GIL serializes compute, so throughput comes from coalescing and from
never blocking the transport, while sharding buys isolation/fairness,
not parallel CPU.  A second worker per shard would add no CPU either,
so each shard runs one.  The executor is deliberately pluggable-shaped (one
``submit -> Future`` seam) so a process pool can slot in later.

Resilience (PR 7):

* a request whose budget expired while queued is shed at dequeue — it
  never touches compute (``deadline_shed``); one that expires *during*
  compute is abandoned at the next kernel checkpoint
  (``deadline_exceeded``);
* workers that die on an unhandled non-``Exception`` (a real crash, or
  the fault injector's :class:`~repro.common.faults.FaultCrash`) are
  restarted by the supervisor with exponential backoff
  (``worker_restarts``); the in-hand request is retried once, and a
  request that *repeatedly* kills workers is quarantined and answered
  with ``PoisonedRequest`` instead of being retried forever;
* ``stop()`` counts wedged workers that outlived the shutdown deadline
  (``workers_leaked``) and logs a warning instead of silently leaking
  them.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable

from repro.common.budget import Budget, budget_scope
from repro.common.errors import (
    DeadlineExceeded,
    Overloaded,
    PoisonedRequest,
    ShuttingDown,
)
from repro.common.faults import fault_point
from repro.obs.tracing import RequestTrace, span, trace_scope
from repro.service.api import error_payload
from repro.server.singleflight import SingleFlight, request_key

logger = logging.getLogger(__name__)

_STOP = object()

#: Defaults for the TCP server and CLI.
DEFAULT_SHARDS = 4
DEFAULT_QUEUE_DEPTH = 64

#: A request whose worker dies this many times is quarantined.
DEFAULT_QUARANTINE_AFTER = 2
#: Bound on remembered poisoned fingerprints (oldest evicted first).
QUARANTINE_CAPACITY = 128
#: Supervisor restart backoff: base * 2^(deaths-1), capped.
RESTART_BACKOFF_BASE = 0.01
RESTART_BACKOFF_MAX = 1.0


def _shutting_down() -> dict[str, Any]:
    return error_payload(ShuttingDown(
        "server is shutting down; retry against its replacement"
    ))


class _Shard:
    __slots__ = ("index", "queue", "threads", "served", "deaths")

    def __init__(self, index: int, depth: int) -> None:
        self.index = index
        self.queue: queue.Queue = queue.Queue(maxsize=depth)
        self.threads: list[threading.Thread] = []
        self.served = 0
        self.deaths = 0


class ShardedScheduler:
    """Route request payloads to per-dataset shard queues; return futures.

    Parameters
    ----------
    submit:
        The computation for one payload — normally
        :meth:`repro.service.engine.Engine.submit_dict`.  It runs on a
        shard worker thread; exceptions become ``kind="error"`` payloads.
    shards / queue_depth:
        Pool shape: one worker thread per shard.  ``queue_depth`` bounds *waiting* requests per shard;
        in-service requests hold no slot.
    coalesce:
        Disable to measure the no-single-flight baseline (every request,
        duplicate or not, takes a queue slot and a computation).
    quarantine_after:
        Worker deaths the same request may cause before it is
        quarantined and answered with ``PoisonedRequest``.
    telemetry:
        Optional :class:`repro.obs.Telemetry`; supervision events
        (worker restarts, quarantines) become structured lifecycle log
        records when it carries a logger.  Request *traces* arrive via
        :meth:`submit`'s ``trace`` argument, not through this.
    """

    def __init__(
        self,
        submit: Callable[..., dict[str, Any]],
        *,
        shards: int = DEFAULT_SHARDS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        coalesce: bool = True,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        telemetry=None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1, got %d" % shards)
        if queue_depth < 1:
            raise ValueError(
                "queue_depth must be >= 1, got %d" % queue_depth
            )
        if quarantine_after < 1:
            raise ValueError(
                "quarantine_after must be >= 1, got %d" % quarantine_after
            )
        self._submit = submit
        self.coalesce = bool(coalesce)
        self.quarantine_after = quarantine_after
        self.telemetry = telemetry
        self.flight = SingleFlight()
        #: flight key -> the leader's trace_id, for follower linkage.
        self._flight_traces: dict[str, str] = {}
        self._shards = [_Shard(i, queue_depth) for i in range(shards)]
        self._overloaded = 0
        self._inflight = 0  # accepted (queued or in-service) leaders
        self._idle = threading.Condition(threading.Lock())
        # A condition (not a bare lock) so supervision events — worker
        # restarts, crash retries, quarantines — can be *waited on*
        # instead of sleep-polled (see wait_stat).
        self._stats_lock = threading.Condition(threading.Lock())
        self._stopped = False
        self._worker_restarts = 0
        self._workers_leaked = 0
        self._deadline_shed = 0
        self._deadline_exceeded = 0
        self._poisoned = 0
        self._crash_retries = 0
        #: fingerprint -> worker deaths caused by its current attempt run.
        self._crash_counts: dict[str, int] = {}
        #: fingerprints answered with PoisonedRequest from now on (bounded).
        self._quarantine: OrderedDict[str, int] = OrderedDict()
        self._worker_serial = 0
        for shard in self._shards:
            self._spawn_worker(shard)

    def _spawn_worker(self, shard: _Shard, delay: float = 0.0) -> None:
        """Start one worker thread for *shard* (optionally after backoff).

        Callers hold no lock; the serial counter keeps thread names
        unique across restarts.
        """
        with self._stats_lock:
            serial = self._worker_serial
            self._worker_serial += 1
        thread = threading.Thread(
            target=self._worker,
            args=(shard, delay),
            name="repro-shard-%d-w%d" % (shard.index, serial),
            daemon=True,
        )
        with self._stats_lock:
            shard.threads.append(thread)
        thread.start()

    # -- routing -------------------------------------------------------------

    def shard_index(self, payload: dict[str, Any]) -> int:
        """Stable dataset->shard routing (crc32, not the salted ``hash``)."""
        dataset = payload.get("dataset")
        if not isinstance(dataset, str):
            return 0
        return zlib.crc32(dataset.encode("utf-8")) % len(self._shards)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        payload: dict[str, Any],
        budget: Budget | None = None,
        trace: RequestTrace | None = None,
    ) -> Future:
        """Enqueue one payload; always returns a future of a response dict.

        Identical in-flight requests share one future (unless coalescing
        is off, or the request carries a *budget* — deadlined requests
        never coalesce, see the module docstring); a full shard queue
        resolves the future immediately with an ``Overloaded`` error
        payload, and a quarantined request resolves immediately with
        ``PoisonedRequest`` without consuming a slot.

        *trace* (optional) rides with the request: the dequeuing worker
        records a ``scheduler.queue`` span for its queue wait and a
        ``scheduler.worker`` span around compute, coalesced followers
        are annotated with their leader's trace_id, and shed/quarantine
        outcomes are annotated instead of silently absorbed.
        """
        if self._quarantine:
            fingerprint = request_key(payload)
            with self._stats_lock:
                quarantined = fingerprint in self._quarantine
                if quarantined:
                    self._poisoned += 1
            if quarantined:
                if trace is not None:
                    trace.annotate("poisoned", True)
                future: Future = Future()
                future.set_result(error_payload(PoisonedRequest(
                    "request quarantined: it repeatedly crashed workers"
                )))
                return future
        if budget is not None and budget.expired():
            # Dead on arrival: shed without consuming a queue slot.
            with self._stats_lock:
                self._deadline_shed += 1
            if trace is not None:
                trace.annotate("deadline_shed", "pre-queue")
            future = Future()
            future.set_result(error_payload(DeadlineExceeded(
                "deadline expired before the request was queued"
            )))
            return future
        if not self.coalesce or budget is not None:
            future = Future()
            self._enqueue(None, payload, future, budget, trace)
            return future
        key = request_key(payload)
        future, is_leader = self.flight.begin(key)
        if is_leader:
            if trace is not None:
                with self._stats_lock:
                    self._flight_traces[key] = trace.trace_id
            self._enqueue(key, payload, future, None, trace)
        elif trace is not None:
            # Follower: no queue slot, no compute — link it to the
            # leader whose result it will share.
            trace.annotate("coalesced", True)
            with self._stats_lock:
                leader_id = self._flight_traces.get(key)
            if leader_id is not None:
                trace.annotate("leader_trace_id", leader_id)
        return future

    def _enqueue(
        self,
        key: str | None,
        payload: dict[str, Any],
        future: Future,
        budget: Budget | None,
        trace: RequestTrace | None = None,
    ) -> None:
        shard = self._shards[self.shard_index(payload)]
        item = (key, payload, future, budget, trace, time.perf_counter())
        # The stop check and the put share stop()'s lock, so nothing is
        # queued behind the sweep that answers what the workers left.
        with self._idle:
            stopped = self._stopped
            if not stopped:
                try:
                    shard.queue.put_nowait(item)
                except queue.Full:
                    pass
                else:
                    self._inflight += 1
                    return
        if stopped:
            self._resolve(key, future, _shutting_down())
            return
        with self._stats_lock:
            self._overloaded += 1
        if trace is not None:
            trace.annotate("overloaded", shard.index)
        self._resolve(key, future, error_payload(Overloaded(
            "shard %d queue full (depth %d); retry later"
            % (shard.index, shard.queue.maxsize)
        )))

    def _resolve(
        self, key: str | None, future: Future, response: dict[str, Any]
    ) -> None:
        if key is not None:
            if self._flight_traces:
                with self._stats_lock:
                    self._flight_traces.pop(key, None)
            # Retires the key before resolving, so followers that joined
            # while we computed get this response and later arrivals
            # start a fresh flight.
            self.flight.finish(key, future, response)
        else:
            future.set_result(response)

    # -- workers -------------------------------------------------------------

    def _worker(self, shard: _Shard, delay: float = 0.0) -> None:
        """Thread target: the serve loop wrapped in crash supervision."""
        if delay > 0.0:
            time.sleep(delay)
        try:
            self._worker_loop(shard)
        except BaseException:
            # A request escaped every error belt and killed this worker
            # (the in-hand request was already retried or quarantined by
            # _handle_crash).  Log, then hand the shard a replacement.
            logger.warning(
                "shard %d worker %s died; restarting",
                shard.index, threading.current_thread().name,
                exc_info=True,
            )
            self._restart_worker(shard)

    def _worker_loop(self, shard: _Shard) -> None:
        while True:
            item = shard.queue.get()
            if item is _STOP:
                return
            key, payload, future, budget, trace, enqueued_at = item
            if budget is not None and budget.expired():
                # Expired while queued: shed without touching compute.
                with self._stats_lock:
                    self._deadline_shed += 1
                if trace is not None:
                    trace.annotate("deadline_shed", "queued")
                self._finish(key, future, error_payload(DeadlineExceeded(
                    "deadline expired while the request was queued"
                )))
                continue
            if trace is not None:
                # The queue-wait half of the queue/compute split: started
                # at enqueue on the transport thread, ends here at
                # dequeue — recorded from explicit instants because the
                # two ends live on different threads.
                trace.add_span(
                    "scheduler.queue", enqueued_at, time.perf_counter(),
                    shard=shard.index,
                )
            try:
                with trace_scope(trace):
                    with span(
                        "scheduler.worker", shard=shard.index,
                        worker=threading.current_thread().name,
                    ):
                        fault_point("scheduler.worker")
                        with budget_scope(budget):
                            response = self._submit(payload)
            except Exception as error:  # submit_dict shouldn't raise; belt
                response = error_payload(error)  # and suspenders for workers
            except BaseException:
                # Worker death (FaultCrash or a genuine non-Exception).
                # Settle the in-hand request, then let the crash escape
                # to the supervision wrapper.
                self._handle_crash(
                    shard, key, payload, future, budget, trace
                )
                raise
            # A clean completion retires any earlier crash strikes:
            # only *consecutive* worker kills quarantine a request.
            # (Fingerprinting costs a canonical JSON dump, so skip it
            # unless some request actually has strikes outstanding.)
            fingerprint = None
            if self._crash_counts:
                fingerprint = (
                    key if key is not None else request_key(payload)
                )
            with self._stats_lock:
                shard.served += 1
                if fingerprint is not None:
                    self._crash_counts.pop(fingerprint, None)
                if response.get("error_type") == "DeadlineExceeded":
                    self._deadline_exceeded += 1
            self._finish(key, future, response)

    def _finish(
        self, key: str | None, future: Future, response: dict[str, Any]
    ) -> None:
        self._resolve(key, future, response)
        with self._idle:
            self._inflight -= 1
            self._idle.notify_all()

    def _handle_crash(
        self,
        shard: _Shard,
        key: str | None,
        payload: dict[str, Any],
        future: Future,
        budget: Budget | None,
        trace: RequestTrace | None = None,
    ) -> None:
        """The dying worker settles its in-hand request: retry once per
        allowed strike, quarantine past the threshold."""
        fingerprint = key if key is not None else request_key(payload)
        with self._stats_lock:
            strikes = self._crash_counts.get(fingerprint, 0) + 1
            self._crash_counts[fingerprint] = strikes
            poison = strikes >= self.quarantine_after
            if poison:
                self._crash_counts.pop(fingerprint, None)
                self._quarantine[fingerprint] = strikes
                while len(self._quarantine) > QUARANTINE_CAPACITY:
                    self._quarantine.popitem(last=False)
                self._poisoned += 1
                self._stats_lock.notify_all()
        if poison:
            logger.warning(
                "request crashed %d workers; quarantined (fingerprint %s)",
                strikes, fingerprint[:64],
            )
            if trace is not None:
                trace.annotate("quarantined", strikes)
            if self.telemetry is not None:
                self.telemetry.event(
                    "quarantine",
                    shard=shard.index,
                    strikes=strikes,
                    fingerprint=fingerprint[:64],
                )
            self._finish(key, future, error_payload(PoisonedRequest(
                "request crashed %d workers and was quarantined" % strikes
            )))
            return
        if trace is not None:
            trace.annotate("crash_retries", strikes)
        try:
            shard.queue.put_nowait(
                (key, payload, future, budget, trace, time.perf_counter())
            )
            with self._stats_lock:
                self._crash_retries += 1
                self._stats_lock.notify_all()
        except queue.Full:
            with self._stats_lock:
                self._overloaded += 1
            self._finish(key, future, error_payload(Overloaded(
                "shard %d queue full while retrying a crashed request"
                % shard.index
            )))

    def _restart_worker(self, shard: _Shard) -> None:
        current = threading.current_thread()
        with self._stats_lock:
            self._worker_restarts += 1
            shard.deaths += 1
            deaths = shard.deaths
            if current in shard.threads:
                shard.threads.remove(current)
            stopped = self._stopped
            self._stats_lock.notify_all()
        if stopped:
            return
        delay = min(
            RESTART_BACKOFF_BASE * (2 ** (deaths - 1)), RESTART_BACKOFF_MAX
        )
        if self.telemetry is not None:
            self.telemetry.event(
                "worker_restart",
                shard=shard.index,
                deaths=deaths,
                backoff_seconds=delay,
                worker=current.name,
            )
        self._spawn_worker(shard, delay=delay)

    #: Supervision counters that wait_stat can gate on.
    _WAITABLE_STATS = {
        "worker_restarts": "_worker_restarts",
        "crash_retries": "_crash_retries",
        "poisoned": "_poisoned",
    }

    def wait_stat(
        self, name: str, minimum: int = 1, timeout: float = 10.0
    ) -> bool:
        """Event-driven gate: block until ``stats()[name] >= minimum``.

        Supervision events (worker restarts, crash retries, quarantines)
        happen on worker threads at their own pace; tests and
        orchestration wait on the counter's condition variable instead
        of sleep-polling :meth:`stats`.  Returns ``False`` on timeout.
        """
        try:
            attr = self._WAITABLE_STATS[name]
        except KeyError:
            raise ValueError(
                "wait_stat supports %s, got %r"
                % (sorted(self._WAITABLE_STATS), name)
            ) from None
        with self._stats_lock:
            return self._stats_lock.wait_for(
                lambda: getattr(self, attr) >= minimum, timeout
            )

    # -- lifecycle / introspection -------------------------------------------

    def drain(self, timeout: float | None = 5.0) -> bool:
        """Wait (bounded) until every accepted request has resolved.

        This is the graceful half of server shutdown: requests already
        admitted to a shard queue — whose clients are blocked on their
        futures — get served before the transport tears connections
        down, instead of being abandoned mid-flight.  Returns ``True``
        when the queues went idle within *timeout*, ``False`` when the
        deadline passed with work still in flight (the caller proceeds
        with shutdown either way; the bound is the point).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def stop(self, timeout: float | None = 10.0) -> None:
        """Drain queued work, then stop every worker thread.

        From the moment it begins, :meth:`submit` answers
        ``ShuttingDown`` at once, and anything still queued once the
        workers are gone is answered the same way.

        Honors *timeout* end to end: enqueuing the stop sentinels uses
        non-blocking puts with a deadline (a wedged worker behind a full
        queue must not hang shutdown forever — the workers are daemon
        threads, so giving up on them cannot block process exit).
        Workers still alive past the deadline are *counted* (the
        ``workers_leaked`` stat) and logged, not silently abandoned.
        """
        with self._idle:
            if self._stopped:
                return
            self._stopped = True
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard in self._shards:
            for _ in shard.threads:
                while True:
                    try:
                        shard.queue.put_nowait(_STOP)
                        break
                    except queue.Full:
                        if (deadline is not None
                                and time.monotonic() >= deadline):
                            break
                        time.sleep(0.005)
        for shard in self._shards:
            for thread in shard.threads:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                thread.join(remaining)
        # Whatever is still queued (stranded by a wedged worker, or a
        # crash retry behind the sentinels) is answered now: no future
        # outlives stop().  A wedged worker gets a fresh sentinel, so it
        # still exits if it comes unstuck.
        for shard in self._shards:
            while True:
                try:
                    item = shard.queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP:
                    self._finish(item[0], item[2], _shutting_down())
            for thread in shard.threads:
                if thread.is_alive():
                    shard.queue.put_nowait(_STOP)
        leaked = [
            thread
            for shard in self._shards
            for thread in shard.threads
            if thread.is_alive()
        ]
        with self._stats_lock:
            self._workers_leaked = len(leaked)
        if leaked:
            logger.warning(
                "scheduler stop(): %d worker thread(s) still wedged past "
                "the %s deadline: %s",
                len(leaked),
                "%.1fs" % timeout if timeout is not None else "unbounded",
                ", ".join(thread.name for thread in leaked),
            )

    def queue_depths(self) -> list[int]:
        return [shard.queue.qsize() for shard in self._shards]

    def stats(self) -> dict[str, Any]:
        with self._stats_lock:
            overloaded = self._overloaded
            served = [shard.served for shard in self._shards]
            worker_restarts = self._worker_restarts
            workers_leaked = self._workers_leaked
            deadline_shed = self._deadline_shed
            deadline_exceeded = self._deadline_exceeded
            poisoned = self._poisoned
            crash_retries = self._crash_retries
            quarantined = len(self._quarantine)
        with self._idle:
            inflight = self._inflight
        return {
            "inflight": inflight,
            "shards": len(self._shards),
            "queue_depth": self._shards[0].queue.maxsize,
            "queue_depths": self.queue_depths(),
            "served_per_shard": served,
            "overloaded": overloaded,
            "coalesce_enabled": self.coalesce,
            "singleflight": self.flight.stats(),
            "worker_restarts": worker_restarts,
            "workers_leaked": workers_leaked,
            "deadline_shed": deadline_shed,
            "deadline_exceeded": deadline_exceeded,
            "poisoned": poisoned,
            "crash_retries": crash_retries,
            "quarantined": quarantined,
        }
