"""Scenario execution: run a compiled trace against a *real* server.

The runner is the load-bearing half of the scenario harness:

1. Build the dataset and compile the trace (:mod:`repro.scenarios.trace`).
2. Execute it over the spec's transport — stdio (in-process
   :class:`~repro.service.serve.Dispatcher`), TCP
   (:class:`~repro.server.tcp.TCPServer` on a
   :class:`~repro.server.network.BackgroundServer` + one
   :class:`~repro.server.client.LineClient` per client thread), or HTTP
   (:class:`~repro.web.http.WebServer` on a ``BackgroundServer`` + one
   connection per client thread).  Clients run concurrently within an
   epoch; epochs are separated by barriers so append batches land
   *between* traffic bursts with every client quiesced — the live-update
   scenario of the paper's interactive setting.
3. Replay the identical trace single-threaded on a fresh engine and
   compare every response (timings zeroed, cache-hit flags dropped):
   concurrency, coalescing, and incremental append maintenance must be
   observably invisible.  Any divergence is a correctness bug, and the
   committed report says so.
4. For append scenarios, additionally prove in-process that the
   incrementally maintained :class:`~repro.core.semilattice.ClusterPool`
   is *bit-identical* (patterns, masks, coverage) to a pool rebuilt from
   scratch, on both kernels.

The scored report (latency histograms per kind, error taxonomy, engine
cache/coalesce rates, differential verdict, append check) is plain JSON —
:mod:`repro.scenarios.report` turns it + the spec's floors into pass/fail.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any

from repro.core.answers import AnswerSet
from repro.core.bitset import DENSE_KERNEL, KERNELS
from repro.obs import Telemetry
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import AppendEvent, Trace, compile_trace
from repro.server.metrics import LatencyHistogram

#: How many differential mismatches to quote verbatim in the report.
_MAX_DIFF_EXAMPLES = 3

#: Response keys that legitimately differ between runs: wall-clock
#: timings and cache observability.  Everything else must match.
_VOLATILE_KEY_SUFFIX = "_seconds"
_VOLATILE_KEYS = frozenset({"cache_hit"})


def normalize_response(payload: Any) -> Any:
    """Strip run-dependent fields so responses compare across runs.

    Drops ``cache_hit`` (a warm cache is an implementation detail), zeroes
    every ``*_seconds`` timing (including nested ``phase_seconds`` maps),
    and recurses through containers.  Everything that survives — clusters,
    values, coverage, errors — must be identical between the concurrent
    run and the single-threaded reference replay.
    """
    if isinstance(payload, dict):
        out: dict[str, Any] = {}
        for key, value in payload.items():
            if key in _VOLATILE_KEYS:
                continue
            if key.endswith(_VOLATILE_KEY_SUFFIX):
                if isinstance(value, dict):
                    out[key] = {inner: 0.0 for inner in value}
                else:
                    out[key] = 0.0
                continue
            out[key] = normalize_response(value)
        return out
    if isinstance(payload, (list, tuple)):
        # The wire JSON-serializes tuples to lists; the in-process
        # reference replay keeps them as tuples.  Same data, one shape.
        return [normalize_response(item) for item in payload]
    return payload


class _Recorder:
    """Per-client observation sink, merged after the run (no shared
    mutable state across client threads during execution)."""

    def __init__(self, clients: int) -> None:
        self.responses: list[dict[tuple[int, int], dict[str, Any]]] = [
            {} for _ in range(clients)
        ]
        self.latencies: list[list[tuple[str, float]]] = [
            [] for _ in range(clients)
        ]
        self.failures: list[list[str]] = [[] for _ in range(clients)]

    def record(
        self, client: int, epoch: int, position: int,
        kind: str, response: dict[str, Any], seconds: float,
    ) -> None:
        self.responses[client][(epoch, position)] = response
        self.latencies[client].append((kind, seconds))

    def fail(self, client: int, message: str) -> None:
        self.failures[client].append(message)


def _apply_append_inline(engine, dataset: str, event: AppendEvent) -> None:
    result = engine.append_rows(
        dataset, [tuple(row) for row in event.rows], list(event.values)
    )
    if result["appended"] != len(event.rows):
        raise RuntimeError(
            "append batch %d only applied %d/%d rows"
            % (event.batch, result["appended"], len(event.rows))
        )


# -- transports ---------------------------------------------------------------


def _run_stdio(
    trace: Trace, engine, telemetry: Telemetry
) -> tuple[_Recorder, dict[str, Any]]:
    """Sequential in-process execution through the shared dispatcher."""
    from repro.service.serve import Dispatcher

    dispatcher = Dispatcher(engine, telemetry=telemetry)
    recorder = _Recorder(trace.spec.clients)
    for epoch in trace.epochs:
        if epoch.append is not None:
            response = dispatcher.dispatch_payload(
                epoch.append.payload(trace.dataset)
            ).response
            if response.get("kind") != "rows_appended":
                raise RuntimeError(
                    "append batch rejected: %r" % (response,)
                )
        for client, client_requests in enumerate(epoch.requests):
            for position, payload in enumerate(client_requests):
                started = time.perf_counter()
                response = dispatcher.dispatch_payload(dict(payload)).response
                elapsed = time.perf_counter() - started
                recorder.record(
                    client, epoch.index, position,
                    payload["kind"], response, elapsed,
                )
    stats = dispatcher.dispatch_payload({"kind": "stats"}).response
    return recorder, stats


def _run_client_epochs(
    trace: Trace,
    recorder: _Recorder,
    client: int,
    start_barrier: threading.Barrier,
    end_barrier: threading.Barrier,
    send,
) -> None:
    """One concurrent client: barrier in, burst, barrier out, per epoch."""
    try:
        for epoch in trace.epochs:
            start_barrier.wait(timeout=300.0)
            try:
                for position, payload in enumerate(epoch.requests[client]):
                    started = time.perf_counter()
                    response = send(dict(payload))
                    elapsed = time.perf_counter() - started
                    recorder.record(
                        client, epoch.index, position,
                        payload["kind"], response, elapsed,
                    )
            finally:
                end_barrier.wait(timeout=300.0)
    except Exception as error:  # noqa: BLE001 — reported, never swallowed
        recorder.fail(client, "%s: %s" % (type(error).__name__, error))
        # Unblock the coordinator: a broken barrier aborts the run loudly.
        start_barrier.abort()
        end_barrier.abort()


def _drive_epochs(
    trace: Trace,
    recorder: _Recorder,
    make_send,
    apply_append,
    fetch_stats,
) -> dict[str, Any]:
    """Shared concurrent driver for the TCP and HTTP transports.

    ``make_send(client)`` returns a ``send(payload) -> response`` callable
    (one connection per client thread); ``apply_append(event)`` runs an
    append batch while every client is parked at the epoch barrier;
    ``fetch_stats()`` grabs the final server-side stats payload.
    """
    spec = trace.spec
    start_barrier = threading.Barrier(spec.clients + 1)
    end_barrier = threading.Barrier(spec.clients + 1)
    threads: list[threading.Thread] = []

    def client_main(client: int) -> None:
        try:
            send = make_send(client)
        except Exception as error:  # noqa: BLE001
            recorder.fail(client, "connect: %s" % error)
            start_barrier.abort()
            end_barrier.abort()
            return
        try:
            _run_client_epochs(
                trace, recorder, client, start_barrier, end_barrier, send
            )
        finally:
            closer = getattr(send, "close", None)
            if closer is not None:
                closer()

    for client in range(spec.clients):
        thread = threading.Thread(
            target=client_main,
            args=(client,),
            name="scenario-client-%d" % client,
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    try:
        for epoch in trace.epochs:
            if epoch.append is not None:
                apply_append(epoch.append)
            start_barrier.wait(timeout=300.0)
            end_barrier.wait(timeout=300.0)
    except threading.BrokenBarrierError:
        pass  # a client failed (or stalled); recorder.failures has details
    for thread in threads:
        thread.join(timeout=120.0)
    return fetch_stats()


def _run_tcp(
    trace: Trace, engine, telemetry: Telemetry
) -> tuple[_Recorder, dict[str, Any]]:
    from repro.server.client import LineClient
    from repro.server import BackgroundServer, TCPServer

    recorder = _Recorder(trace.spec.clients)
    with BackgroundServer(
        TCPServer(engine, shards=2, telemetry=telemetry)
    ) as server:
        admin = LineClient(server.host, server.port, timeout=120.0)

        def make_send(client: int):
            line = LineClient(server.host, server.port, timeout=120.0)

            def send(payload: dict[str, Any]) -> dict[str, Any]:
                return line.request(payload)

            send.close = line.close
            return send

        def apply_append(event: AppendEvent) -> None:
            response = admin.request(event.payload(trace.dataset))
            if response.get("kind") != "rows_appended":
                raise RuntimeError("append batch rejected: %r" % (response,))

        def fetch_stats() -> dict[str, Any]:
            return admin.request({"kind": "stats"})

        try:
            stats = _drive_epochs(
                trace, recorder, make_send, apply_append, fetch_stats
            )
        finally:
            admin.close()
    return recorder, stats


def _run_http(
    trace: Trace, engine, telemetry: Telemetry
) -> tuple[_Recorder, dict[str, Any]]:
    import http.client

    from repro.server import BackgroundServer
    from repro.web.http import WebServer

    recorder = _Recorder(trace.spec.clients)
    server = BackgroundServer(
        WebServer(engine, port=0, telemetry=telemetry)
    ).start()
    try:
        def open_connection() -> http.client.HTTPConnection:
            return http.client.HTTPConnection(
                server.host, server.port, timeout=120.0
            )

        def post(
            connection: http.client.HTTPConnection, payload: dict[str, Any]
        ) -> dict[str, Any]:
            kind = payload["kind"]
            if kind in ("summary", "explore", "guidance"):
                path = "/v2/%s" % kind
            else:
                path = "/v2/admin/%s" % kind
            connection.request(
                "POST", path, body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return json.loads(response.read().decode("utf-8"))

        def make_send(client: int):
            connection = open_connection()

            def send(payload: dict[str, Any]) -> dict[str, Any]:
                return post(connection, payload)

            send.close = connection.close
            return send

        def apply_append(event: AppendEvent) -> None:
            connection = open_connection()
            try:
                response = post(connection, event.payload(trace.dataset))
            finally:
                connection.close()
            if response.get("kind") != "rows_appended":
                raise RuntimeError("append batch rejected: %r" % (response,))

        def fetch_stats() -> dict[str, Any]:
            connection = open_connection()
            try:
                return post(connection, {"kind": "stats"})
            finally:
                connection.close()

        stats = _drive_epochs(
            trace, recorder, make_send, apply_append, fetch_stats
        )
    finally:
        server.stop()
    return recorder, stats


_TRANSPORT_RUNNERS = {
    "stdio": _run_stdio,
    "tcp": _run_tcp,
    "http": _run_http,
}


# -- reference replay + differential -----------------------------------------


def _reference_replay(
    trace: Trace, answers: AnswerSet
) -> dict[tuple[int, int, int], dict[str, Any]]:
    """The oracle: same trace, fresh engine, one thread, no server."""
    from repro.service.engine import Engine
    from repro.service.serve import Dispatcher

    engine = Engine()
    engine.register_dataset(trace.dataset, answers)
    dispatcher = Dispatcher(engine)
    reference: dict[tuple[int, int, int], dict[str, Any]] = {}
    for epoch in trace.epochs:
        if epoch.append is not None:
            _apply_append_inline(engine, trace.dataset, epoch.append)
        for client, client_requests in enumerate(epoch.requests):
            for position, payload in enumerate(client_requests):
                reference[(epoch.index, client, position)] = (
                    dispatcher.dispatch_payload(dict(payload)).response
                )
    return reference


def _differential(
    trace: Trace,
    recorder: _Recorder,
    reference: dict[tuple[int, int, int], dict[str, Any]],
) -> dict[str, Any]:
    compared = 0
    missing = 0
    mismatch_total = 0
    examples: list[dict[str, Any]] = []
    for (epoch, client, position), expected in sorted(reference.items()):
        got = recorder.responses[client].get((epoch, position))
        if got is None:
            missing += 1
            continue
        compared += 1
        lhs = normalize_response(got)
        rhs = normalize_response(expected)
        if lhs != rhs:
            mismatch_total += 1
            if len(examples) < _MAX_DIFF_EXAMPLES:
                examples.append({
                    "epoch": epoch, "client": client, "position": position,
                    "request": trace.epochs[epoch].requests[client][position],
                    "live": lhs, "reference": rhs,
                })
    return {
        "compared": compared,
        "missing": missing,
        "mismatches": mismatch_total,
        "identical": missing == 0 and mismatch_total == 0,
        "examples": examples,
    }


# -- append bit-identity check ------------------------------------------------


def _masks_identical(maintained, rebuilt) -> bool:
    if set(maintained.patterns()) != set(rebuilt.patterns()):
        return False
    # Key on the kernel the pool resolved: without numpy a "dense"
    # request builds int masks.
    dense = rebuilt.kernel == DENSE_KERNEL
    for pattern in rebuilt.patterns():
        left, right = maintained.mask(pattern), rebuilt.mask(pattern)
        if dense:
            left, right = left._as_int(), right._as_int()
        if left != right:
            return False
        if maintained.coverage(pattern) != rebuilt.coverage(pattern):
            return False
    return True


def check_append_identity(
    answers: AnswerSet, events: list[AppendEvent], L: int
) -> dict[str, Any]:
    """Prove pool-after-k-appends ≡ pool-rebuilt-from-scratch, per kernel.

    Runs in-process (transport-independent): maintains one
    :class:`~repro.core.semilattice.ClusterPool` through every append
    event via :meth:`~repro.core.semilattice.ClusterPool.extended`, then
    rebuilds from the final answer set and compares patterns, raw masks,
    and coverage sets for bit-identity, on every kernel.
    """
    from repro.core.semilattice import ClusterPool

    verdicts: dict[str, bool] = {}
    for kernel in KERNELS:
        maintained = ClusterPool(answers, L, kernel=kernel)
        current = answers
        for event in events:
            current, delta = current.extended(
                [tuple(row) for row in event.rows], list(event.values)
            )
            maintained = maintained.extended(current, delta)
        rebuilt = ClusterPool(current, L, kernel=kernel)
        verdicts[kernel] = _masks_identical(maintained, rebuilt)
    return {
        "kernels": verdicts,
        "batches": len(events),
        "rows_appended": sum(len(event.rows) for event in events),
        "identical": all(verdicts.values()),
    }


# -- span rollups -------------------------------------------------------------


def _sum_named_spans(spans: list[dict[str, Any]], name: str) -> float:
    """Total duration of every span called *name* anywhere in the tree."""
    total = 0.0
    for node in spans:
        if node.get("name") == name:
            total += float(node.get("duration_seconds", 0.0))
        total += _sum_named_spans(node.get("children", []), name)
    return total


def span_rollup(traces: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-kind queue-wait vs compute split from finished trace trees.

    For each request kind: how much traced time sat in shard queues
    (``scheduler.queue``) vs actually computing (``scheduler.worker``, or
    ``engine.request`` on the schedulerless stdio transport), plus the
    p95 of the per-trace *overhead fraction* — the share of a request's
    wall time spent anywhere but compute.  The fraction is
    machine-independent, so ``max_p95_overhead`` floors stay meaningful
    across hardware and localize a latency regression to a layer.

    Coalesced followers never compute (their time *is* the leader's
    compute window), so they count toward the split totals but are
    excluded from the overhead distribution — otherwise every coalesce
    hit would read as 100% overhead.
    """
    buckets: dict[str, dict[str, Any]] = {}
    overheads: dict[str, list[float]] = {}
    for tree in traces:
        kind = tree.get("kind", "unknown")
        spans = tree.get("spans", [])
        queue = _sum_named_spans(spans, "scheduler.queue")
        compute = _sum_named_spans(spans, "scheduler.worker")
        if compute == 0.0:
            compute = _sum_named_spans(spans, "engine.request")
        duration = float(tree.get("duration_seconds", 0.0))
        bucket = buckets.setdefault(kind, {
            "traces": 0, "queue_seconds": 0.0, "compute_seconds": 0.0,
        })
        bucket["traces"] += 1
        bucket["queue_seconds"] += queue
        bucket["compute_seconds"] += compute
        coalesced = bool(tree.get("annotations", {}).get("coalesced"))
        if duration > 0.0 and not coalesced:
            overheads.setdefault(kind, []).append(
                max(0.0, duration - min(compute, duration)) / duration
            )
    for kind, bucket in buckets.items():
        values = sorted(overheads.get(kind, []))
        if values:
            index = min(len(values) - 1, int(0.95 * len(values)))
            bucket["overhead_p95"] = values[index]
        else:
            bucket["overhead_p95"] = 0.0
    return dict(sorted(buckets.items()))


# -- scoring -----------------------------------------------------------------


def _score(
    trace: Trace,
    recorder: _Recorder,
    stats: dict[str, Any],
    differential: dict[str, Any],
    append_check: dict[str, Any] | None,
    spans: dict[str, Any],
) -> dict[str, Any]:
    histograms: dict[str, LatencyHistogram] = {}
    responses = 0
    errors_by_type: dict[str, int] = {}
    for client in range(trace.spec.clients):
        for kind, seconds in recorder.latencies[client]:
            histograms.setdefault(kind, LatencyHistogram()).observe(seconds)
        for response in recorder.responses[client].values():
            responses += 1
            if response.get("kind") == "error":
                error_type = response.get("error_type", "unknown")
                errors_by_type[error_type] = (
                    errors_by_type.get(error_type, 0) + 1
                )
    for client, failures in enumerate(recorder.failures):
        for _ in failures:
            errors_by_type["TransportFailure"] = (
                errors_by_type.get("TransportFailure", 0) + 1
            )
    error_total = sum(errors_by_type.values())
    report: dict[str, Any] = {
        "name": trace.spec.name,
        "spec": trace.spec.to_dict(),
        "requests": trace.total_requests,
        "responses": responses,
        "latency": {
            kind: histogram.summary()
            for kind, histogram in sorted(histograms.items())
        },
        "errors": {
            "total": error_total,
            "rate": (
                error_total / trace.total_requests
                if trace.total_requests else 0.0
            ),
            "by_type": dict(sorted(errors_by_type.items())),
            "client_failures": [
                message
                for failures in recorder.failures
                for message in failures
            ],
        },
        "cache": {
            "pools": stats.get("pools", {}),
            "stores": stats.get("stores", {}),
        },
        "differential": differential,
        "append_check": append_check,
        "spans": spans,
    }
    return report


def run_scenario(spec: ScenarioSpec) -> dict[str, Any]:
    """Execute one scenario end to end and return its scored report."""
    answers = spec.dataset.build()
    trace = compile_trace(spec, answers)

    from repro.service.engine import Engine

    engine = Engine()
    engine.register_dataset(trace.dataset, answers)
    # Arm tracing for the live run (capacity >= the whole workload so the
    # rollup sees every request); responses stay byte-identical, so the
    # differential against the untraced reference replay still holds.
    telemetry = Telemetry(
        tracing=True, trace_buffer=max(32, trace.total_requests)
    )
    recorder, stats = _TRANSPORT_RUNNERS[spec.transport](
        trace, engine, telemetry
    )

    reference = _reference_replay(trace, answers)
    differential = _differential(trace, recorder, reference)

    append_check = None
    if spec.append is not None:
        events = [
            epoch.append for epoch in trace.epochs
            if epoch.append is not None
        ]
        append_check = check_append_identity(
            answers, events, L=max(2, min(4, answers.n))
        )
    spans = span_rollup(telemetry.traces()["recent"])
    return _score(
        trace, recorder, stats, differential, append_check, spans
    )
