"""Percentiles, span self-time arithmetic and per-layer rollups.

Pure functions over plain lists and dicts, so the benchmark's own tests
can pin them down without a server.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Any, Iterable, Sequence

#: A tail percentile is only reported where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` for the tail of *values*.

    The percentile is p95 when the sample supports it, otherwise the
    highest nearest-rank percentile with at least :data:`TAIL_BEYOND`
    samples above its rank, and never below the median.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    rank = min(math.ceil(0.95 * n) - 1, n - 1 - TAIL_BEYOND)
    if rank < n / 2:
        # The sample supports no percentile above the median.
        return statistics.median(ordered), 50.0, n
    return ordered[rank], 100.0 * (rank + 1) / n, n


def covered_length(intervals: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals
        if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[dict[str, Any]]) -> dict[int, float]:
    """Self seconds per span id: its duration minus the part of it that
    its child spans cover (children may overlap each other and may
    stick out of the parent; only the covered share inside counts).

    Each span is ``{"id", "parent", "rid", "name", "start", "end"}``.  A
    span whose ``parent`` is ``None`` and that is not a request root
    (``root: True``) belongs to the root span of its request id.
    """
    roots = {span["rid"]: span["id"] for span in spans if span.get("root")}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span["parent"]
        if parent is None and not span.get("root"):
            parent = roots.get(span["rid"])
        if parent is not None:
            children[parent].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"]) - covered_length(
            children.get(span["id"], ()), span["start"], span["end"]
        )
        for span in spans
    }


def ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(trace: dict[str, Any], window: dict[str, dict[str, Any]],
                  scheduler: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics from a traced server's span dump.

    *window* maps the request ids sent during the measured window to the
    client's record of them (``sent``/``recv`` perf-counter instants and
    ``kind``); spans of other requests (boot, warm-up) only feed the
    set-up metrics, except that pool and store builds count the
    warm-up's builds too.  *scheduler* is the ``stats.server.scheduler``
    map read before shutdown.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    per_rid_self: dict[str, float] = defaultdict(float)
    roots: dict[str, dict[str, Any]] = {}
    window_start = min((r["sent"] for r in window.values()), default=0.0)
    for span in spans:
        span["self"] = selfs[span["id"]]
        if span["rid"] in window:
            by_name[span["name"]].append(span)
            per_rid_self[span["rid"]] += span["self"]
            if span.get("root"):
                roots[span["rid"]] = span
        elif span["rid"] == "boot":
            by_name["boot:" + span["name"]].append(span)
        elif span["start"] < window_start:
            by_name["setup:" + span["name"]].append(span)
    for name in ("core.semilattice.pool_build",
                 "interactive.precompute.store_build"):
        by_name[name] += by_name["setup:" + name]

    def p50(name: str, key: str = "dur") -> float:
        values = [
            (s["end"] - s["start"]) if key == "dur" else s["self"]
            for s in by_name.get(name, ())
        ]
        return ms(median(values))

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def tail_ms(name: str) -> float:
        return ms(tail([s["end"] - s["start"] for s in by_name.get(name, ())])[0])

    events = [e for e in trace["events"] if e["rid"] in window]

    def event_values(name: str) -> list[Any]:
        return [e["value"] for e in events if e["name"] == name]

    def rate(name: str) -> float:
        values = event_values(name)
        return sum(1 for v in values if v) / len(values) if values else 0.0

    solves = by_name.get("core.problem.solve", ())
    queue = [s["end"] - s["start"] for s in by_name.get("server.scheduler.queue_wait", ())]
    analytic = [rid for rid, record in window.items()
                if record["kind"] in ("summary", "explore", "guidance")]
    coverage = trace["coverage"]
    wal = event_values("durability.wal_append")
    compactions = [s for s in by_name.get("durability.compact", ()) if s["value"]]
    targeted = [n for n in scheduler.get("served_per_shard", []) if n]
    conn_wait = []
    unattributed = []
    for rid, root in roots.items():
        record = window[rid]
        wait = max(0.0, root["start"] - record["sent"])
        conn_wait.append(wait)
        unattributed.append(
            (record["recv"] - record["sent"]) - wait - per_rid_self[rid]
        )
    return {
        "server.tcp.self_ms_p50": p50("server.tcp", "self"),
        "web.http.self_ms_p50": p50("web.http", "self"),
        "transport.conn_wait_ms_p50": ms(median(conn_wait)),
        "service.serve.dispatch_ms_p50": p50("service.serve.dispatch", "self"),
        "server.scheduler.queue_wait_ms_p50": ms(median(queue)),
        "server.scheduler.queue_wait_ms_p95": ms(tail(queue)[0]),
        "server.scheduler.served_min_share": (
            min(targeted) / sum(targeted) if targeted else 0.0
        ),
        "server.singleflight.coalesced": float(
            scheduler.get("singleflight", {}).get("coalesced", 0)
        ),
        "service.engine.submit_ms_p50": p50("service.engine.submit"),
        "service.engine.serialize_ms_p50": p50("service.engine.serialize"),
        "service.engine.pool_hit_rate": rate("service.engine.pool_hit"),
        "service.engine.store_hit_rate": rate("service.engine.store_hit"),
        "service.engine.append_ms_p50": p50("service.engine.append"),
        "service.engine.pools_maintained": float(
            sum(s["value"] or 0 for s in by_name.get("service.engine.append", ()))
        ),
        "core.semilattice.pool_build_ms_p50": p50("core.semilattice.pool_build"),
        "core.semilattice.pool_builds": float(
            len(by_name.get("core.semilattice.pool_build", ()))
        ),
        "core.semilattice.pool_extend_ms_p50": p50("core.semilattice.pool_extend"),
        "core.semilattice.coverage_ms_per_request": (
            ms(sum(coverage.get(rid, 0.0) for rid in analytic) / len(analytic))
            if analytic else 0.0
        ),
        "core.problem.solve_ms_p50": p50("core.problem.solve"),
        "core.problem.solve_ms_p95": tail_ms("core.problem.solve"),
        "core.merge.argmax_evals_mean": (
            statistics.fmean(s["value"][0] for s in solves) if solves else 0.0
        ),
        "core.merge.argmax_pops_mean": (
            statistics.fmean(s["value"][1] for s in solves) if solves else 0.0
        ),
        "interactive.precompute.store_build_ms_p50": p50(
            "interactive.precompute.store_build"
        ),
        "interactive.precompute.store_builds": float(
            len(by_name.get("interactive.precompute.store_build", ()))
        ),
        "interactive.precompute.retrieve_ms_p50": p50(
            "interactive.precompute.retrieve"
        ),
        "interactive.guidance.view_ms_p50": p50("interactive.guidance.view"),
        "query.csv_io.read_s": total("boot:query.csv_io.read"),
        "core.answers.from_rows_s": total("boot:core.answers.from_rows"),
        "durability.record_register_s": total("boot:durability.record_register"),
        "core.answers.extend_ms_p50": p50("core.answers.extend"),
        "durability.record_append_ms_p50": p50("durability.record_append"),
        "durability.wal_bytes_per_row": (
            sum(v[0] for v in wal) / sum(v[1] for v in wal)
            if wal and sum(v[1] for v in wal) else 0.0
        ),
        "durability.compactions": float(len(compactions)),
        "durability.compact_ms_total": ms(
            sum(s["end"] - s["start"] for s in compactions)
        ),
        "bench.unattributed_ms_p50": ms(median(unattributed)),
    }
