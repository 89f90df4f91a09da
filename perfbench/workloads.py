"""The two workloads: boot a real server, drive it, check every answer.

Each ``*_pass`` boots one server (untraced, or traced through
``launcher.py``), warms it, measures one window (or, with
``measure=False``, only set-up) and returns a :class:`Pass`.
``run.py`` turns passes into metrics.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any

import streams
from harness import (
    HttpSession,
    Reference,
    ServerProcess,
    TcpSession,
    matches,
    route_of,
)

HOST = "127.0.0.1"
ANALYTIC = ("summary", "explore", "guidance")
#: Start the window a beat after set-up so the first due instant is
#: never already late.
LEAD = 0.05


@dataclass
class Pass:
    """One measured window of one server."""

    setup_s: float
    start: float
    seconds: float
    records: list[dict[str, Any]]
    rss_mb: float
    scheduler: dict[str, Any]
    #: Datasets the window addressed; each should keep its own shard busy.
    datasets: int
    failures: list[str] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    spans: dict[str, Any] | None = None
    #: warm-explore's closed-loop burst after the window: its start
    #: instant and records (checked, but kept out of the latencies).
    burst_start: float = 0.0
    burst: list[dict[str, Any]] = field(default_factory=list)


class Workdir:
    """Fresh per-run directories (CSVs, data dirs, span dumps)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.count = 0

    def fresh(self, name: str) -> str:
        self.count += 1
        path = os.path.join(self.path, "%s-%d" % (name, self.count))
        os.makedirs(path)
        return path


def _boot(root: str, work: Workdir, args: list[str], traced: bool
          ) -> tuple[ServerProcess, int, str | None]:
    spans = (os.path.join(work.fresh("spans"), "spans.json")
             if traced else None)
    data_dir = work.fresh("data")
    server = ServerProcess(root, work.path,
                           ["--data-dir", data_dir, *args], spans)
    try:
        banner = server.wait_ready()
    except BaseException:
        server.kill()
        raise
    return server, banner["port"], spans


def _load_spans(server: ServerProcess, spans: str | None) -> dict | None:
    server.wait()
    if spans is None:
        return None
    with open(spans, encoding="utf-8") as handle:
        return json.load(handle)


def _expect_ok(response: dict[str, Any], what: str) -> None:
    if not isinstance(response, dict) or response.get("kind") == "error":
        raise RuntimeError("%s failed: %r" % (what, response))


# -- TCP workloads -------------------------------------------------------------


async def _tcp_sessions(port: int, count: int) -> list[TcpSession]:
    sessions = []
    for connection in range(count):
        sessions.append(await TcpSession.open(HOST, port, connection))
    return sessions


async def _tcp_finish(server: ServerProcess, sessions: list[TcpSession]
                      ) -> tuple[dict[str, Any], float]:
    stats = await sessions[0].call({"kind": "stats"})
    rss = server.peak_rss_mb()
    await sessions[0].call({"kind": "shutdown", "scope": "server"})
    for session in sessions:
        await session.close()
    return stats["server"]["scheduler"], rss


def _tcp_run(root: str, work: Workdir, csvs: list[str], traced: bool,
             connections: int, warm: list[list[dict[str, Any]]],
             drive) -> Pass:
    """Boot a TCP server over *csvs*, warm it, run *drive* if given.

    *drive* returns the measured :class:`Pass` fields by name."""
    server, port, spans = _boot(
        root, work, ["--tcp", "%s:0" % HOST, *csvs], traced
    )

    async def session() -> Pass | None:
        sessions = await _tcp_sessions(port, connections)
        for conn, requests in zip(sessions, warm):
            for request in requests:
                _expect_ok(await conn.call(request), "warm-up")
        setup_s = perf_counter() - server.started
        measured = await drive(sessions) if drive else {
            "start": 0.0, "seconds": 0.0, "records": [],
        }
        scheduler, rss = await _tcp_finish(server, sessions)
        return Pass(setup_s=setup_s, rss_mb=rss, scheduler=scheduler,
                    datasets=connections, **measured)

    try:
        result = asyncio.run(session())
    except BaseException:
        server.kill()
        raise
    result.spans = _load_spans(server, spans)
    return result


async def _closed_burst(sessions: list[TcpSession], conn_of: dict[str, int],
                        requests: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Send *requests* on their datasets' connections as a closed loop:
    each connection keeps :data:`streams.WARM_BURST_DEPTH` requests in
    flight and sends the next as the oldest is answered."""
    queues: list[list[dict[str, Any]]] = [[] for _ in sessions]
    for payload in requests:
        queues[conn_of[payload["dataset"]]].append(payload)
    records: list[dict[str, Any]] = []

    async def loop(session: TcpSession, payloads: list[dict[str, Any]]) -> None:
        inflight: collections.deque = collections.deque()
        for payload in payloads:
            if len(inflight) == streams.WARM_BURST_DEPTH:
                await inflight.popleft()["done"]
            record = session.send(payload, {"kind": payload["kind"]})
            records.append(record)
            inflight.append(record)
        for record in inflight:
            await record["done"]

    await asyncio.gather(*(loop(s, q) for s, q in zip(sessions, queues)))
    return records


def warm_inputs(work: Workdir, seed: int) -> list[str]:
    directory = work.fresh("csv")
    paths = []
    for index, dataset in enumerate(streams.WARM_DATASETS):
        rows, values = streams.dataset_rows(index, seed, streams.WARM_N)
        path = os.path.join(directory, dataset + ".csv")
        streams.write_csv(path, rows, values)
        paths.append(path)
    return paths


def warm_pass(root: str, work: Workdir, csvs: list[str], seed: int,
              seconds: float, traced: bool = False, measure: bool = True
              ) -> Pass:
    stream = streams.warm_stream(seed, seconds)
    conn_of = {dataset: index
               for index, dataset in enumerate(streams.WARM_DATASETS)}

    async def drive(sessions: list[TcpSession]):
        start = perf_counter() + LEAD
        records = []
        for due, payload in stream:
            instant = start + due
            while perf_counter() < instant:
                await asyncio.sleep(instant - perf_counter())
            record = {"kind": payload["kind"], "due": instant}
            sessions[conn_of[payload["dataset"]]].send(payload, record)
            records.append(record)
        await asyncio.wait([record["done"] for record in records])
        late = [record["sent"] - record["due"] for record in records]
        burst_start = perf_counter()
        burst = await _closed_burst(sessions, conn_of, streams.warm_burst(seed))
        return {"start": start, "seconds": seconds, "records": records,
                "late": late, "burst_start": burst_start, "burst": burst}

    return _tcp_run(
        root, work, csvs, traced, len(streams.WARM_DATASETS),
        [streams.warm_setup_requests(d) for d in streams.WARM_DATASETS],
        drive if measure else None,
    )


# -- append-mix (HTTP) ---------------------------------------------------------


def append_inputs(work: Workdir, seed: int) -> list[str]:
    path = os.path.join(work.fresh("csv"), streams.APPEND_DATASET + ".csv")
    rows, values = streams.dataset_rows(2, seed, streams.APPEND_N)
    streams.write_csv(path, rows, values)
    return [path]


def append_pass(root: str, work: Workdir, csvs: list[str], seed: int,
                seconds: float, traced: bool = False, measure: bool = True
                ) -> Pass:
    server, port, spans = _boot(root, work, [
        "--http", "%s:0" % HOST, "--fsync", "always",
        "--session-dir", work.fresh("sessions"), *csvs,
    ], traced)
    try:
        reader = HttpSession(HOST, port, "r")
        writer = HttpSession(HOST, port, "w")
        for request in streams.append_setup_requests():
            _expect_ok(reader.post(route_of(request), request)["response"],
                       "warm-up")
        setup_s = perf_counter() - server.started
        records: list[dict[str, Any]] = []
        failures: list[str] = []
        start = perf_counter() + LEAD
        if measure:
            batches = streams.append_batches(seed, seconds)

            def write() -> None:
                for due, payload in batches:
                    instant = start + due
                    while perf_counter() < instant:
                        sleep(instant - perf_counter())
                    # A closed session: an ack slower than the period
                    # delays the next append, which append_ack_* shows.
                    record = writer.post(route_of(payload), payload)
                    record["kind"] = "append_rows"
                    records.append(record)

            thread = threading.Thread(target=write, name="append-writer")
            thread.start()
            try:
                while perf_counter() < start:
                    sleep(start - perf_counter())
                for payload in streams.append_reader_stream(seed):
                    if perf_counter() - start >= seconds:
                        break
                    record = reader.post(route_of(payload), payload)
                    record["kind"] = payload["kind"]
                    records.append(record)
            finally:
                thread.join()
            failures = _check_appends(csvs[0], records, reader)
        stats = reader.post("/v2/admin/stats", {"kind": "stats"})["response"]
        rss = server.peak_rss_mb()
        reader.post("/v2/admin/shutdown", {"scope": "server"})
        reader.close()
        writer.close()
    except BaseException:
        server.kill()
        raise
    result = Pass(setup_s, start, seconds, records, rss,
                  stats["server"]["scheduler"], 1, failures)
    result.spans = _load_spans(server, spans)
    return result


def _check_appends(base_csv: str, records: list[dict[str, Any]],
                   reader: HttpSession) -> list[str]:
    """Acks add up, and the final summary and explore equal those of an
    engine built from scratch over base + acked rows.  A refused append
    is left to the failed-request count; its rows are not acked."""
    failures = []
    acked_rows: list[list[str]] = []
    acked_values: list[float] = []
    for record in records:
        if record["kind"] != "append_rows":
            continue
        ack = record.get("response")
        batch = record["payload"]
        if not isinstance(ack, dict) or ack.get("kind") != "rows_appended":
            continue
        if ack.get("appended") != len(batch["rows"]):
            failures.append("ack appended %r of %d rows"
                            % (ack.get("appended"), len(batch["rows"])))
        acked_rows.extend(batch["rows"])
        acked_values.extend(batch["values"])
        if ack.get("n") != streams.APPEND_N + len(acked_rows):
            failures.append("ack n=%r, expected %d"
                            % (ack.get("n"), streams.APPEND_N + len(acked_rows)))
    rebuilt = os.path.join(os.path.dirname(base_csv), "rebuilt")
    os.makedirs(rebuilt, exist_ok=True)
    path = os.path.join(rebuilt, streams.APPEND_DATASET + ".csv")
    with open(base_csv, encoding="utf-8") as source, \
            open(path, "w", encoding="utf-8") as target:
        target.write(source.read())
    with open(path, "a", newline="", encoding="utf-8") as target:
        import csv

        out = csv.writer(target)
        for row, value in zip(acked_rows, acked_values):
            out.writerow(list(row) + [repr(value)])
    reference = Reference([path])
    k_range, d_values = streams.APPEND_STORE
    for payload in (
        streams.summary(streams.APPEND_DATASET, 10, streams.APPEND_L, 1),
        streams.explore(streams.APPEND_DATASET, 5, streams.APPEND_L, 1,
                        k_range, d_values),
    ):
        final = reader.post(route_of(payload), payload)
        if not matches(reference, final):
            failures.append("final %s differs from a from-scratch engine"
                            % payload["kind"])
    return failures


PASSES = {
    "warm-explore": (warm_inputs, warm_pass),
    "append-mix": (append_inputs, append_pass),
}
