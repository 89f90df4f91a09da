"""The server process, the wire clients and the in-process reference.

The server is the real ``repro-serve`` (``repro.cli.serve_main``) in a
child process, untraced or through ``launcher.py``; clients speak its
TCP JSON-lines and HTTP/JSON transports.  All clocks are
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, shared by every process
on the host), so client instants and server spans share one timeline.
"""

from __future__ import annotations

import asyncio
import collections
import http.client
import json
import os
import queue
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))

SERVE = ("import sys; from repro.cli import serve_main; "
         "sys.exit(serve_main(sys.argv[1:]))")


class ServerProcess:
    """One ``repro-serve`` child: start, wait for the ready banner, read
    its peak RSS, and make sure it is gone afterwards."""

    def __init__(self, root: str, workdir: str, args: list[str],
                 spans_path: str | None = None) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # Anything the server writes to a temp dir stays in the checkout.
        env["TMPDIR"] = workdir
        if spans_path is None:
            argv = [sys.executable, "-c", SERVE, *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                    spans_path, "--", *args]
        self.started = perf_counter()
        self._log = open(os.path.join(workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self, timeout: float = 120.0) -> dict[str, Any]:
        deadline = perf_counter() + timeout
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise RuntimeError("server sent no ready banner")
            line = self._lines.get(timeout=remaining)
            if line is None:
                raise RuntimeError(
                    "server exited with %s before ready" % self.proc.wait()
                )
            try:
                banner = json.loads(line)
            except ValueError:
                continue
            if isinstance(banner, dict) and banner.get("kind") == "ready":
                return banner

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid %d" % self.proc.pid)

    def wait(self, timeout: float = 60.0) -> int:
        """Wait for the exit a shutdown request started; kill on timeout."""
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not exit after shutdown")
        self._close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        self._reader.join(10)
        self.proc.stdout.close()
        self._log.close()


class TcpSession:
    """One pipelined JSON-lines connection (asyncio).

    Requests may be written back to back; responses come back in order,
    so each is matched to the oldest request still pending.  Every
    request is a record dict that gains ``sent``, ``recv`` and
    ``response``; ``rid`` is the server-side request id of the
    connection-order join (``t<connection>:<frame>``).
    """

    def __init__(self, connection: int) -> None:
        self.connection = connection
        self.seq = 0
        self.pending: collections.deque = collections.deque()
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.task: asyncio.Task | None = None

    @classmethod
    async def open(cls, host: str, port: int, connection: int) -> "TcpSession":
        session = cls(connection)
        session.reader, session.writer = await asyncio.open_connection(
            host, port, limit=1 << 24
        )
        session.task = asyncio.create_task(session._read())
        # Round-trip a ping before anything else opens a connection, so
        # the server's accept order is this client's open order.
        await session.call({"kind": "ping"})
        return session

    def send(self, payload: dict[str, Any], record: dict[str, Any] | None = None
             ) -> dict[str, Any]:
        record = {} if record is None else record
        record["rid"] = "t%d:%d" % (self.connection, self.seq)
        record["payload"] = payload
        record["done"] = asyncio.get_running_loop().create_future()
        self.seq += 1
        self.pending.append(record)
        record["sent"] = perf_counter()
        self.writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        return record

    async def call(self, payload: dict[str, Any]) -> dict[str, Any]:
        record = self.send(payload)
        await record["done"]
        return record["response"]

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            recv = perf_counter()
            record = self.pending.popleft()
            record["recv"] = recv
            record["response"] = json.loads(line)
            record["done"].set_result(None)
        while self.pending:
            self.pending.popleft()["done"].set_exception(
                ConnectionError("server closed the connection")
            )

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        await self.task


class HttpSession:
    """One keep-alive HTTP/1.1 connection; request ids ride in
    ``X-Request-Id`` (the server's own trace-id header)."""

    def __init__(self, host: str, port: int, prefix: str) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.prefix = prefix
        self.seq = 0

    def post(self, route: str, payload: dict[str, Any]) -> dict[str, Any]:
        body = json.dumps(payload).encode("utf-8")
        rid = "%s%d" % (self.prefix, self.seq)
        self.seq += 1
        sent = perf_counter()
        self.conn.request("POST", route, body=body, headers={
            "Content-Type": "application/json", "X-Request-Id": rid,
        })
        reply = self.conn.getresponse()
        data = reply.read()
        recv = perf_counter()
        return {"rid": rid, "payload": payload, "sent": sent, "recv": recv,
                "status": reply.status, "response": json.loads(data)}

    def close(self) -> None:
        self.conn.close()


def route_of(payload: dict[str, Any]) -> str:
    kind = payload["kind"]
    if kind in ("summary", "explore", "guidance"):
        return "/v2/" + kind
    return "/v2/admin/" + kind


class Reference:
    """Single-threaded in-process replay: ``Engine`` + ``Dispatcher`` over
    the same CSVs, answering each distinct request once."""

    def __init__(self, csv_paths: list[str]) -> None:
        from repro.query.csv_io import answer_set_from_relation, read_csv
        from repro.service.engine import Engine
        from repro.service.serve import Dispatcher

        # Cache size never changes an answer; callers replay requests
        # grouped by (dataset, L), so two pools and stores suffice.
        engine = Engine(max_pools=2, max_stores=2)
        for path in csv_paths:
            relation = read_csv(path)
            engine.register_dataset(relation.name,
                                    answer_set_from_relation(relation))
        self.dispatcher = Dispatcher(engine)
        self.cache: dict[str, Any] = {}

    def expected(self, payload: dict[str, Any]) -> Any:
        from repro.scenarios.runner import normalize_response

        key = json.dumps(payload, sort_keys=True)
        if key not in self.cache:
            response = self.dispatcher.dispatch_payload(json.loads(key)).response
            self.cache[key] = normalize_response(response)
        return self.cache[key]


def matches(reference: Reference, record: dict[str, Any]) -> bool:
    from repro.scenarios.runner import normalize_response

    response = record.get("response")
    if not isinstance(response, dict) or response.get("kind") == "error":
        return False
    return normalize_response(response) == reference.expected(record["payload"])
