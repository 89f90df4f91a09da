"""Recovery benchmark: SIGKILL a durable server mid-append, then verify.

The drill boots ``repro-serve`` as a *subprocess* with ``--data-dir``
(write-ahead logging on, ``--fsync always``), streams append batches at
it over TCP, and SIGKILLs the process mid-stream — no drain, no flush,
the kernel reclaims the socket and whatever the process had buffered.
The server is then restarted on the same port and data directory and
three things are proven:

durability
    every append the client saw acked is present after recovery
    (``recovered_batches >= acked_batches`` — the WAL is written and
    fsynced *before* the ack leaves the server, so an ack is a durable
    promise; records past the last ack may also survive);
bit-identity
    the recovered dataset answers summary queries **byte-identically**
    (timings zeroed) to an uninterrupted in-process reference engine
    holding the same base rows plus the recovered batches — on both
    kernels (``bitset``, ``dense``), because recovery
    replays through the engine's own register/append path;
availability
    a concurrent :class:`repro.server.client.RetryingClient` prober
    rides through the kill + restart window on its retry budget; in
    full mode its availability must clear :data:`AVAILABILITY_FLOOR`.

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py [--smoke]
        [--out PATH]

CI runs ``--smoke`` (smaller stream, no availability floor — CI workers
can stall longer than any reasonable retry budget): it still SIGKILLs a
real process, still recovers from a real torn WAL tail if the kill tore
one, and still requires durability and bit-identity to hold exactly.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_server_load import check_transport_parity  # noqa: E402
from repro.core.bitset import KERNELS  # noqa: E402
from repro.query.csv_io import answer_set_from_relation, read_csv  # noqa: E402
from repro.scenarios.runner import normalize_response  # noqa: E402
from repro.server import LineClient, RetryingClient  # noqa: E402
from repro.service import Engine  # noqa: E402
from repro.service.serve import Dispatcher  # noqa: E402

#: Full-mode floor: fraction of prober requests answered (ok or a typed
#: wire error) across the kill + restart window.  The prober's retry
#: budget (~20 s of jittered backoff) is what carries it over the
#: outage; a restart slower than that counts against availability.
AVAILABILITY_FLOOR = 0.99

#: Rows per append batch and the deterministic data seed.  Batches are
#: small so the kill lands *between* WAL records often enough to matter,
#: and the total stays below the manager's compaction threshold so the
#: recovered record count equals the full append history.
ROWS_PER_BATCH = 3
DATA_SEED = 20180837

DATASET = "drill"
ATTRIBUTES = ("region", "tier", "channel")
DOMAINS = (
    tuple("r%02d" % i for i in range(16)),
    tuple("t%d" % i for i in range(8)),
    tuple("c%d" % i for i in range(6)),
)

#: Summary requests used for the bit-identity check: every kernel, two
#: (k, L, D) shapes, second display layer included so element-level
#: ordering (the codec-domain tie-break) is compared too.
IDENTITY_KERNELS = KERNELS
IDENTITY_SHAPES = ((5, 8, 1), (7, 10, 2))


def _row_stream() -> list[tuple[list[str], float]]:
    """Every attribute combination once, deterministically shuffled.

    Group-by output tuples must be distinct (:class:`AnswerSet` rejects
    duplicates, and ``append_rows`` rejects rows that already exist), so
    the base relation and every append batch draw *disjoint* slices of
    this permutation.
    """
    rng = random.Random(DATA_SEED)
    combos = [
        [a, b, c]
        for a in DOMAINS[0] for b in DOMAINS[1] for c in DOMAINS[2]
    ]
    rng.shuffle(combos)
    return [
        (row, round(rng.uniform(0.5, 99.5), 3)) for row in combos
    ]


def make_base_csv(path: Path, n: int) -> None:
    """Deterministic base relation: header + the first *n* rows."""
    lines = [",".join(ATTRIBUTES + ("value",))]
    for row, value in _row_stream()[:n]:
        lines.append(",".join(row + ["%.3f" % value]))
    path.write_text("\n".join(lines) + "\n")


def make_batches(
    skip: int, count: int
) -> list[tuple[list[list[str]], list[float]]]:
    """The append stream: *count* batches of :data:`ROWS_PER_BATCH`,
    starting after the first *skip* rows (the base relation)."""
    stream = _row_stream()[skip:skip + count * ROWS_PER_BATCH]
    if len(stream) < count * ROWS_PER_BATCH:
        raise SystemExit("attribute cross-product too small for the drill")
    batches = []
    for index in range(count):
        chunk = stream[index * ROWS_PER_BATCH:(index + 1) * ROWS_PER_BATCH]
        batches.append(
            ([row for row, _ in chunk], [value for _, value in chunk])
        )
    return batches


def pick_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``repro-serve --tcp --data-dir`` subprocess."""

    def __init__(
        self, port: int, data_dir: Path, csv_path: Path, log_path: Path
    ) -> None:
        self.port = port
        self._log = log_path.open("ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import serve_main; "
                "raise SystemExit(serve_main())",
                "--tcp", "127.0.0.1:%d" % port,
                "--data-dir", str(data_dir),
                "--fsync", "always",
                str(csv_path),
            ],
            cwd=str(REPO_ROOT),
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self, deadline_seconds: float = 60.0) -> float:
        """Poll ping until the server answers; returns seconds waited."""
        start = time.perf_counter()
        while time.perf_counter() - start < deadline_seconds:
            if self.process.poll() is not None:
                raise SystemExit(
                    "server exited with %r before becoming ready"
                    % self.process.returncode
                )
            try:
                with LineClient("127.0.0.1", self.port, timeout=5) as probe:
                    if probe.request({"kind": "ping"})["kind"] == "pong":
                        return time.perf_counter() - start
            except OSError:
                time.sleep(0.05)
        raise SystemExit(
            "server not ready after %.0f s" % deadline_seconds
        )

    def kill(self) -> None:
        self.process.kill()  # SIGKILL: no drain, no flush, no goodbyes
        self.process.wait(timeout=30)

    def shutdown(self) -> None:
        try:
            with LineClient("127.0.0.1", self.port, timeout=10) as admin:
                admin.request({"kind": "shutdown", "scope": "server"})
        except OSError:
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            self._log.close()


def append_request(rows: list[list[str]], values: list[float]) -> dict:
    return {
        "schema_version": 2, "kind": "append_rows", "dataset": DATASET,
        "rows": rows, "values": values,
    }


def probe_request() -> dict:
    return {
        "schema_version": 2, "kind": "summary", "dataset": DATASET,
        "k": 4, "L": 6, "D": 1, "algorithm": "hybrid",
    }


def identity_trace() -> list[dict]:
    trace = []
    for kernel in IDENTITY_KERNELS:
        for k, L, D in IDENTITY_SHAPES:
            trace.append({
                "schema_version": 2, "kind": "summary",
                "dataset": DATASET, "k": k, "L": L, "D": D,
                "algorithm": "hybrid", "include_elements": True,
                "options": {"kernel": kernel},
            })
    return trace


def run_drill(smoke: bool, workdir: Path) -> dict:
    base_rows = 120 if smoke else 360
    batch_count = 12 if smoke else 60
    kill_after = 5 if smoke else 24

    csv_path = workdir / ("%s.csv" % DATASET)
    data_dir = workdir / "data"
    log_path = workdir / "server.log"
    make_base_csv(csv_path, base_rows)
    batches = make_batches(base_rows, batch_count + 1)
    extra_rows, extra_values = batches.pop()
    port = pick_port()

    # --- phase 1: boot, start the prober, stream appends, SIGKILL -----
    server = ServerProcess(port, data_dir, csv_path, log_path)
    first_ready_seconds = server.wait_ready()

    acked = 0
    acked_lock = threading.Lock()
    append_errors: list[str] = []
    kill_gate = threading.Event()   # set once `kill_after` acks are in
    stop_probing = threading.Event()
    probe_outcomes = {"ok": 0, "typed": 0, "unavailable": 0}
    probe_failures: list[str] = []

    def appender() -> None:
        nonlocal acked
        try:
            with LineClient("127.0.0.1", port, timeout=30) as client:
                for rows, values in batches:
                    response = client.request(append_request(rows, values))
                    if response.get("kind") != "rows_appended":
                        append_errors.append(repr(response))
                        return
                    with acked_lock:
                        acked += 1
                        if acked >= kill_after:
                            kill_gate.set()
                    time.sleep(0.002)
        except Exception as error:
            # Expected: the SIGKILL lands mid-stream and the connection
            # dies under us.  Everything acked so far must survive.
            append_errors.append(repr(error))
        finally:
            kill_gate.set()

    def prober() -> None:
        client = RetryingClient(
            "127.0.0.1", port, timeout=10,
            attempts=16, base_delay=0.05, max_delay=1.5,
            rng=random.Random(7),
        )
        with client:
            while not stop_probing.is_set():
                try:
                    response = client.request(probe_request())
                except Exception as error:
                    probe_outcomes["unavailable"] += 1
                    probe_failures.append(repr(error))
                else:
                    if response.get("kind") == "error":
                        probe_outcomes["typed"] += 1
                    else:
                        probe_outcomes["ok"] += 1
                time.sleep(0.02)
        return_counters["retries"] = client.retries
        return_counters["reconnects"] = client.reconnects

    return_counters: dict[str, int] = {}
    probe_thread = threading.Thread(target=prober)
    append_thread = threading.Thread(target=appender)
    probe_thread.start()
    append_thread.start()

    if not kill_gate.wait(timeout=120):
        raise SystemExit("append stream never reached the kill point")
    outage_start = time.perf_counter()
    server.kill()
    append_thread.join(timeout=60)
    with acked_lock:
        acked_batches = acked
    if acked_batches < kill_after:
        raise SystemExit(
            "append stream died after only %d acks (wanted >= %d): %r"
            % (acked_batches, kill_after, append_errors)
        )

    # --- phase 2: restart on the same port + data dir, recover --------
    server = ServerProcess(port, data_dir, csv_path, log_path)
    restart_ready_seconds = server.wait_ready()
    outage_seconds = time.perf_counter() - outage_start

    # Let the prober take a few post-recovery samples, then stop it.
    time.sleep(0.5)
    stop_probing.set()
    probe_thread.join(timeout=60)
    prober_hung = probe_thread.is_alive()

    with LineClient("127.0.0.1", port, timeout=30) as client:
        stats = client.request({"kind": "stats"})
    durability = stats.get("durability", {})
    recovered_batches = durability.get("recovered_records", 0)
    wal_records = durability.get("wal_records", 0)

    # --- phase 3: bit-identity against an uninterrupted reference -----
    reference = Engine()
    reference.register_dataset(
        DATASET, answer_set_from_relation(read_csv(csv_path))
    )
    for rows, values in batches[:recovered_batches]:
        reference.append_rows(
            DATASET, [tuple(row) for row in rows], values
        )
    dispatcher = Dispatcher(reference)

    mismatches: list[dict] = []
    with LineClient("127.0.0.1", port, timeout=60) as client:
        for request in identity_trace():
            recovered = normalize_response(
                client.request(dict(request))
            )
            expected = normalize_response(json.loads(json.dumps(
                dispatcher.dispatch_payload(dict(request)).response,
                sort_keys=True,
            )))
            if recovered != expected:
                mismatches.append({
                    "kernel": request["options"]["kernel"],
                    "k": request["k"], "L": request["L"],
                    "D": request["D"],
                })

    # The recovered server must still be writable (WAL re-opened at the
    # recovered tail, not sealed or wedged).
    with LineClient("127.0.0.1", port, timeout=30) as client:
        post = client.request(append_request(extra_rows, extra_values))
    post_recovery_append_ok = post.get("kind") == "rows_appended"

    server.shutdown()

    total_probes = sum(probe_outcomes.values())
    answered = probe_outcomes["ok"] + probe_outcomes["typed"]
    availability = answered / total_probes if total_probes else 0.0
    return {
        "base_rows": base_rows,
        "batch_count": batch_count,
        "rows_per_batch": ROWS_PER_BATCH,
        "kill_after_acks": kill_after,
        "acked_batches": acked_batches,
        "recovered_batches": recovered_batches,
        "wal_records_after_recovery": wal_records,
        "wal_truncated": durability.get("wal_truncated", 0),
        "recovery_seconds": durability.get("recovery_seconds", 0.0),
        "first_ready_seconds": first_ready_seconds,
        "restart_ready_seconds": restart_ready_seconds,
        "outage_seconds": outage_seconds,
        "identity_requests": len(identity_trace()),
        "identity_mismatches": mismatches,
        "post_recovery_append_ok": post_recovery_append_ok,
        "prober": {
            "total": total_probes,
            "outcomes": dict(probe_outcomes),
            "availability": availability,
            "retries": return_counters.get("retries", 0),
            "reconnects": return_counters.get("reconnects", 0),
            "hung": prober_hung,
            "failures": probe_failures[:5],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_recovery.json",
        help="output JSON path (default: BENCH_recovery.json at repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream, no availability floor (CI mode)",
    )
    args = parser.parse_args(argv)

    print("checking durability-off transport parity ...", flush=True)
    parity = check_transport_parity()

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_recovery_") as tmp:
        print(
            "running kill drill (%s) ..."
            % ("smoke" if args.smoke else "full"), flush=True,
        )
        drill = run_drill(args.smoke, Path(tmp))
    print(
        "  acked %d  recovered %d  availability %.4f  outage %.2fs  "
        "identity mismatches %d"
        % (
            drill["acked_batches"], drill["recovered_batches"],
            drill["prober"]["availability"], drill["outage_seconds"],
            len(drill["identity_mismatches"]),
        )
    )

    # Hard invariants, enforced in both modes: durability of every ack
    # and bit-identical recovered answers.
    if drill["recovered_batches"] < drill["acked_batches"]:
        raise SystemExit(
            "durability violation: %d batches acked but only %d recovered"
            % (drill["acked_batches"], drill["recovered_batches"])
        )
    if drill["identity_mismatches"]:
        raise SystemExit(
            "recovered answers diverged from the uninterrupted "
            "reference: %r" % drill["identity_mismatches"]
        )
    if not drill["post_recovery_append_ok"]:
        raise SystemExit("recovered server rejected a fresh append")
    if drill["prober"]["hung"]:
        raise SystemExit("prober thread hung across the restart")
    if not args.smoke:
        if drill["prober"]["availability"] < AVAILABILITY_FLOOR:
            raise SystemExit(
                "availability regression: %.4f < %.2f floor (%r)"
                % (drill["prober"]["availability"], AVAILABILITY_FLOOR,
                   drill["prober"]["outcomes"])
            )

    document = {
        "schema": 1,
        "benchmark": "BENCH_recovery",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "availability_floor": AVAILABILITY_FLOOR,
        "identity_kernels": list(IDENTITY_KERNELS),
        "transport_parity": parity,
        "drill": drill,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
