"""Chaos benchmark: availability of the serving tier under injected faults.

Boots the real :class:`repro.server.tcp.TCPServer` in-process, arms the
deterministic fault injector in that process (worker crashes + compute
latency spikes, seeded; no wire request can arm faults), and drives the
server with a fleet of closed-loop
:class:`repro.server.client.RetryingClient` instances.  Every response
is classified:

``ok``
    a successful analytical response;
``typed``
    a correctly-typed wire error (``PoisonedRequest`` for the
    quarantined crasher, ``DeadlineExceeded``, ``Overloaded``, ...) —
    the server *answered*, with the contract's error shape;
``unavailable``
    anything else: an exception that survived the client's retry
    budget, a malformed response, or a hang.

Availability is ``(ok + typed) / total``; in full mode it must clear
:data:`AVAILABILITY_FLOOR`, no client thread may hang, and the worker
crashes must actually have exercised supervision
(``worker_restarts >= MIN_WORKER_RESTARTS``).  The fault plan makes the
drill deterministic where it matters: the crash rule is
``probability=1, times=2``, so the *first* request to reach a worker
dies twice — one retry, one quarantine — and every later request is
served by restarted workers; the latency rule fires probabilistically
from the seeded RNG.

With faults disarmed the tier must be byte-exact: the golden wire
requests are replayed through stdio and TCP (reusing the load bench's
parity check, golden file included) before and after the chaos run.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--smoke]
        [--out PATH] [--clients N] [--rounds N]

CI runs ``--smoke`` (small fleet, no floors): it still arms real
faults, restarts real workers, and fails on any hung client.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for tests.conftest (shared helpers)
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_server_load import check_transport_parity  # noqa: E402
from repro.common import faults  # noqa: E402
from repro.datasets.loader import synthetic_answer_set  # noqa: E402
from repro.server import (  # noqa: E402
    BackgroundServer,
    LineClient,
    RetryingClient,
    TCPServer,
)
from repro.service import Engine  # noqa: E402

#: Full-mode floors: the fraction of requests answered (success or a
#: correctly-typed wire error) under worker-crash + latency faults, the
#: hung-client budget, and proof that supervision actually fired.
AVAILABILITY_FLOOR = 0.99
MIN_WORKER_RESTARTS = 1

#: The armed fault plan (see the module docstring).  ``times`` bounds
#: the crash budget so the drill converges; the latency spikes ride on
#: the seeded RNG.
FAULT_SPEC = "scheduler.worker=crash:1:0:2;engine.compute=latency:0.2:15"
FAULT_SEED = 1337


def make_engine(smoke: bool) -> Engine:
    n = 256 if smoke else 2048
    engine = Engine()
    engine.register_dataset(
        "left", synthetic_answer_set(n, m=6, domain_size=10, seed=1)
    )
    engine.register_dataset(
        "right", synthetic_answer_set(n, m=6, domain_size=10, seed=2)
    )
    return engine


def make_trace(smoke: bool) -> list[dict]:
    """Distinct requests each closed-loop client cycles through.

    A third of them carry a generous ``deadline_ms`` so the deadline
    plumbing is exercised under load (the deadline itself should not
    fire — a tripped one still counts as a typed answer).
    """
    L = 16 if smoke else 48
    trace: list[dict] = []
    for index, (k, D) in enumerate(
        ((6, 1), (8, 1), (10, 1), (6, 2), (8, 2), (10, 2))
    ):
        request = {
            "schema_version": 2, "kind": "summary",
            "dataset": "left" if index % 2 else "right",
            "k": k, "L": L, "D": D, "algorithm": "hybrid",
        }
        if index % 3 == 0:
            request["deadline_ms"] = 30_000
        trace.append(request)
    return trace


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def run_chaos(smoke: bool, *, clients: int, rounds: int) -> dict:
    engine = make_engine(smoke)
    trace = make_trace(smoke)
    server = TCPServer(
        engine, port=0, shards=2,
        queue_depth=max(64, clients * len(trace)),
    )
    handle = BackgroundServer(server).start()
    outcomes: dict[str, int] = {"ok": 0, "typed": 0, "unavailable": 0}
    typed_breakdown: dict[str, int] = {}
    failures: list[str] = []
    latencies: list[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def classify(response: dict) -> str:
        if not isinstance(response, dict):
            return "unavailable"
        if response.get("kind") != "error":
            return "ok"
        error_type = response.get("error_type")
        if isinstance(error_type, str) and error_type:
            with lock:
                typed_breakdown[error_type] = (
                    typed_breakdown.get(error_type, 0) + 1
                )
            return "typed"
        return "unavailable"

    def client_loop(worker_id: int) -> None:
        client = RetryingClient(
            handle.host, handle.port, timeout=30,
            attempts=4, base_delay=0.02, max_delay=0.5,
            rng=random.Random(worker_id),
        )
        with client:
            barrier.wait(timeout=60)
            local: list[tuple[str, float]] = []
            for round_index in range(rounds):
                for request in trace:
                    start = time.perf_counter()
                    try:
                        response = client.request(dict(request))
                        outcome = classify(response)
                    except Exception as error:
                        outcome = "unavailable"
                        with lock:
                            failures.append(
                                "client %d round %d: %r"
                                % (worker_id, round_index, error)
                            )
                    local.append((outcome, time.perf_counter() - start))
            with lock:
                for outcome, seconds in local:
                    outcomes[outcome] += 1
                    if outcome == "ok":
                        latencies.append(seconds)

    # Arm the fault plan in process: the server runs in this process,
    # and no wire request can arm faults.
    armed = faults.arm_from_spec(FAULT_SPEC, seed=FAULT_SEED)
    if len(armed) != 2:
        raise SystemExit("failed to arm fault plan: %r" % armed)

    threads = [
        threading.Thread(target=client_loop, args=(i,))
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join(300)
    wall_seconds = time.perf_counter() - wall_start
    hung = sum(1 for thread in threads if thread.is_alive())

    faults.clear()
    with LineClient(handle.host, handle.port) as admin:
        stats = admin.request({"kind": "stats"})
        ack = admin.request({"kind": "shutdown", "scope": "server"})
    if ack.get("kind") != "shutdown_ack":
        raise SystemExit("server did not acknowledge shutdown: %r" % ack)
    if not handle.stop(timeout=30):
        raise SystemExit("chaos server failed to shut down cleanly")

    total = clients * rounds * len(trace)
    answered = outcomes["ok"] + outcomes["typed"]
    availability = answered / total if total else 0.0
    scheduler = stats["server"]["scheduler"]
    return {
        "clients": clients,
        "rounds": rounds,
        "distinct_requests": len(trace),
        "total_requests": total,
        "wall_seconds": wall_seconds,
        "fault_spec": FAULT_SPEC,
        "fault_seed": FAULT_SEED,
        "outcomes": dict(outcomes),
        "typed_errors": dict(sorted(typed_breakdown.items())),
        "availability": availability,
        "hung_clients": hung,
        "failures": failures[:10],
        "ok_latency": {
            "p50_seconds": _percentile(latencies, 0.50),
            "p95_seconds": _percentile(latencies, 0.95),
            "p99_seconds": _percentile(latencies, 0.99),
        },
        "scheduler": {
            "worker_restarts": scheduler["worker_restarts"],
            "workers_leaked": scheduler["workers_leaked"],
            "crash_retries": scheduler["crash_retries"],
            "poisoned": scheduler["poisoned"],
            "quarantined": scheduler["quarantined"],
            "deadline_shed": scheduler["deadline_shed"],
            "deadline_exceeded": scheduler["deadline_exceeded"],
            "overloaded": scheduler["overloaded"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_chaos.json",
        help="output JSON path (default: BENCH_chaos.json at repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fleet, no availability floors (CI mode)",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="closed-loop clients (default: 12 full, 4 smoke)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="trace repetitions per client (default: 4 full, 2 smoke)",
    )
    args = parser.parse_args(argv)
    clients = args.clients or (4 if args.smoke else 12)
    rounds = args.rounds or (2 if args.smoke else 4)

    print("checking faults-disarmed transport parity ...", flush=True)
    parity_before = check_transport_parity()

    print(
        "running chaos drill (%d clients x %d rounds%s) ..."
        % (clients, rounds, ", smoke" if args.smoke else ""), flush=True,
    )
    drill = run_chaos(args.smoke, clients=clients, rounds=rounds)
    print(
        "  availability %.4f  (ok %d, typed %d, unavailable %d)  "
        "hung %d  restarts %d"
        % (
            drill["availability"], drill["outcomes"]["ok"],
            drill["outcomes"]["typed"], drill["outcomes"]["unavailable"],
            drill["hung_clients"], drill["scheduler"]["worker_restarts"],
        )
    )

    # Faults are process-global state: prove the drill disarmed cleanly
    # and responses are byte-exact again.
    print("re-checking transport parity after the drill ...", flush=True)
    parity_after = check_transport_parity()

    if drill["hung_clients"]:
        raise SystemExit(
            "%d client thread(s) hung under chaos" % drill["hung_clients"]
        )
    if not args.smoke:
        if drill["availability"] < AVAILABILITY_FLOOR:
            raise SystemExit(
                "availability regression: %.4f < %.2f floor (%r)"
                % (drill["availability"], AVAILABILITY_FLOOR,
                   drill["outcomes"])
            )
        if drill["scheduler"]["worker_restarts"] < MIN_WORKER_RESTARTS:
            raise SystemExit(
                "worker supervision never fired: %d restart(s) < %d"
                % (drill["scheduler"]["worker_restarts"],
                   MIN_WORKER_RESTARTS)
            )

    document = {
        "schema": 1,
        "benchmark": "BENCH_chaos",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "availability_floor": AVAILABILITY_FLOOR,
        "min_worker_restarts": MIN_WORKER_RESTARTS,
        "transport_parity": {
            "before": parity_before, "after": parity_after,
        },
        "chaos": drill,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
