"""Load-test harness for the TCP serving tier: throughput, latency, coalesce.

Boots the real :class:`repro.server.tcp.TCPServer` in-process, replays a
recorded multi-user trace with N *closed-loop* clients (each waits for
its response before sending the next request — the interactive-analyst
model), and reports throughput, p50/p95/p99 latency, and the
single-flight coalesce hit rate into ``BENCH_server.json``.

Two scenarios frame the tentpole claim:

``baseline``
    1 shard x 1 worker, single-flight coalescing **off** — the naive
    concurrent server: every duplicate request pays a full computation.
``sharded+coalesce``
    the default server shape: per-dataset shards, bounded queues, and
    single-flight coalescing of identical in-flight requests.  The two
    datasets route to shards 2 and 3 of 4 (crc32 % 4, as perfbench's
    ``alpha`` and ``beta`` do), so this scenario runs two shards.

The trace is duplicate-heavy by construction (16 clients cycling the
same small set of distinct requests, roughly in phase), which is what
interactive multi-analyst traffic looks like; the kernels are CPU-bound
pure Python, so the speedup measures *coalescing* (one computation
fanned out to every concurrent duplicate), not parallel CPU.  In full
mode a ratio below :data:`THROUGHPUT_RATIO_FLOOR` or a zero coalesce
count is an error; in every mode, so is a run that served its datasets
on fewer shards than it has datasets (up to its shard count): the
scenario would not test the shape it names.

The harness also proves transport fidelity: the golden wire requests are
driven through the stdio loop and through TCP, and the responses must be
byte-identical (volatile timing fields zeroed, matching the golden-file
convention) — including the committed golden file itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_server_load.py [--smoke]
        [--out PATH] [--clients N] [--rounds N]

CI runs ``--smoke`` (small sizes, few clients, no floors): it boots the
TCP server, drives it with concurrent clients, checks transport parity,
and asserts the server shuts down cleanly.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for tests.conftest (shared helpers)

from repro.datasets.loader import synthetic_answer_set  # noqa: E402
from repro.server import BackgroundServer, LineClient, TCPServer  # noqa: E402
from repro.service import Engine, serve  # noqa: E402
from tests.conftest import paper_like_answers, zero_timings  # noqa: E402

#: Full-mode floors: the sharded+coalescing server must beat the
#: 1-worker/no-coalescing baseline by this factor on the duplicate-heavy
#: 16-client trace, and coalescing must demonstrably fire.
THROUGHPUT_RATIO_FLOOR = 4.0

GOLDEN_RESPONSE = REPO_ROOT / "tests" / "golden" / "summary_response.json"

#: The trace's two datasets.  Under the server's crc32 routing they land
#: on shards 2 and 3 of 4: distinct shards, so sharding is exercised.
DATASETS = ("alpha", "beta")


# -- trace --------------------------------------------------------------------


def make_engine(smoke: bool) -> Engine:
    n = 512 if smoke else 4096
    engine = Engine()
    for seed, dataset in enumerate(DATASETS, 1):
        engine.register_dataset(
            dataset, synthetic_answer_set(n, m=6, domain_size=10, seed=seed)
        )
    return engine


def make_trace(smoke: bool) -> list[dict]:
    """The distinct requests of the recorded multi-user session.

    Every client cycles this same sequence (closed-loop, so the fleet
    stays roughly in phase): the duplicate-heavy pattern of a dashboard
    full of analysts pressing the same handful of (k, D) corners.
    """
    L = 24 if smoke else 64
    first, second = DATASETS
    trace: list[dict] = []
    for k, D in ((8, 1), (12, 1), (16, 1), (8, 2), (12, 2), (16, 2)):
        trace.append({
            "schema_version": 2, "kind": "summary", "dataset": first,
            "k": k, "L": L, "D": D, "algorithm": "hybrid",
        })
    for k in (6, 10):
        trace.append({
            "schema_version": 2, "kind": "summary", "dataset": second,
            "k": k, "L": L, "D": 1, "algorithm": "hybrid",
        })
    for dataset in DATASETS:
        trace.append({
            "schema_version": 2, "kind": "explore", "dataset": dataset,
            "k": 6, "L": L, "D": 1, "k_range": [4, 12], "d_values": [1, 2],
        })
    return trace


# -- scenarios ----------------------------------------------------------------


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def run_scenario(
    label: str,
    smoke: bool,
    *,
    clients: int,
    rounds: int,
    shards: int,
    workers_per_shard: int,
    coalesce: bool,
) -> dict:
    """One server shape against the closed-loop client fleet."""
    engine = make_engine(smoke)  # fresh engine: every scenario starts cold
    trace = make_trace(smoke)
    server = TCPServer(
        engine, port=0,
        shards=shards, workers_per_shard=workers_per_shard,
        queue_depth=max(64, clients * len(trace)), coalesce=coalesce,
    )
    handle = BackgroundServer(server).start()
    latencies: list[float] = []
    errors: list[dict] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client_loop() -> None:
        with LineClient(handle.host, handle.port) as client:
            barrier.wait(timeout=60)
            local: list[float] = []
            for _ in range(rounds):
                for request in trace:
                    start = time.perf_counter()
                    response = client.request(request)
                    local.append(time.perf_counter() - start)
                    if response["kind"] == "error":
                        with lock:
                            errors.append(response)
            with lock:
                latencies.extend(local)

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join(600)
    wall_seconds = time.perf_counter() - wall_start
    with LineClient(handle.host, handle.port) as admin:
        stats = admin.request({"kind": "stats"})
        ack = admin.request({"kind": "shutdown", "scope": "server"})
    if ack.get("kind") != "shutdown_ack":
        raise SystemExit("server did not acknowledge shutdown: %r" % ack)
    if not handle.stop(timeout=30):
        raise SystemExit(
            "server %r failed to shut down cleanly within 30s" % label
        )
    if errors:
        raise SystemExit(
            "scenario %r produced %d error responses; first: %r"
            % (label, len(errors), errors[0])
        )
    total = clients * rounds * len(trace)
    if len(latencies) != total:
        raise SystemExit(
            "scenario %r lost responses: %d of %d"
            % (label, len(latencies), total)
        )
    flight = stats["server"]["scheduler"]["singleflight"]
    served = stats["server"]["scheduler"]["served_per_shard"]
    if sum(1 for count in served if count) < min(shards, len(DATASETS)):
        raise SystemExit(
            "scenario %r: datasets %r were served on too few shards "
            "(served_per_shard %r)" % (label, DATASETS, served)
        )
    return {
        "label": label,
        "clients": clients,
        "rounds": rounds,
        "distinct_requests": len(trace),
        "total_requests": total,
        "shards": shards,
        "workers_per_shard": workers_per_shard,
        "coalesce_enabled": coalesce,
        "wall_seconds": wall_seconds,
        "throughput_rps": total / wall_seconds,
        "latency": {
            "p50_seconds": _percentile(latencies, 0.50),
            "p95_seconds": _percentile(latencies, 0.95),
            "p99_seconds": _percentile(latencies, 0.99),
            "mean_seconds": sum(latencies) / len(latencies),
            "max_seconds": max(latencies),
        },
        "coalesce": {
            "leaders": flight["leaders"],
            "coalesced": flight["coalesced"],
            "hit_rate": flight["hit_rate"],
        },
        "overloaded": stats["server"]["scheduler"]["overloaded"],
        "served_per_shard": served,
    }


# -- transport parity ---------------------------------------------------------


def check_transport_parity() -> dict:
    """stdio and TCP must serve byte-identical responses for the golden
    wire requests (timings zeroed) — including the committed golden file."""
    requests = [
        {"kind": "ping"},
        {"schema_version": 2, "kind": "summary", "dataset": "paper",
         "k": 2, "L": 4, "D": 1, "algorithm": "bottom-up",
         "include_elements": True},
        {"schema_version": 2, "kind": "explore", "dataset": "paper",
         "k": 3, "L": 4, "D": 1, "k_range": [2, 4], "d_values": [1, 2]},
        {"schema_version": 2, "kind": "guidance", "dataset": "paper",
         "L": 4, "k_range": [2, 4], "d_values": [1]},
        {"kind": "datasets"},
        {"kind": "frobnicate"},
    ]
    lines = "".join(
        json.dumps(request, sort_keys=True) + "\n" for request in requests
    )

    def fresh_engine() -> Engine:
        engine = Engine()
        engine.register_dataset("paper", paper_like_answers())
        return engine

    stdio_out = io.StringIO()
    serve(io.StringIO(lines), stdio_out, engine=fresh_engine())
    stdio_responses = [
        json.dumps(zero_timings(json.loads(line)), sort_keys=True)
        for line in stdio_out.getvalue().splitlines()
    ]
    handle = BackgroundServer(TCPServer(fresh_engine(), port=0)).start()
    try:
        with LineClient(handle.host, handle.port) as client:
            client.send_raw(lines.encode("utf-8"))
            tcp_responses = [
                json.dumps(zero_timings(client.recv()), sort_keys=True)
                for _ in requests
            ]
    finally:
        if not handle.stop(timeout=30):
            raise SystemExit("parity server failed to shut down cleanly")
    if stdio_responses != tcp_responses:
        for index, (lhs, rhs) in enumerate(
            zip(stdio_responses, tcp_responses)
        ):
            if lhs != rhs:
                raise SystemExit(
                    "transport divergence on request %d:\nstdio: %s\n"
                    "tcp:   %s" % (index, lhs, rhs)
                )
        raise SystemExit("transport divergence: response count mismatch")
    golden = json.dumps(
        json.loads(GOLDEN_RESPONSE.read_text()), sort_keys=True
    )
    if stdio_responses[1] != golden:
        raise SystemExit(
            "golden wire file mismatch: transports drifted from "
            "tests/golden/summary_response.json"
        )
    return {
        "requests": len(requests),
        "identical": True,
        "golden_file_matched": True,
    }


# -- main ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_server.json",
        help="output JSON path (default: BENCH_server.json at repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes, few clients, no throughput floors (CI mode)",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="closed-loop clients (default: 16 full, 4 smoke)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="trace repetitions per client (default: 3 full, 2 smoke)",
    )
    args = parser.parse_args(argv)
    clients = args.clients or (4 if args.smoke else 16)
    rounds = args.rounds or (2 if args.smoke else 3)

    print("checking stdio/TCP transport parity ...", flush=True)
    parity = check_transport_parity()

    scenarios = []
    for label, shards, workers, coalesce in (
        ("baseline", 1, 1, False),
        ("sharded+coalesce", 4, 1, True),
    ):
        print(
            "running %s (%d clients x %d rounds%s) ..."
            % (label, clients, rounds, ", smoke" if args.smoke else ""),
            flush=True,
        )
        scenario = run_scenario(
            label, args.smoke,
            clients=clients, rounds=rounds,
            shards=shards, workers_per_shard=workers, coalesce=coalesce,
        )
        print(
            "  %8.1f req/s  p50 %6.1f ms  p95 %6.1f ms  p99 %6.1f ms  "
            "coalesced %d (%.0f%%)"
            % (
                scenario["throughput_rps"],
                scenario["latency"]["p50_seconds"] * 1e3,
                scenario["latency"]["p95_seconds"] * 1e3,
                scenario["latency"]["p99_seconds"] * 1e3,
                scenario["coalesce"]["coalesced"],
                scenario["coalesce"]["hit_rate"] * 100.0,
            )
        )
        scenarios.append(scenario)

    baseline, tuned = scenarios
    ratio = tuned["throughput_rps"] / baseline["throughput_rps"]
    coalesced = tuned["coalesce"]["coalesced"]
    print("  throughput ratio: %.1fx  (floor %.1fx, full mode)"
          % (ratio, THROUGHPUT_RATIO_FLOOR))
    if not args.smoke:
        if ratio < THROUGHPUT_RATIO_FLOOR:
            raise SystemExit(
                "server throughput regression: %.2fx < %.1fx floor "
                "(baseline %.1f rps, sharded+coalesce %.1f rps)"
                % (ratio, THROUGHPUT_RATIO_FLOOR,
                   baseline["throughput_rps"], tuned["throughput_rps"])
            )
        if coalesced <= 0:
            raise SystemExit(
                "single-flight coalescing never fired on the "
                "duplicate-heavy trace"
            )

    document = {
        "schema": 1,
        "benchmark": "BENCH_server",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "trace": {
            "clients": clients,
            "rounds": rounds,
            "distinct_requests": len(make_trace(args.smoke)),
            "n_per_dataset": 512 if args.smoke else 4096,
            "datasets": list(DATASETS),
        },
        "transport_parity": parity,
        "scenarios": scenarios,
        "throughput_ratio": ratio,
        "coalesce_hits": coalesced,
        "coalesce_hit_rate": tuned["coalesce"]["hit_rate"],
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
