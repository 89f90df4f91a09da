"""Load-test harness for the HTTP front door: quotas as tenant isolation.

Boots the real :class:`repro.web.http.WebServer` in-process with auth and
a per-user quota, then replays a two-tenant trace with closed-loop HTTP
clients:

``solo``
    user B alone — the interactive analyst on an idle server; B's p95
    here is the baseline.
``contended``
    a fleet of user-A clients floods the *same dataset* (distinct
    requests, so single-flight cannot absorb them) while B replays the
    identical trace.  A's bucket drains almost immediately; from then on
    A's requests are answered with instant 429s instead of occupying the
    shared shard queue.

The tentpole claim is the isolation property, asserted in full mode:

* A demonstrably exceeds its quota (``a_429s > 0``);
* B never sees a 429 (B's trace fits its own bucket);
* B's contended p95 stays within :data:`P95_RATIO_CEILING` x its solo
  p95 — one tenant hammering refresh cannot starve another.

The harness also proves transport fidelity a third way: the golden wire
requests are driven through the stdio loop and through HTTP, and the
response payloads must be byte-identical (volatile timing fields zeroed)
— including the committed golden file itself.

Usage::

    PYTHONPATH=src python benchmarks/bench_http_load.py [--smoke]
        [--out PATH] [--attackers N] [--rounds N]

CI runs ``--smoke`` (small sizes, no floors): it boots the HTTP server,
drives both scenarios, checks parity and quota enforcement, and asserts
clean shutdown.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for tests.conftest (shared helpers)

from repro.datasets.loader import synthetic_answer_set  # noqa: E402
from repro.server import BackgroundServer  # noqa: E402
from repro.service import Engine, serve  # noqa: E402
from repro.web import (  # noqa: E402
    AuthService,
    QuotaService,
    WebServer,
)
from tests.conftest import paper_like_answers, zero_timings  # noqa: E402

#: Full-mode ceiling: user B's p95 under an A-side quota-throttled flood
#: may be at most this multiple of B's solo p95.
P95_RATIO_CEILING = 2.0

GOLDEN_RESPONSE = REPO_ROOT / "tests" / "golden" / "summary_response.json"

TOKEN_A = "bench-token-attacker"
TOKEN_B = "bench-token-analyst"


# -- traces -------------------------------------------------------------------


def make_engine(smoke: bool) -> Engine:
    n = 512 if smoke else 4096
    engine = Engine()
    engine.register_dataset(
        "shared", synthetic_answer_set(n, m=6, domain_size=10, seed=3)
    )
    return engine


def analyst_trace(smoke: bool) -> list[dict]:
    """User B's interactive loop: a handful of (k, D) corners."""
    L = 24 if smoke else 64
    return [
        {"schema_version": 2, "kind": "summary", "dataset": "shared",
         "k": k, "L": L, "D": D, "algorithm": "hybrid"}
        for k, D in ((4, 1), (6, 1), (8, 1), (4, 2), (6, 2), (8, 2))
    ]


def attacker_request(smoke: bool, sequence: int) -> dict:
    """User A's flood: every request distinct (k walks upward), same
    dataset as B — single-flight cannot coalesce it away and the shard
    cannot isolate it; only the quota stands between A and the queue."""
    L = 24 if smoke else 64
    return {
        "schema_version": 2, "kind": "summary", "dataset": "shared",
        "k": 10 + (sequence % 48), "L": L, "D": 1 + (sequence // 48) % 2,
        "algorithm": "hybrid",
    }


# -- HTTP client --------------------------------------------------------------


def http_post(base: str, path: str, body: dict, token: str) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    request.add_header("Authorization", "Bearer " + token)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


# -- scenarios ----------------------------------------------------------------


def run_scenario(
    label: str,
    smoke: bool,
    *,
    attackers: int,
    rounds: int,
    quota_capacity: int,
) -> dict:
    """One server + quota shape against the two-tenant client fleet."""
    engine = make_engine(smoke)
    auth = AuthService({TOKEN_A: "attacker", TOKEN_B: "analyst"})
    quota = QuotaService(quota_capacity, 3600.0)  # one window: no refill
    server = WebServer(
        engine, port=0, auth=auth, quota=quota,
        queue_depth=max(64, quota_capacity * 2),
    )
    handle = BackgroundServer(server).start()
    base = "http://%s:%d" % (handle.host, handle.port)
    trace = analyst_trace(smoke)

    stop_attack = threading.Event()
    counts = {"a_200": 0, "a_429": 0, "a_other": 0, "b_429": 0}
    b_latencies: list[float] = []
    b_errors: list[dict] = []
    lock = threading.Lock()

    def attack_loop(worker: int) -> None:
        sequence = worker * 1000
        while not stop_attack.is_set():
            status, payload = http_post(
                base, "/v2/summary", attacker_request(smoke, sequence),
                TOKEN_A,
            )
            sequence += 1
            with lock:
                if status == 200:
                    counts["a_200"] += 1
                elif status == 429:
                    counts["a_429"] += 1
                else:
                    counts["a_other"] += 1
            if status == 429:
                # The server sends Retry-After; any sane client library
                # backs off on 429.  A short fraction of the hint keeps
                # the flood aggressive (hundreds of rejected requests
                # per run) without degenerating into a raw TCP
                # connection flood — quota isolation, not SYN-flood
                # resistance, is the property under test.
                stop_attack.wait(0.02)

    attack_threads = [
        threading.Thread(target=attack_loop, args=(worker,), daemon=True)
        for worker in range(attackers)
    ]
    for thread in attack_threads:
        thread.start()
    if attackers:
        # Measure B at steady state: wait until A's bucket is provably
        # drained (quota 429s flowing) and A's initially-accepted burst
        # has left the shard queue — from then on the only pressure A
        # can exert is instant 429 traffic, which is the property under
        # test.  (A's accepted burst costs one bucket of computations on
        # any schedule; steady state is where the isolation claim lives.)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            with lock:
                throttled = counts["a_429"] > 0
            _, stats = http_post(base, "/v2/admin/stats", {}, TOKEN_B)
            inflight = stats["server"]["scheduler"]["inflight"]
            if throttled and inflight == 0:
                break
            time.sleep(0.05)
        else:
            raise SystemExit(
                "scenario %r: attacker never hit quota steady state"
                % label
            )

    for _ in range(rounds):
        for request in trace:
            start = time.perf_counter()
            status, payload = http_post(base, "/v2/summary", request,
                                        TOKEN_B)
            elapsed = time.perf_counter() - start
            b_latencies.append(elapsed)
            if status == 429:
                with lock:
                    counts["b_429"] += 1
            elif status != 200:
                b_errors.append(payload)

    stop_attack.set()
    for thread in attack_threads:
        thread.join(30)
    status, ack = http_post(
        base, "/v2/admin/shutdown", {"scope": "server"}, TOKEN_B
    )
    if ack.get("kind") != "shutdown_ack":
        raise SystemExit("server did not acknowledge shutdown: %r" % ack)
    if not handle.stop(timeout=30):
        raise SystemExit(
            "server %r failed to shut down cleanly within 30s" % label
        )
    if b_errors:
        raise SystemExit(
            "scenario %r: analyst saw %d non-quota errors; first: %r"
            % (label, len(b_errors), b_errors[0])
        )
    total_b = rounds * len(trace)
    if len(b_latencies) != total_b:
        raise SystemExit(
            "scenario %r lost analyst responses: %d of %d"
            % (label, len(b_latencies), total_b)
        )
    return {
        "label": label,
        "attackers": attackers,
        "rounds": rounds,
        "quota_capacity": quota_capacity,
        "analyst_requests": total_b,
        "analyst_latency": {
            "p50_seconds": _percentile(b_latencies, 0.50),
            "p95_seconds": _percentile(b_latencies, 0.95),
            "p99_seconds": _percentile(b_latencies, 0.99),
            "mean_seconds": sum(b_latencies) / len(b_latencies),
            "max_seconds": max(b_latencies),
        },
        "attacker_responses": {
            "granted_200": counts["a_200"],
            "quota_429": counts["a_429"],
            "other": counts["a_other"],
        },
        "analyst_429s": counts["b_429"],
    }


# -- transport parity ---------------------------------------------------------


def check_transport_parity() -> dict:
    """stdio and HTTP must serve byte-identical response payloads for the
    golden wire requests (timings zeroed) — including the committed
    golden file."""
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

    handle = BackgroundServer(WebServer(fresh_engine(), port=0)).start()
    base = "http://%s:%d" % (handle.host, handle.port)
    http_responses = []
    try:
        for request in requests:
            kind = request.get("kind")
            path = (
                "/v2/%s" % kind
                if kind in ("summary", "explore", "guidance")
                else "/v2/admin/%s" % kind
            )
            raw = urllib.request.Request(
                base + path, data=json.dumps(request).encode("utf-8"),
                method="POST",
            )
            try:
                with urllib.request.urlopen(raw, timeout=60) as response:
                    body = response.read()
            except urllib.error.HTTPError as error:
                body = error.read()
            if not body.endswith(b"\n"):
                raise SystemExit("HTTP body is not newline-terminated")
            http_responses.append(json.dumps(
                zero_timings(json.loads(body)), sort_keys=True
            ))
    finally:
        if not handle.stop(timeout=30):
            raise SystemExit("parity server failed to shut down cleanly")
    if stdio_responses != http_responses:
        for index, (lhs, rhs) in enumerate(
            zip(stdio_responses, http_responses)
        ):
            if lhs != rhs:
                raise SystemExit(
                    "transport divergence on request %d:\nstdio: %s\n"
                    "http:  %s" % (index, lhs, rhs)
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
        "--out", type=Path, default=REPO_ROOT / "BENCH_http.json",
        help="output JSON path (default: BENCH_http.json at repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes, few attackers, no floors (CI mode)",
    )
    parser.add_argument(
        "--attackers", type=int, default=None,
        help="closed-loop user-A clients (default: 8 full, 2 smoke)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="analyst trace repetitions (default: 4 full, 2 smoke)",
    )
    args = parser.parse_args(argv)
    attackers = args.attackers or (2 if args.smoke else 8)
    rounds = args.rounds or (2 if args.smoke else 4)
    trace_len = len(analyst_trace(args.smoke))
    # B's whole run plus a small A allowance fits one bucket; A's flood
    # is orders of magnitude past it.
    quota_capacity = rounds * trace_len + 8

    print("checking stdio/HTTP transport parity ...", flush=True)
    parity = check_transport_parity()

    print("running solo (analyst alone, %d rounds%s) ..."
          % (rounds, ", smoke" if args.smoke else ""), flush=True)
    solo = run_scenario(
        "solo", args.smoke, attackers=0, rounds=rounds,
        quota_capacity=quota_capacity,
    )
    print("running contended (%d attackers, %d rounds%s) ..."
          % (attackers, rounds, ", smoke" if args.smoke else ""),
          flush=True)
    contended = run_scenario(
        "contended", args.smoke, attackers=attackers, rounds=rounds,
        quota_capacity=quota_capacity,
    )
    for scenario in (solo, contended):
        print(
            "  %-9s p50 %6.1f ms  p95 %6.1f ms  p99 %6.1f ms  "
            "attacker 200/429: %d/%d"
            % (
                scenario["label"],
                scenario["analyst_latency"]["p50_seconds"] * 1e3,
                scenario["analyst_latency"]["p95_seconds"] * 1e3,
                scenario["analyst_latency"]["p99_seconds"] * 1e3,
                scenario["attacker_responses"]["granted_200"],
                scenario["attacker_responses"]["quota_429"],
            )
        )

    solo_p95 = solo["analyst_latency"]["p95_seconds"]
    contended_p95 = contended["analyst_latency"]["p95_seconds"]
    ratio = contended_p95 / solo_p95 if solo_p95 > 0 else float("inf")
    a_429s = contended["attacker_responses"]["quota_429"]
    print("  p95 ratio: %.2fx  (ceiling %.1fx, full mode); "
          "attacker 429s: %d; analyst 429s: %d"
          % (ratio, P95_RATIO_CEILING, a_429s, contended["analyst_429s"]))

    if contended["analyst_429s"] != 0:
        raise SystemExit(
            "quota isolation broken: analyst B saw %d 429s despite "
            "staying under capacity" % contended["analyst_429s"]
        )
    if a_429s <= 0:
        raise SystemExit(
            "quota enforcement never fired: attacker A saw no 429s"
        )
    if not args.smoke and ratio > P95_RATIO_CEILING:
        raise SystemExit(
            "tenant isolation regression: analyst p95 %.1f ms under "
            "contention vs %.1f ms solo (%.2fx > %.1fx ceiling)"
            % (contended_p95 * 1e3, solo_p95 * 1e3, ratio,
               P95_RATIO_CEILING)
        )

    document = {
        "schema": 1,
        "benchmark": "BENCH_http",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "trace": {
            "attackers": attackers,
            "rounds": rounds,
            "analyst_requests_per_round": trace_len,
            "quota_capacity": quota_capacity,
            "n_dataset": 512 if args.smoke else 4096,
            "dataset": "shared",
        },
        "transport_parity": parity,
        "scenarios": [solo, contended],
        "p95_ratio": ratio,
        "attacker_429s": a_429s,
        "analyst_429s": contended["analyst_429s"],
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
