"""Floor evaluation: turn a scored scenario report into pass/fail.

Floors are machine-independent by design — they gate correctness and
cache behavior (differential identity, error rates, hit rates, append
bit-identity), never absolute latency, so the committed
``BENCH_scenarios.json`` stays meaningful on any hardware.

Recognized floor keys (all optional; unknown keys are an error so typos
fail loudly):

``differential_identical: true``
    The concurrent run must match the single-threaded reference replay
    on every response (after normalization).
``append_identical: true``
    The in-process append check must report bit-identical pools on
    every kernel.
``max_error_rate: float``
    ``errors.total / requests`` must not exceed this.
``min_store_hit_rate`` / ``max_store_hit_rate: float``
    Bounds on the engine's precomputed-store cache hit rate — revisit
    shapes must *hit*, cold-churn shapes must *miss*.
``min_pool_hit_rate: float``
    Lower bound on the cluster-pool cache hit rate.
``min_requests: int``
    Sanity floor on workload volume (guards against silently tiny runs).
``max_p95_overhead: float``
    Ceiling on every kind's p95 *overhead fraction* — the share of a
    traced request's wall time spent anywhere but compute (queue wait,
    dispatch, transport).  A fraction, not a latency, so it stays
    hardware-independent; see ``spans`` in the report (built by
    :func:`repro.scenarios.runner.span_rollup`).
"""

from __future__ import annotations

from typing import Any

_KNOWN_FLOORS = frozenset({
    "differential_identical",
    "append_identical",
    "max_error_rate",
    "min_store_hit_rate",
    "max_store_hit_rate",
    "min_pool_hit_rate",
    "min_requests",
    "max_p95_overhead",
})


def evaluate_floors(report: dict[str, Any]) -> list[str]:
    """Check *report* against the floors embedded in its spec.

    Returns a list of human-readable violations — empty means the
    scenario passed every floor it declared.
    """
    floors: dict[str, Any] = report.get("spec", {}).get("floors", {})
    unknown = set(floors) - _KNOWN_FLOORS
    if unknown:
        raise ValueError("unknown floor keys: %s" % sorted(unknown))
    violations: list[str] = []

    def _rate(section: str) -> float:
        return float(report["cache"].get(section, {}).get("hit_rate", 0.0))

    if floors.get("differential_identical"):
        if not report["differential"]["identical"]:
            violations.append(
                "differential: %d mismatches, %d missing of %d compared"
                % (
                    report["differential"]["mismatches"],
                    report["differential"]["missing"],
                    report["differential"]["compared"],
                )
            )
    if floors.get("append_identical"):
        check = report.get("append_check")
        if not check or not check["identical"]:
            violations.append(
                "append check not bit-identical: %r"
                % (check and check["kernels"],)
            )
    if "max_error_rate" in floors:
        rate = report["errors"]["rate"]
        if rate > floors["max_error_rate"]:
            violations.append(
                "error rate %.4f exceeds floor %.4f (by_type=%r)"
                % (rate, floors["max_error_rate"],
                   report["errors"]["by_type"])
            )
    if "min_store_hit_rate" in floors:
        if _rate("stores") < floors["min_store_hit_rate"]:
            violations.append(
                "store hit rate %.4f below floor %.4f"
                % (_rate("stores"), floors["min_store_hit_rate"])
            )
    if "max_store_hit_rate" in floors:
        if _rate("stores") > floors["max_store_hit_rate"]:
            violations.append(
                "store hit rate %.4f above ceiling %.4f"
                % (_rate("stores"), floors["max_store_hit_rate"])
            )
    if "min_pool_hit_rate" in floors:
        if _rate("pools") < floors["min_pool_hit_rate"]:
            violations.append(
                "pool hit rate %.4f below floor %.4f"
                % (_rate("pools"), floors["min_pool_hit_rate"])
            )
    if "min_requests" in floors:
        if report["requests"] < floors["min_requests"]:
            violations.append(
                "only %d requests, floor is %d"
                % (report["requests"], floors["min_requests"])
            )
    if "max_p95_overhead" in floors:
        for kind, bucket in sorted(report.get("spans", {}).items()):
            overhead = float(bucket.get("overhead_p95", 0.0))
            if overhead > floors["max_p95_overhead"]:
                violations.append(
                    "kind %r p95 overhead fraction %.4f exceeds "
                    "ceiling %.4f" % (
                        kind, overhead, floors["max_p95_overhead"]
                    )
                )
    return violations


def summarize(reports: list[dict[str, Any]]) -> dict[str, Any]:
    """Roll scenario reports into the committed benchmark document."""
    scenarios = []
    all_ok = True
    for report in reports:
        violations = evaluate_floors(report)
        all_ok = all_ok and not violations
        scenarios.append({**report, "floor_violations": violations})
    return {
        "scenarios": scenarios,
        "scenario_count": len(scenarios),
        "all_floors_hold": all_ok,
    }
