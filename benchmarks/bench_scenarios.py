"""Scenario-matrix benchmark: declarative workloads against real servers.

Runs the committed scenario matrix (:mod:`repro.scenarios.matrix`) — six
declarative scenarios covering all three session shapes
(drill-down-heavy / revisit-heavy / cold-churn), all three transports
(stdio / TCP / HTTP), three dataset sources (synthetic / MovieLens /
TPC-DS), and a live append stream — and writes the scored reports into
``BENCH_scenarios.json``.

Each scenario compiles to a deterministic request trace, executes
concurrently against a real server, and is scored on:

- per-kind latency histograms (client-side, closed-loop),
- an error taxonomy (any error is a floor violation in every scenario),
- engine cache rates (pool/store hits, coalescing),
- a **differential check**: the concurrent run must match a
  single-threaded reference replay response-for-response (timings
  zeroed, cache-hit flags dropped), and
- for the append scenario, an in-process proof that incrementally
  maintained cluster pools are bit-identical to full rebuilds on both
  kernels.

Floors are correctness/cache-shaped, never latency-shaped, so the
committed JSON is hardware-independent; ``tests/test_docs.py``
re-evaluates every floor against the committed document.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py [--smoke]
        [--out PATH]

CI runs ``--smoke`` (two tiny scenarios, one of them the append
scenario); the committed ``BENCH_scenarios.json`` must come from a full
run (``smoke: false`` is asserted by the docs tests).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios.matrix import full_matrix, smoke_matrix  # noqa: E402
from repro.scenarios.report import summarize  # noqa: E402
from repro.scenarios.runner import run_scenario  # noqa: E402
from repro.scenarios.spec import SHAPES  # noqa: E402

#: Floors on the committed document (cross-checked by tests/test_docs.py).
#: The matrix must stay broad — shapes, datasets, transports, and the
#: append scenario are the point of the harness, not incidental.
SCENARIO_COUNT_FLOOR = 5
SHAPES_REQUIRED = frozenset(SHAPES)
DATASET_SOURCES_FLOOR = 2
APPEND_SCENARIO_REQUIRED = True


def run_matrix(smoke: bool) -> dict:
    specs = smoke_matrix() if smoke else full_matrix()
    reports = []
    for spec in specs:
        print(
            "scenario %-24s shape=%-16s transport=%-5s dataset=%s"
            % (spec.name, spec.shape, spec.transport, spec.dataset.source),
            file=sys.stderr,
        )
        started = time.perf_counter()
        report = run_scenario(spec)
        report["wall_seconds"] = time.perf_counter() - started
        reports.append(report)
        print(
            "  -> %d requests, %d errors, differential %s in %.1fs"
            % (
                report["requests"],
                report["errors"]["total"],
                "identical" if report["differential"]["identical"]
                else "DIVERGED",
                report["wall_seconds"],
            ),
            file=sys.stderr,
        )
    document = summarize(reports)
    document.update({
        "schema": 1,
        "benchmark": "BENCH_scenarios",
        "smoke": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "shapes": sorted({r["spec"]["shape"] for r in reports}),
        "transports": sorted({r["spec"]["transport"] for r in reports}),
        "dataset_sources": sorted(
            {r["spec"]["dataset"]["source"] for r in reports}
        ),
        "has_append_scenario": any(
            r["spec"].get("append") for r in reports
        ),
    })
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI-sized matrix (2 scenarios incl. append)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_scenarios.json",
        help="output path (default: BENCH_scenarios.json at the repo root)",
    )
    args = parser.parse_args(argv)

    document = run_matrix(args.smoke)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % args.out, file=sys.stderr)

    failures: list[str] = []
    for scenario in document["scenarios"]:
        for violation in scenario["floor_violations"]:
            failures.append("%s: %s" % (scenario["name"], violation))
    if not args.smoke:
        if document["scenario_count"] < SCENARIO_COUNT_FLOOR:
            failures.append(
                "matrix has %d scenarios, floor is %d"
                % (document["scenario_count"], SCENARIO_COUNT_FLOOR)
            )
        missing_shapes = SHAPES_REQUIRED - set(document["shapes"])
        if missing_shapes:
            failures.append("missing shapes: %s" % sorted(missing_shapes))
        if len(document["dataset_sources"]) < DATASET_SOURCES_FLOOR:
            failures.append(
                "only %d dataset sources, floor is %d"
                % (len(document["dataset_sources"]), DATASET_SOURCES_FLOOR)
            )
        if APPEND_SCENARIO_REQUIRED and not document["has_append_scenario"]:
            failures.append("matrix has no append scenario")
    if failures:
        for failure in failures:
            print("FLOOR VIOLATION: %s" % failure, file=sys.stderr)
        return 1
    print(
        "all floors hold (%d scenarios)" % document["scenario_count"],
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
