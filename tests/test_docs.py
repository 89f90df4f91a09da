"""The docs job: doctests in docs/, intra-repo links, README bench claims.

Three contracts, all CI-enforced:

1. every ``>>>`` example embedded in ``docs/*.md`` runs green under
   ``doctest`` (the examples are the documentation's executable spec);
2. every relative link in ``docs/*.md``, ``README.md``, and
   ``ROADMAP.md`` points at a file that exists — broken intra-repo links
   fail the build;
3. the README's Performance section cites the committed
   ``BENCH_core.json`` numbers verbatim, so prose and measurements
   cannot drift apart silently.
"""

from __future__ import annotations

import doctest
import json
import re
from pathlib import Path

import pytest

from repro.core.bitset import KERNELS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
LINKED_FILES = DOCS + [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md"]

#: Markdown inline links: [text](target), ignoring images and code spans.
_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_docs_doctests_pass(path):
    results = doctest.testfile(
        str(path), module_relative=False, verbose=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.failed == 0, "%d doctest failures in %s" % (
        results.failed, path.name
    )
    assert results.attempted > 0, (
        "%s is expected to embed runnable examples" % path.name
    )


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    text = path.read_text()
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, "broken intra-repo link(s) in %s: %s" % (
        path.name, broken
    )


def _bench_document() -> dict:
    return json.loads((REPO_ROOT / "BENCH_core.json").read_text())


def test_bench_core_is_a_full_run():
    document = _bench_document()
    assert document["smoke"] is False, (
        "BENCH_core.json must be regenerated with a full (non --smoke) run"
    )
    names = {workload["name"] for workload in document["workloads"]}
    assert "rounds_vs_groups" in names
    assert "fig8_kernel_core" in names
    assert "dense_scaling" in names


def test_readme_cites_bench_numbers_verbatim():
    """The README Performance table quotes BENCH_core.json, not folklore."""
    readme = (REPO_ROOT / "README.md").read_text()
    document = _bench_document()
    workloads = {w["name"]: w for w in document["workloads"]}

    kernel = workloads["fig8_kernel_core"]
    seconds = {
        (e["label"], e["kernel"]): e["seconds"] for e in kernel["entries"]
    }
    cited = [
        "%.3f s" % seconds[("bottom-up", "python")],
        "%.3f s" % seconds[("bottom-up", "bitset")],
        "%.1f×" % kernel["speedup"],
        "%.1f×" % workloads["fig8a_init"]["speedup"],
        "%.1f×" % workloads["fig8b_delta"]["speedup"],
    ]
    rounds = workloads["rounds_vs_groups"]
    for L, stats in rounds["argmax_speedups"].items():
        if int(L) >= 100:
            cited.append("%.2f×" % stats["argmax"])
            cited.append("%.1f×" % stats["eval_ratio"])
    scaling = workloads["dense_scaling"]
    scaling_seconds = {
        e["label"]: e["seconds"] for e in scaling["entries"]
    }
    cited.append("%.3f s" % scaling_seconds["n=1000000-bitset"])
    cited.append("%.3f s" % scaling_seconds["n=1000000-dense-numpy"])
    for n_text, ratios in scaling["dense_speedups"].items():
        if int(n_text) >= 100_000:
            cited.append("%.1f×" % ratios["dense-numpy"])
    missing = [number for number in cited if number not in readme]
    assert not missing, (
        "README Performance section is out of date with BENCH_core.json; "
        "missing: %s (regenerate with `PYTHONPATH=src python "
        "benchmarks/run_bench.py` and update the table)" % missing
    )


def test_bench_server_is_a_full_run_and_floors_hold():
    """The committed BENCH_server.json must be a full run that satisfies
    the load harness's own floors: >= 4x throughput over the
    1-worker/no-coalescing baseline, coalescing demonstrably firing, and
    byte-identical stdio/TCP responses for the golden wire requests."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_server_load import THROUGHPUT_RATIO_FLOOR
    finally:
        sys.path.pop(0)
    document = json.loads((REPO_ROOT / "BENCH_server.json").read_text())
    assert document["smoke"] is False, (
        "BENCH_server.json must be regenerated with a full (non --smoke) run"
    )
    assert document["throughput_ratio"] >= THROUGHPUT_RATIO_FLOOR
    assert document["coalesce_hits"] > 0
    assert document["coalesce_hit_rate"] > 0.0
    assert document["transport_parity"]["identical"] is True
    assert document["transport_parity"]["golden_file_matched"] is True
    labels = [s["label"] for s in document["scenarios"]]
    assert labels == ["baseline", "sharded+coalesce"]
    assert document["trace"]["clients"] >= 16
    # The sharded scenario's two datasets were served on two shards.
    sharded = document["scenarios"][1]
    assert sum(1 for count in sharded["served_per_shard"] if count) >= 2


def test_readme_cites_server_bench_numbers_verbatim():
    readme = (REPO_ROOT / "README.md").read_text()
    document = json.loads((REPO_ROOT / "BENCH_server.json").read_text())
    cited = [
        "%.1f×" % document["throughput_ratio"],
        "%.0f%%" % (document["coalesce_hit_rate"] * 100.0),
    ]
    missing = [number for number in cited if number not in readme]
    assert not missing, (
        "README server section is out of date with BENCH_server.json; "
        "missing: %s (regenerate with `PYTHONPATH=src python "
        "benchmarks/bench_server_load.py` and update the text)" % missing
    )


def test_bench_http_is_a_full_run_and_floors_hold():
    """The committed BENCH_http.json must be a full run that satisfies
    the two-tenant harness's own floors: the flooding tenant throttled
    (429s observed), the analyst never throttled, the analyst's
    contended p95 within the ceiling of its solo p95, and byte-identical
    stdio/HTTP responses for the golden wire requests."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_http_load import P95_RATIO_CEILING
    finally:
        sys.path.pop(0)
    document = json.loads((REPO_ROOT / "BENCH_http.json").read_text())
    assert document["smoke"] is False, (
        "BENCH_http.json must be regenerated with a full (non --smoke) run"
    )
    assert document["p95_ratio"] <= P95_RATIO_CEILING
    assert document["attacker_429s"] > 0
    assert document["analyst_429s"] == 0
    assert document["transport_parity"]["identical"] is True
    assert document["transport_parity"]["golden_file_matched"] is True
    labels = [s["label"] for s in document["scenarios"]]
    assert labels == ["solo", "contended"]
    assert document["trace"]["attackers"] >= 8


def test_readme_cites_http_bench_numbers_verbatim():
    readme = (REPO_ROOT / "README.md").read_text()
    document = json.loads((REPO_ROOT / "BENCH_http.json").read_text())
    by_label = {s["label"]: s for s in document["scenarios"]}
    cited = [
        "%.2f×" % document["p95_ratio"],
        "**%d**" % document["attacker_429s"],
        "%.1f ms" % (
            by_label["solo"]["analyst_latency"]["p95_seconds"] * 1000.0
        ),
        "%.1f ms" % (
            by_label["contended"]["analyst_latency"]["p95_seconds"] * 1000.0
        ),
    ]
    missing = [number for number in cited if number not in readme]
    assert not missing, (
        "README HTTP section is out of date with BENCH_http.json; "
        "missing: %s (regenerate with `PYTHONPATH=src python "
        "benchmarks/bench_http_load.py` and update the text)" % missing
    )


def test_bench_chaos_is_a_full_run_and_floors_hold():
    """The committed BENCH_chaos.json must be a full run that satisfies
    the chaos harness's own floors: >= 99% of requests answered (success
    or a correctly-typed wire error) under worker-crash + latency
    faults, zero hung clients, worker supervision demonstrably firing,
    and byte-identical transports with faults disarmed."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_chaos import AVAILABILITY_FLOOR, MIN_WORKER_RESTARTS
    finally:
        sys.path.pop(0)
    document = json.loads((REPO_ROOT / "BENCH_chaos.json").read_text())
    assert document["smoke"] is False, (
        "BENCH_chaos.json must be regenerated with a full (non --smoke) run"
    )
    drill = document["chaos"]
    assert drill["availability"] >= AVAILABILITY_FLOOR
    assert drill["hung_clients"] == 0
    assert drill["outcomes"]["unavailable"] == 0
    assert drill["scheduler"]["worker_restarts"] >= MIN_WORKER_RESTARTS
    assert drill["scheduler"]["workers_leaked"] == 0
    for phase in ("before", "after"):
        parity = document["transport_parity"][phase]
        assert parity["identical"] is True
        assert parity["golden_file_matched"] is True


def test_bench_recovery_is_a_full_run_and_floors_hold():
    """The committed BENCH_recovery.json must be a full run that
    satisfies the kill drill's own floors: every acked append batch
    present after SIGKILL + recovery, bit-identical summaries on every
    kernel versus an uninterrupted reference, the prober's
    availability over the outage window at or above the floor, and
    byte-identical transports with durability off."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_recovery import AVAILABILITY_FLOOR, IDENTITY_KERNELS
    finally:
        sys.path.pop(0)
    document = json.loads((REPO_ROOT / "BENCH_recovery.json").read_text())
    assert document["smoke"] is False, (
        "BENCH_recovery.json must be regenerated with a full "
        "(non --smoke) run"
    )
    drill = document["drill"]
    assert drill["recovered_batches"] >= drill["acked_batches"]
    assert drill["acked_batches"] >= drill["kill_after_acks"]
    assert drill["identity_mismatches"] == []
    assert drill["identity_requests"] >= 2 * len(IDENTITY_KERNELS)
    assert drill["post_recovery_append_ok"] is True
    assert drill["prober"]["availability"] >= AVAILABILITY_FLOOR
    assert drill["prober"]["hung"] is False
    parity = document["transport_parity"]
    assert parity["identical"] is True
    assert parity["golden_file_matched"] is True


def test_bench_obs_is_a_full_run_and_floor_holds():
    """The committed BENCH_obs.json must be a full run that satisfies
    the overhead harness's own floor: arming end-to-end tracing costs at
    most the p50 ceiling versus the disarmed server on the same load
    trace, every armed request actually landed in the trace ring buffer,
    and the disarmed transports stayed byte-identical to the golden wire
    file."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_obs_overhead import OVERHEAD_P50_CEILING
    finally:
        sys.path.pop(0)
    document = json.loads((REPO_ROOT / "BENCH_obs.json").read_text())
    assert document["smoke"] is False, (
        "BENCH_obs.json must be regenerated with a full (non --smoke) run"
    )
    assert document["p50_ratio"] <= OVERHEAD_P50_CEILING
    assert document["transport_parity"]["identical"] is True
    assert document["transport_parity"]["golden_file_matched"] is True
    best = document["best"]
    assert best["armed"]["traces_recorded"] == (
        best["armed"]["total_requests"]
    )
    assert best["disarmed"]["traces_recorded"] == 0
    for mode in ("disarmed", "armed"):
        assert len(document["legs"][mode]) == document["trace"]["reps"]


def test_readme_cites_obs_bench_numbers_verbatim():
    readme = (REPO_ROOT / "README.md").read_text()
    document = json.loads((REPO_ROOT / "BENCH_obs.json").read_text())
    best = document["best"]
    cited = [
        "%.2f×" % document["p50_ratio"],
        "%.1f ms" % (
            best["disarmed"]["latency"]["p50_seconds"] * 1000.0
        ),
        "%.1f ms" % (
            best["armed"]["latency"]["p50_seconds"] * 1000.0
        ),
    ]
    missing = [number for number in cited if number not in readme]
    assert not missing, (
        "README observability section is out of date with BENCH_obs.json; "
        "missing: %s (regenerate with `PYTHONPATH=src python "
        "benchmarks/bench_obs_overhead.py` and update the text)" % missing
    )


def test_bench_scenarios_is_a_full_run_and_floors_hold():
    """The committed BENCH_scenarios.json must be a full run of the
    declarative scenario matrix satisfying the harness's own floors: all
    three session shapes, at least two dataset sources, an append
    scenario with bit-identical incremental pool maintenance on every
    kernel, and every per-scenario floor (differential identity,
    error rate, cache rates) re-evaluated here from the committed
    document."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_scenarios import (
            APPEND_SCENARIO_REQUIRED,
            DATASET_SOURCES_FLOOR,
            SCENARIO_COUNT_FLOOR,
            SHAPES_REQUIRED,
        )
    finally:
        sys.path.pop(0)
    from repro.scenarios.report import evaluate_floors

    document = json.loads(
        (REPO_ROOT / "BENCH_scenarios.json").read_text()
    )
    assert document["smoke"] is False, (
        "BENCH_scenarios.json must be regenerated with a full "
        "(non --smoke) run"
    )
    assert document["all_floors_hold"] is True
    assert document["scenario_count"] >= SCENARIO_COUNT_FLOOR
    assert set(document["shapes"]) >= set(SHAPES_REQUIRED)
    assert len(document["dataset_sources"]) >= DATASET_SOURCES_FLOOR
    if APPEND_SCENARIO_REQUIRED:
        assert document["has_append_scenario"] is True
    for scenario in document["scenarios"]:
        # The committed floor verdicts must reproduce from the data.
        assert scenario["floor_violations"] == [], scenario["name"]
        assert evaluate_floors(scenario) == [], scenario["name"]
        assert scenario["differential"]["identical"] is True, (
            scenario["name"]
        )
        assert scenario["errors"]["total"] == 0, scenario["name"]
    append_scenarios = [
        s for s in document["scenarios"] if s["spec"].get("append")
    ]
    assert append_scenarios, "matrix must include an append scenario"
    for scenario in append_scenarios:
        check = scenario["append_check"]
        assert check["identical"] is True, scenario["name"]
        assert set(check["kernels"]) == set(KERNELS)
        assert all(check["kernels"].values()), scenario["name"]


def test_readme_cites_scenario_bench_numbers_verbatim():
    readme = (REPO_ROOT / "README.md").read_text()
    document = json.loads(
        (REPO_ROOT / "BENCH_scenarios.json").read_text()
    )
    by_name = {s["name"]: s for s in document["scenarios"]}
    revisit = by_name["synthetic-revisit"]
    append = by_name["synthetic-append"]
    cited = [
        "%d scenarios" % document["scenario_count"],
        "%.0f%%" % (revisit["cache"]["stores"]["hit_rate"] * 100.0),
        "%d rows" % append["append_check"]["rows_appended"],
        "%d requests" % sum(
            s["requests"] for s in document["scenarios"]
        ),
    ]
    missing = [number for number in cited if number not in readme]
    assert not missing, (
        "README scenario section is out of date with "
        "BENCH_scenarios.json; missing: %s (regenerate with "
        "`PYTHONPATH=src python benchmarks/bench_scenarios.py` and "
        "update the text)" % missing
    )


def test_rounds_vs_groups_floors_hold_in_committed_results():
    """The committed full run must itself satisfy the enforced floors."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from run_bench import (
            HEAP_ARGMAX_PEAK_FLOOR,
            HEAP_ARGMAX_SPEEDUP_FLOOR,
            HEAP_EVAL_RATIO_FLOOR,
        )
    finally:
        sys.path.pop(0)
    rounds = next(
        w for w in _bench_document()["workloads"]
        if w["name"] == "rounds_vs_groups"
    )
    peak = 0.0
    for L, stats in rounds["argmax_speedups"].items():
        if int(L) >= 100:
            assert stats["argmax"] >= HEAP_ARGMAX_SPEEDUP_FLOOR, L
            assert stats["eval_ratio"] >= HEAP_EVAL_RATIO_FLOOR, L
            peak = max(peak, stats["argmax"])
    assert peak >= HEAP_ARGMAX_PEAK_FLOOR


def test_dense_scaling_floors_hold_in_committed_results():
    """The committed full run must satisfy the dense-kernel floor: the
    numpy backend >= 3x bitset at n = 10^6."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from run_bench import DENSE_FLOOR_N, DENSE_NUMPY_SPEEDUP_FLOOR
    finally:
        sys.path.pop(0)
    scaling = next(
        w for w in _bench_document()["workloads"]
        if w["name"] == "dense_scaling"
    )
    # The committed run must exercise the vectorized backend and reach
    # the million-row size the floor is defined at.
    assert scaling["params"]["numpy"] is True
    assert DENSE_FLOOR_N in scaling["params"]["sizes"]
    floored = 0
    for n_text, ratios in scaling["dense_speedups"].items():
        if int(n_text) >= DENSE_FLOOR_N:
            assert (
                ratios["dense-numpy"] >= DENSE_NUMPY_SPEEDUP_FLOOR
            ), n_text
            floored += 1
    assert floored >= 1
