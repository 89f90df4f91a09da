"""The repository's benchmark: served-path workloads against ``repro-serve``.

    python3 perfbench/run.py --workload warm-explore --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run generates its inputs from
``--seed`` into a fresh directory under ``.perfbench_tmp/``, boots the
real server (``repro.cli.serve_main``) as a child process, drives it
over TCP or HTTP with wire defaults, and checks every answer against an
in-process reference.  The report lines list every metric with its unit
and sample count; the last line is one JSON object:

* ``--trace 0``: the ``end_to_end`` metrics of ``BENCHMARK.json``.  The
  server is booted three times and ``setup_s`` is the median boot.
* ``--trace 1``: the ``per_layer`` metrics.  One untraced and one traced
  boot (``launcher.py`` times every layer's entry points); layer numbers
  come from the traced one, end-to-end numbers and the tracing overhead
  from comparing the two.

``GLOSSARY.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import layer_metrics, median, ms, tail  # noqa: E402
from workloads import ANALYTIC, PASSES, Pass, Workdir  # noqa: E402

#: Boots per untraced run; setup_s is their median.
SETUP_BOOTS = 3
#: An open-loop generator later than this at p95 was itself the
#: bottleneck, which invalidates the run.
LATE_LIMIT_MS = 20.0


def _latency(record: dict[str, Any], penalty: float) -> float:
    """Seconds from due (open loop) or send to the response; a failed
    request counts as missing every limit by taking the whole window."""
    response = record.get("response")
    if not isinstance(response, dict) or response.get("kind") == "error":
        return penalty
    return record["recv"] - record.get("due", record["sent"])


def end_to_end(run: Pass, setups: list[float]) -> tuple[dict[str, float],
                                                        dict[str, str]]:
    """Every end-to-end metric of one pass, plus sample-count notes."""
    penalty = run.seconds
    analytic = [r for r in run.records if r["kind"] in ANALYTIC]
    appends = [r for r in run.records if r["kind"] == "append_rows"]
    metrics: dict[str, float] = {"setup_s": median(setups)}
    notes: dict[str, str] = {"setup_s": "median of %d boots" % len(setups)}

    def timings(prefix: str, records: list[dict[str, Any]]) -> None:
        values = [_latency(r, penalty) for r in records]
        metrics[prefix + "_p50_ms"] = ms(median(values))
        value, percentile, count = tail(values)
        metrics[prefix + "_p95_ms"] = ms(value)
        notes[prefix + "_p95_ms"] = "p%.1f of %d samples" % (percentile, count)
        notes[prefix + "_p50_ms"] = "%d samples" % count

    timings("request", analytic)
    timings("summary", [r for r in analytic if r["kind"] == "summary"])
    timings("explore", [r for r in analytic if r["kind"] == "explore"])
    # The server sets the pace of a closed loop; an open loop completes
    # what it offers, so warm-explore's throughput is its burst's.
    if run.burst:
        start, paced = run.burst_start, run.burst
        notes["throughput_rps"] = "closed-loop burst of %d" % len(paced)
    else:
        start, paced = run.start, analytic
    done = [r for r in paced if "recv" in r]
    last = max((r["recv"] for r in done), default=start)
    metrics["throughput_rps"] = len(done) / (last - start) if last > start else 0.0
    metrics["peak_rss_mb"] = run.rss_mb
    if appends:
        timings("append_ack", appends)
        acks = sorted(r["recv"] for r in appends if "recv" in r)
        readers = sorted((r for r in analytic), key=lambda r: r["sent"])
        after = []
        for ack in acks:
            first = next((r for r in readers if r["sent"] >= ack), None)
            if first is not None:
                after.append(_latency(first, penalty))
        metrics["read_after_append_p50_ms"] = ms(median(after))
        notes["read_after_append_p50_ms"] = "%d samples" % len(after)
    return metrics, notes


def measured(run: Pass) -> list[dict[str, Any]]:
    return [r for r in run.records + run.burst
            if r["kind"] in ANALYTIC or r["kind"] == "append_rows"]


def failed_request(record: dict[str, Any]) -> bool:
    response = record.get("response")
    return not isinstance(response, dict) or response.get("kind") == "error"


def check(run: Pass, reference) -> tuple[list[str], int]:
    """Problems found in one pass, and how many operations they cost:
    failed or refused requests, answers that differ from *reference*
    (``None``: the pass checked its own answers), and one each for a
    broken append invariant, an idle targeted shard or a late generator."""
    from harness import matches

    problems = list(run.failures)
    records = measured(run)
    failed = [r for r in records if failed_request(r)]
    bad = len(failed) + len(run.failures)
    if failed:
        problems.append("%d requests failed or were refused" % len(failed))
    if reference is not None:
        answered = sorted(
            (r for r in records if not failed_request(r)),
            key=lambda r: (r["payload"]["dataset"], r["payload"]["L"]),
        )
        wrong = sum(1 for r in answered if not matches(reference, r))
        if wrong:
            problems.append("%d responses differ from the reference replay"
                            % wrong)
        bad += wrong
    # Each dataset is named to land on a shard of its own: fewer busy
    # shards than datasets means the routing put two on one shard.
    served = run.scheduler.get("served_per_shard", [])
    busy = sum(1 for count in served if count)
    if busy < run.datasets:
        problems.append("%d datasets but only %d shards served requests (%r)"
                        % (run.datasets, busy, served))
        bad += 1
    if run.late and ms(tail(run.late)[0]) > LATE_LIMIT_MS:
        problems.append("generator ran late (p95 %.1f ms): run invalid"
                        % ms(tail(run.late)[0]))
        bad += 1
    return problems, bad


def window_of(run: Pass) -> dict[str, dict[str, Any]]:
    return {r["rid"]: r for r in run.records if "recv" in r}


def report(values: dict[str, float], units: dict[str, str],
           notes: dict[str, str]) -> None:
    for name in sorted(values):
        print("metric %-44s %14.4f %-6s %s" % (
            name, values[name], units.get(name, ""), notes.get(name, ""),
        ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro under %s; run from a checkout" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = Workdir(tempfile.mkdtemp(prefix=args.workload + "-", dir=tmp_root))
    try:
        return _run(args, spec, work)
    finally:
        shutil.rmtree(work.path, ignore_errors=True)


def _run(args: argparse.Namespace, spec: dict[str, Any], work: Workdir) -> int:
    from harness import Reference

    make_inputs, run_pass = PASSES[args.workload]
    csvs = make_inputs(work, args.seed)
    # One memoized replay serves both passes of a traced run.
    reference = Reference(csvs) if args.workload != "append-mix" else None
    failures: list[str] = []
    if args.trace:
        plain = run_pass(ROOT, work, csvs, args.seed, args.seconds)
        traced = run_pass(ROOT, work, csvs, args.seed, args.seconds,
                          traced=True)
        runs = [plain, traced]
        values, notes = end_to_end(plain, [plain.setup_s])
        traced_values, _ = end_to_end(traced, [traced.setup_s])
        values.update(layer_metrics(traced.spans, window_of(traced),
                                    traced.scheduler))
        values["bench.trace_overhead_ratio"] = (
            traced_values["request_p50_ms"] / values["request_p50_ms"]
        )
        values["bench.late_ms_p95"] = ms(tail(plain.late)[0])
        wanted = spec["per_layer"]
    else:
        setups = [
            run_pass(ROOT, work, csvs, args.seed, args.seconds,
                     measure=False).setup_s
            for _ in range(SETUP_BOOTS - 1)
        ]
        plain = run_pass(ROOT, work, csvs, args.seed, args.seconds)
        runs = [plain]
        values, notes = end_to_end(plain, setups + [plain.setup_s])
        values["bench.late_ms_p95"] = ms(tail(plain.late)[0])
        wanted = spec["end_to_end"]
    attempted = failed = 0
    for run in runs:
        problems, bad = check(run, reference)
        failures.extend(problems)
        attempted += len(measured(run))
        failed += bad
    values["error_rate"] = failed / attempted if attempted else 1.0
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    report(values, units, notes)
    for problem in failures:
        print("FAIL", problem)
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": values.get(entry["name"], 0.0),
                            "unit": entry["unit"]}
            for entry in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
