"""Machine-readable benchmark runner: seeds the perf trajectory.

Unlike the ``bench_*.py`` pytest modules (which regenerate the paper's
figures as human-readable tables), this is a plain script that executes the
core workloads — the Figure 5 brute-force comparison, the Figure 8
initialization/delta ablations, the kernel comparison at n >= 10k (the
bitset kernel against the literal reference engine of
:mod:`repro.core.reference`), and the service cold-vs-warm cache path —
and writes one JSON
document (default: ``BENCH_core.json`` at the repository root) with
wall-clock seconds, workload parameters (n/m/L/k/D), and kernel labels.
CI runs it with ``--smoke`` (scaled-down sizes, no ratio thresholds) to
catch breakage; the full run records the numbers cited in README/ROADMAP.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--smoke] [--out PATH]
                                                  [--workloads NAME ...]
                                                  [--profile]

The kernel-comparison workloads also cross-check that the kernels return
*identical* solutions, and (full mode) fail loudly when a committed floor
is broken: bitset >= 5x the reference engine on the n=10k workload and
dense+numpy >= 3x bitset on the n=10^6 scaling workload — the acceptance
bars this
runner exists to keep honest.  ``--profile`` additionally cProfiles each
workload into ``results/profile_<name>.{pstats,txt}`` so optimization
decisions stay profile-driven.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import dense, reference  # noqa: E402
from repro.core.bottom_up import bottom_up  # noqa: E402
from repro.core.brute_force import brute_force  # noqa: E402
from repro.core.fixed_order import fixed_order  # noqa: E402
from repro.core.hybrid import hybrid  # noqa: E402
from repro.core.merge import MergeEngine  # noqa: E402
from repro.core.semilattice import ClusterPool  # noqa: E402
from repro.datasets.loader import (  # noqa: E402
    movielens_answer_set,
    synthetic_answer_set,
)
from repro.service import Engine, ExploreRequest, SummaryRequest  # noqa: E402

#: Minimum acceptable bitset-over-reference speedup on the kernel workload.
KERNEL_SPEEDUP_FLOOR = 5.0

#: Floors for the rounds-vs-groups workload (enforced in full mode at
#: L >= 100, where the lazy heap argmax must beat the exhaustive scan).
#: The marginal-evaluation ratio is deterministic (identical trajectories
#: every run), so its floor is the primary contract.  Wall-clock carries
#: machine noise and the per-L effect at L=100/200 is only a few percent,
#: so each L gets a parity-within-noise floor while the *peak* speedup
#: across the L sweep (1.8x at L=400 on the committed run) must clear a
#: real margin.
HEAP_EVAL_RATIO_FLOOR = 2.5
HEAP_ARGMAX_SPEEDUP_FLOOR = 0.95
HEAP_ARGMAX_PEAK_FLOOR = 1.25

#: Floor for the dense_scaling workload (enforced in full mode, with
#: numpy).  The dense kernel must beat the bitset kernel by this factor
#: on the mask-sum-dominated warm run at n = DENSE_FLOOR_N.
DENSE_NUMPY_SPEEDUP_FLOOR = 3.0
DENSE_FLOOR_N = 1_000_000


def best_of(fn, repeats: int = 3) -> tuple[object, float]:
    """(last result, best wall-clock seconds) over *repeats* invocations."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_fig5_bruteforce(smoke: bool) -> dict:
    """Figure 5 workload: exact search vs the greedy family (small n)."""
    answers = movielens_answer_set(m=4, having_count_gt=50)
    L, D, k = 5, 3, 3
    pool = ClusterPool(answers, L=L)
    entries = []
    solutions = {}
    for label, fn in (
        ("brute-force", lambda: brute_force(pool, k, D)),
        ("bottom-up", lambda: bottom_up(pool, k, D)),
        ("fixed-order", lambda: fixed_order(pool, k, D)),
        ("hybrid", lambda: hybrid(pool, k, D)),
    ):
        solution, seconds = best_of(fn, repeats=1 if smoke else 3)
        solutions[label] = solution
        entries.append(
            {"label": label, "kernel": "bitset", "seconds": seconds}
        )
    # Exactness sanity: no greedy may beat the exact optimum.
    exact = solutions["brute-force"].avg
    for label, solution in solutions.items():
        assert solution.avg <= exact + 1e-9, label
    return {
        "name": "fig5_bruteforce",
        "params": {"n": answers.n, "m": answers.m, "L": L, "k": k, "D": D},
        "entries": entries,
    }


def fully_mapped_pool(answers, L: int) -> ClusterPool:
    """Figure 8a's optimized leg: the pool with every pattern's mask
    derived, so it maps every cluster as the naive leg does (a pool
    derives masks on first read; the set order matches the naive leg's
    loop)."""
    pool = ClusterPool(answers, L=L, strategy="eager")
    for pattern in pool._patterns:
        pool.mask(pattern)
    return pool


def bench_fig8a_init(smoke: bool) -> dict:
    """Figure 8a workload: optimized vs naive cluster generation/mapping."""
    n = 500 if smoke else 2087
    L = 20 if smoke else 60
    answers = synthetic_answer_set(n, m=6, domain_size=8, seed=1)
    optimized, fast = best_of(
        lambda: fully_mapped_pool(answers, L), repeats=1
    )
    naive, slow = best_of(
        lambda: ClusterPool(answers, L=L, strategy="naive"), repeats=1
    )
    sample = list(optimized.patterns())[:: max(1, len(optimized) // 25)]
    for pattern in sample:
        assert optimized.coverage(pattern) == naive.coverage(pattern)
    return {
        "name": "fig8a_init",
        "params": {"n": n, "m": 6, "L": L},
        "entries": [
            {"label": "eager-mapping", "kernel": "bitset", "seconds": fast},
            {"label": "naive-mapping", "kernel": "bitset", "seconds": slow},
        ],
        "speedup": slow / fast,
    }


def bench_fig8b_delta(smoke: bool) -> dict:
    """Figure 8b workload: delta judgment vs naive re-evaluation."""
    n = 500 if smoke else 2087
    L = 20 if smoke else 60
    k, D = 10, 2
    answers = synthetic_answer_set(n, m=6, domain_size=8, seed=1)
    pool = ClusterPool(answers, L=L)
    # Pin argmax="scan" so this ablation isolates delta judgment: the lazy
    # heap (the rounds_vs_groups workload's axis) would otherwise mask the
    # cost of naive re-evaluation by evaluating only the frontier.
    with_delta, fast = best_of(
        lambda: bottom_up(pool, k, D, use_delta=True, argmax="scan"),
        repeats=1 if smoke else 3,
    )
    without_delta, slow = best_of(
        lambda: bottom_up(pool, k, D, use_delta=False, argmax="scan"),
        repeats=1,
    )
    assert with_delta.patterns() == without_delta.patterns()
    return {
        "name": "fig8b_delta",
        "params": {"n": n, "m": 6, "L": L, "k": k, "D": D},
        "entries": [
            {"label": "with-delta", "kernel": "bitset", "seconds": fast},
            {"label": "without-delta", "kernel": "bitset", "seconds": slow},
        ],
        "speedup": slow / fast,
    }


def bench_kernel_core(smoke: bool) -> dict:
    """The acceptance workload: the bitset kernel against the literal
    reference engine (Section 5 over element sets, no Section 6.3
    optimization), n >= 10k, L ~ 100.

    Runs Bottom-Up (the Figure 8b algorithm) on both, checks the
    solutions agree (identical patterns, or equal objectives to ~1 ulp on
    an exact tie), and reports the speedup.  In full mode a speedup below
    :data:`KERNEL_SPEEDUP_FLOOR` is an error.
    """
    n = 2000 if smoke else 10240
    L = 40 if smoke else 100
    k, D = 20, 2
    answers = synthetic_answer_set(n, m=6, domain_size=10, seed=1)
    pool = ClusterPool(answers, L=L)
    bitset_solution, bitset_seconds = best_of(
        lambda: bottom_up(pool, k, D, kernel="bitset"),
        repeats=1 if smoke else 3,
    )
    reference_solution, reference_seconds = best_of(
        lambda: reference.bottom_up(pool, k, D),
        repeats=1 if smoke else 3,
    )
    # The engine refreshes cached marginal sums by subtraction, the
    # reference sums each marginal afresh, so on general float values a
    # mathematically exact tie can break differently at the last ulp.
    # Identical patterns are the expected outcome (and what the
    # dyadic-valued property tests prove); if they ever differ here, the
    # objectives must still agree to ~1 ulp or something is actually wrong.
    identical = bitset_solution.patterns() == reference_solution.patterns()
    if not identical:
        assert abs(bitset_solution.avg - reference_solution.avg) < 1e-9, (
            "divergence beyond float-tie noise: bitset avg %r vs "
            "reference avg %r"
            % (bitset_solution.avg, reference_solution.avg)
        )
    _, hybrid_bitset = best_of(
        lambda: hybrid(pool, k, D, kernel="bitset"), repeats=1 if smoke else 3
    )
    _, hybrid_reference = best_of(
        lambda: reference.hybrid(pool, k, D), repeats=1 if smoke else 3
    )
    speedup = reference_seconds / bitset_seconds
    if not smoke and speedup < KERNEL_SPEEDUP_FLOOR:
        raise SystemExit(
            "kernel speedup regression: %.2fx < %.1fx floor "
            "(bitset %.3fs, reference %.3fs)"
            % (speedup, KERNEL_SPEEDUP_FLOOR, bitset_seconds,
               reference_seconds)
        )
    return {
        "name": "fig8_kernel_core",
        "params": {"n": n, "m": 6, "L": L, "k": k, "D": D},
        "entries": [
            {"label": "bottom-up", "kernel": "bitset",
             "seconds": bitset_seconds},
            {"label": "bottom-up", "kernel": "reference",
             "seconds": reference_seconds},
            {"label": "hybrid", "kernel": "bitset",
             "seconds": hybrid_bitset},
            {"label": "hybrid", "kernel": "reference",
             "seconds": hybrid_reference},
        ],
        "speedup": speedup,
        "solutions_identical": identical,
    }


#: Warm explores the service_cache workload times; its speedup is over
#: their median (one sub-millisecond sample swung 30-55x run to run).
SERVICE_WARM_EXPLORES = 25


def bench_service_cache(smoke: bool) -> dict:
    """Cold vs warm engine requests (shared pools/stores across sessions)."""
    n = 500 if smoke else 2087
    L = 20 if smoke else 40
    answers = synthetic_answer_set(n, m=6, domain_size=8, seed=2)
    engine = Engine()
    engine.register_dataset("bench", answers)
    summary = SummaryRequest(dataset="bench", k=8, L=L, D=2,
                             algorithm="hybrid")
    start = time.perf_counter()
    cold = engine.submit(summary)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = engine.submit(summary)
    warm_seconds = time.perf_counter() - start
    assert cold.cache_hit is False and warm.cache_hit is True
    explore = ExploreRequest(dataset="bench", k=6, L=L, D=2,
                             k_range=(4, 10), d_values=(1, 2))
    start = time.perf_counter()
    explore_cold = engine.submit(explore)
    explore_cold_seconds = time.perf_counter() - start
    assert explore_cold.cache_hit is False
    warm_samples = []
    for _ in range(SERVICE_WARM_EXPLORES):
        start = time.perf_counter()
        explore_warm = engine.submit(explore)
        warm_samples.append(time.perf_counter() - start)
        assert explore_warm.cache_hit is True
    explore_warm_seconds = statistics.median(warm_samples)
    return {
        "name": "service_cache",
        "params": {"n": n, "m": 6, "L": L},
        "entries": [
            {"label": "summary-cold", "kernel": cold.kernel,
             "seconds": cold_seconds},
            {"label": "summary-warm", "kernel": warm.kernel,
             "seconds": warm_seconds},
            {"label": "explore-cold", "kernel": explore_cold.kernel,
             "seconds": explore_cold_seconds},
            {"label": "explore-warm", "kernel": explore_warm.kernel,
             "seconds": explore_warm_seconds,
             "samples": SERVICE_WARM_EXPLORES},
        ],
        "speedup": explore_cold_seconds / max(explore_warm_seconds, 1e-9),
    }


def _drive_merge_loop(pool, k: int, D: int, argmax: str):
    """Run Bottom-Up's two phases, timing only the per-round argmax.

    The merge itself (pair-table maintenance) is identical in both argmax
    modes, so isolating ``best_violating_pair``/``best_any_pair`` measures
    exactly the structure this workload compares: exhaustive LCA-group
    scan vs lazy upper-bound heap.  The pair table is built on first
    read, so it is built here, before any timer, rather than inside the
    first argmax.
    """
    engine = MergeEngine(
        pool,
        (pool.singleton(i) for i in pool.answers.top(pool.L)),
        argmax=argmax,
    )
    engine.min_pairwise_distance()
    argmax_seconds = 0.0
    start = time.perf_counter()
    while True:
        tick = time.perf_counter()
        pair = engine.best_violating_pair(D)
        argmax_seconds += time.perf_counter() - tick
        if pair is None:
            break
        engine.merge(*pair)
    while engine.size > k:
        tick = time.perf_counter()
        pair = engine.best_any_pair()
        argmax_seconds += time.perf_counter() - tick
        if pair is None:
            break
        engine.merge(*pair)
    total_seconds = time.perf_counter() - start
    return engine.snapshot(), argmax_seconds, total_seconds


def bench_rounds_vs_groups(smoke: bool) -> dict:
    """Rounds-vs-groups workload: heap vs scan argmax as L grows.

    Larger L means more clusters in play and more LCA groups per greedy
    round; the scan evaluates every group every round while the lazy heap
    evaluates only the near-optimal frontier.  Both modes must return
    bit-identical solutions; in full mode, at L >= 100 the heap must
    evaluate at most 1/:data:`HEAP_EVAL_RATIO_FLOOR` of the scan's
    marginals and must not be slower on argmax wall clock
    (:data:`HEAP_ARGMAX_SPEEDUP_FLOOR`).
    """
    n = 2000 if smoke else 10240
    l_values = (30, 60) if smoke else (100, 200, 400)
    k, D = 20, 2
    answers = synthetic_answer_set(n, m=6, domain_size=10, seed=1)
    entries = []
    speedups = {}
    for L in l_values:
        pool = ClusterPool(answers, L=L)
        results = {}
        for mode in ("heap", "scan"):
            best_argmax = float("inf")
            best_total = float("inf")
            solution = None
            for _ in range(1 if smoke else 5):
                solution, argmax_seconds, total_seconds = _drive_merge_loop(
                    pool, k, D, mode
                )
                best_argmax = min(best_argmax, argmax_seconds)
                best_total = min(best_total, total_seconds)
            results[mode] = (solution, best_argmax, best_total)
        heap_solution, heap_argmax, heap_total = results["heap"]
        scan_solution, scan_argmax, scan_total = results["scan"]
        assert heap_solution.patterns() == scan_solution.patterns(), (
            "heap/scan argmax diverged at L=%d" % L
        )
        heap_evals = heap_solution.stats["argmax_evals"]
        scan_evals = scan_solution.stats["argmax_evals"]
        rounds = scan_solution.stats["argmax_rounds"]
        groups_per_round = scan_solution.stats["argmax_groups"] / max(
            rounds, 1.0
        )
        argmax_speedup = scan_argmax / max(heap_argmax, 1e-9)
        eval_ratio = scan_evals / max(heap_evals, 1.0)
        speedups[L] = (argmax_speedup, eval_ratio)
        for mode, argmax_seconds, total_seconds, evals in (
            ("heap", heap_argmax, heap_total, heap_evals),
            ("scan", scan_argmax, scan_total, scan_evals),
        ):
            entries.append({
                "label": "L=%d-%s" % (L, mode),
                "kernel": "bitset",
                "seconds": argmax_seconds,
                "total_seconds": total_seconds,
                "evals": evals,
                "groups_per_round": groups_per_round,
            })
        if not smoke and L >= 100:
            if eval_ratio < HEAP_EVAL_RATIO_FLOOR:
                raise SystemExit(
                    "heap argmax eval-reduction regression at L=%d: "
                    "%.2fx < %.1fx floor" % (L, eval_ratio,
                                             HEAP_EVAL_RATIO_FLOOR)
                )
            if argmax_speedup < HEAP_ARGMAX_SPEEDUP_FLOOR:
                raise SystemExit(
                    "heap argmax wall-clock regression at L=%d: %.2fx < "
                    "%.2fx floor (heap %.4fs, scan %.4fs)"
                    % (L, argmax_speedup, HEAP_ARGMAX_SPEEDUP_FLOOR,
                       heap_argmax, scan_argmax)
                )
    if not smoke:
        peak = max(
            speedup for L, (speedup, _) in speedups.items() if L >= 100
        )
        if peak < HEAP_ARGMAX_PEAK_FLOOR:
            raise SystemExit(
                "heap argmax peak-speedup regression: %.2fx < %.2fx floor "
                "across L >= 100" % (peak, HEAP_ARGMAX_PEAK_FLOOR)
            )
    return {
        "name": "rounds_vs_groups",
        "params": {"n": n, "m": 6, "L_values": list(l_values), "k": k,
                   "D": D},
        "entries": entries,
        "argmax_speedups": {
            str(L): {"argmax": spd, "eval_ratio": ratio}
            for L, (spd, ratio) in speedups.items()
        },
        "speedup": max(spd for spd, _ in speedups.values()),
    }


def _dense_scaling_leg(answers, kernel: str, L: int, k: int, D: int,
                       repeats: int):
    """One kernel leg of the scaling workload.

    Returns ``(solution, init_seconds, cold_seconds, warm_seconds)``.
    The *cold* run pays the pool's on-demand mask derivation (value-mask
    ANDs); *warm* runs hit the pool's cluster cache and are dominated by
    the coverage primitives — AND/ANDNOT/popcount/value-sum over large
    masks — which is exactly what the kernels differ in.  Both numbers
    are recorded; the floors compare the warm (steady-state serving)
    cost.
    """
    start = time.perf_counter()
    pool = ClusterPool(answers, L=L, kernel=kernel)
    init_seconds = time.perf_counter() - start
    start = time.perf_counter()
    solution = bottom_up(pool, k, D, kernel=kernel)
    cold_seconds = time.perf_counter() - start
    warm_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        solution = bottom_up(pool, k, D, kernel=kernel)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    return solution, init_seconds, cold_seconds, warm_seconds


def bench_dense_scaling(smoke: bool) -> dict:
    """Large-n scaling workload: dense kernel vs bitset at n up to 10^6.

    Bottom-Up (m=6, L=100, k=20, D=2) for
    n in {10^4, 10^5, 10^6}; two legs per n — bitset, and dense with the
    numpy backend — each on a pool in its own mask representation.  Both
    legs must return identical solutions (bitset and dense sum in the
    same ascending order, so equality is exact, not tie-tolerant).
    Without numpy ``dense`` runs bitset, so only the bitset leg runs.
    Full-mode floor: :data:`DENSE_NUMPY_SPEEDUP_FLOOR` at
    n = :data:`DENSE_FLOOR_N`.
    """
    sizes = (2_000, 20_000) if smoke else (10_000, 100_000, 1_000_000)
    L = 50 if smoke else 100
    k, D = 20, 2
    have_numpy = dense.HAVE_NUMPY
    entries = []
    ratios: dict[int, dict[str, float]] = {}
    for n in sizes:
        answers = synthetic_answer_set(n, m=6, domain_size=32, seed=5)
        repeats = 1 if (smoke or n >= 1_000_000) else 2
        legs: dict[str, tuple] = {}
        legs["bitset"] = _dense_scaling_leg(answers, "bitset", L, k, D,
                                            repeats)
        if have_numpy:
            legs["dense-numpy"] = _dense_scaling_leg(
                answers, "dense", L, k, D, repeats
            )
        reference = legs["bitset"][0]
        for label, (solution, *_rest) in legs.items():
            assert solution.patterns() == reference.patterns(), (
                "dense_scaling kernel divergence at n=%d (%s)" % (n, label)
            )
        bitset_warm = legs["bitset"][3]
        ratios[n] = {
            label: bitset_warm / legs[label][3]
            for label in legs
            if label != "bitset"
        }
        for label, (solution, init_s, cold_s, warm_s) in legs.items():
            entries.append({
                "label": "n=%d-%s" % (n, label),
                "kernel": "dense" if label.startswith("dense") else "bitset",
                "seconds": warm_s,
                "cold_seconds": cold_s,
                "init_seconds": init_s,
            })
        if (
            not smoke
            and have_numpy
            and n >= DENSE_FLOOR_N
            and ratios[n]["dense-numpy"] < DENSE_NUMPY_SPEEDUP_FLOOR
        ):
            raise SystemExit(
                "dense kernel speedup regression at n=%d: %.2fx < "
                "%.1fx floor" % (n, ratios[n]["dense-numpy"],
                                 DENSE_NUMPY_SPEEDUP_FLOOR)
            )
    document = {
        "name": "dense_scaling",
        "params": {"m": 6, "L": L, "k": k, "D": D, "domain_size": 32,
                   "mapping": "eager",
                   "sizes": list(sizes), "numpy": have_numpy},
        "entries": entries,
        "dense_speedups": {
            str(n): per_n for n, per_n in ratios.items()
        },
    }
    if have_numpy:
        document["speedup"] = max(
            per_n["dense-numpy"] for per_n in ratios.values()
        )
    return document


WORKLOADS = {
    "fig5_bruteforce": bench_fig5_bruteforce,
    "rounds_vs_groups": bench_rounds_vs_groups,
    "fig8a_init": bench_fig8a_init,
    "fig8b_delta": bench_fig8b_delta,
    "fig8_kernel_core": bench_kernel_core,
    "service_cache": bench_service_cache,
    "dense_scaling": bench_dense_scaling,
}


def _run_profiled(name: str, smoke: bool) -> dict:
    """Run one workload under cProfile, dumping stats under results/.

    Writes ``results/profile_<name>.pstats`` (binary, for ``snakeviz``/
    ``pstats`` sessions) and ``results/profile_<name>.txt`` (top 40
    functions by cumulative time) so future kernel decisions — e.g. the
    ROADMAP's convex-hull argmax — start from measured hot paths rather
    than guesses.  Profiling inflates wall-clock, so profiled runs are
    for *attribution*; never commit their timings to BENCH_core.json.
    """
    import cProfile
    import pstats

    results_dir = REPO_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    profiler = cProfile.Profile()
    workload = profiler.runcall(WORKLOADS[name], smoke)
    profiler.dump_stats(results_dir / ("profile_%s.pstats" % name))
    with open(results_dir / ("profile_%s.txt" % name), "w") as stream:
        stats = pstats.Stats(
            str(results_dir / ("profile_%s.pstats" % name)), stream=stream
        )
        stats.sort_stats("cumulative").print_stats(40)
    print("  profile -> results/profile_%s.{pstats,txt}" % name)
    return workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_core.json",
        help="output JSON path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="scaled-down sizes, no speedup thresholds (CI smoke mode)",
    )
    parser.add_argument(
        "--workloads", nargs="*", choices=sorted(WORKLOADS),
        help="subset of workloads to run (default: all)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile each workload and dump pstats output under "
        "results/ (profile_<workload>.pstats + a cumulative-time text "
        "top-40 in profile_<workload>.txt) so kernel decisions are "
        "profile-driven",
    )
    args = parser.parse_args(argv)
    names = args.workloads or sorted(WORKLOADS)
    results = []
    for name in names:
        print("running %s%s ..." % (name, " (smoke)" if args.smoke else ""),
              flush=True)
        if args.profile:
            workload = _run_profiled(name, args.smoke)
        else:
            workload = WORKLOADS[name](args.smoke)
        for entry in workload["entries"]:
            print("  %-14s %-9s %8.3f s" % (
                entry["label"], entry["kernel"], entry["seconds"]))
        if "speedup" in workload:
            print("  speedup: %.1fx" % workload["speedup"])
        results.append(workload)
    document = {
        "schema": 1,
        "benchmark": "BENCH_core",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": results,
    }
    kernel = next(
        (w for w in results if w["name"] == "fig8_kernel_core"), None
    )
    if kernel is not None:
        document["kernel_speedup"] = kernel["speedup"]
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
