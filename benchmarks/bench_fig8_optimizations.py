"""Figure 8: effect of the Section 6.3 optimizations (ablations).

(a) Cluster generation + tuple mapping: the optimized initialization
    (generate patterns from top-L tuples, map tuples by lookup) versus the
    naive per-cluster scan of S.  Paper: 100x-1000x.
(b) Delta judgment: incremental marginal-benefit bookkeeping versus naive
    recomputation in every UpdateSolution call.  Paper: ~30x
    (4.6 s -> 0.15 s at L=1000 on their prototype).

Parameters are scaled to pure-Python speed (same N=2087, smaller L);
the measured quantity is the ratio, which is scale-stable.
"""

from __future__ import annotations

from repro.core.bottom_up import bottom_up
from repro.core.semilattice import ClusterPool
from repro.datasets.loader import synthetic_answer_set

from conftest import measure
from run_bench import fully_mapped_pool


def _answers():
    return synthetic_answer_set(2087, m=6, domain_size=8, seed=1)


def test_fig8a_initialization_optimization(report, benchmark):
    answers = _answers()
    report.add("Figure 8a: initialization with and without the cluster "
               "generation/mapping optimization (N=%d, m=6)" % answers.n)
    rows = []
    for L in (30, 60, 120):
        optimized, fast_seconds = measure(
            lambda: fully_mapped_pool(answers, L)
        )
        naive, slow_seconds = measure(
            lambda: ClusterPool(answers, L=L, strategy="naive")
        )
        # Both strategies must build identical pools.
        sample = list(optimized.patterns())[:: max(1, len(optimized) // 50)]
        for pattern in sample:
            assert optimized.coverage(pattern) == naive.coverage(pattern)
        rows.append([
            L,
            "%.3f" % fast_seconds,
            "%.3f" % slow_seconds,
            "%.1fx" % (slow_seconds / fast_seconds),
        ])
    report.table(["L", "with opt (s)", "without opt (s)", "speedup"], rows)
    benchmark(lambda: fully_mapped_pool(answers, 30))


def test_fig8b_delta_judgment(report, benchmark):
    answers = _answers()
    report.add("Figure 8b: Bottom-Up with and without delta judgment "
               "(k=20, D=2, N=%d)" % answers.n)
    rows = []
    for L in (40, 60, 80):
        pool = ClusterPool(answers, L=L)
        with_delta, fast_seconds = measure(
            lambda: bottom_up(pool, 20, 2, use_delta=True)
        )
        without_delta, slow_seconds = measure(
            lambda: bottom_up(pool, 20, 2, use_delta=False)
        )
        # The optimization must not change the result.
        assert with_delta.patterns() == without_delta.patterns()
        rows.append([
            L,
            "%.3f" % fast_seconds,
            "%.3f" % slow_seconds,
            "%.1fx" % (slow_seconds / fast_seconds),
        ])
    report.table(["L", "with delta (s)", "without delta (s)", "speedup"],
                 rows)
    pool = ClusterPool(answers, L=40)
    benchmark(lambda: bottom_up(pool, 20, 2, use_delta=True))

