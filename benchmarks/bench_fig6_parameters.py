"""Figure 6: runtime and value of the three greedy algorithms vs k, L, D, m.

Paper defaults: m=8, k=3, L=40, D=3 on MovieLens-scale answer sets
(N in the low thousands, the paper's default query yields N=2087).
Expected shapes (Section 7.1):

* vs k (6a/6b): Fixed-Order fastest, Bottom-Up slowest, Hybrid between;
  value of Fixed-Order below Bottom-Up/Hybrid, improving with k.
* vs L (6c/6d): all runtimes grow with L, Bottom-Up worst (quadratic);
  the value upper bound decreases with L.
* vs D (6e/6f): Fixed-Order mostly flat; value highest at small D.
* vs m (6g/6h): initialization time grows with m (the pool holds up to
  L * 2^m patterns); algorithm time stays in the interactive range.
"""

from __future__ import annotations

from repro.core.bottom_up import bottom_up
from repro.core.brute_force import lower_bound
from repro.core.fixed_order import fixed_order
from repro.core.hybrid import hybrid
from repro.core.semilattice import ClusterPool
from repro.datasets.loader import movielens_answer_set

from conftest import measure

ALGORITHMS = (
    ("Bottom-Up", bottom_up),
    ("Fixed-Order", fixed_order),
    ("Hybrid", hybrid),
)

#: HAVING thresholds per m so the 6g/6h sweep input lands in the paper's
#: 140-280 range.
_SWEEP_THRESHOLDS = {4: 20, 6: 80, 8: 50, 10: 30}


def _answers(m: int = 8):
    # The MovieLens workload: top answers share attribute values, so both
    # the distance constraint and the merges behave as in the paper.
    return movielens_answer_set(m=m, having_count_gt=10)


def _row(pool, k, D):
    times, values = [], []
    for _, algorithm in ALGORITHMS:
        solution, seconds = measure(lambda: algorithm(pool, k, D))
        times.append("%.2f" % (seconds * 1e3))
        values.append("%.4f" % solution.avg)
    return times, values


def test_fig6ab_vs_k(report, benchmark):
    answers = _answers()
    pool = ClusterPool(answers, L=40)
    floor = lower_bound(pool).avg
    report.add("Figure 6a/6b: vs k  (m=8, L=40, D=3, N=%d)" % answers.n)
    time_rows, value_rows = [], []
    for k in (5, 10, 20, 40):
        times, values = _row(pool, k, 3)
        time_rows.append([k, *times])
        value_rows.append([k, *values, "%.4f" % floor])
    report.add("\n(a) runtime (ms) vs k")
    report.table(["k", "Bottom-Up", "Fixed-Order", "Hybrid"], time_rows)
    report.add("\n(b) value vs k")
    report.table(
        ["k", "Bottom-Up", "Fixed-Order", "Hybrid", "LowerBound"], value_rows
    )
    benchmark(lambda: fixed_order(pool, 10, 3))


def test_fig6cd_vs_L(report, benchmark):
    answers = _answers()
    report.add("Figure 6c/6d: vs L  (m=8, k=3, D=3, N=%d)" % answers.n)
    time_rows, value_rows = [], []
    for L in (3, 9, 27, 81):
        pool = ClusterPool(answers, L=L)
        floor = lower_bound(pool).avg
        times, values = _row(pool, 3, 3)
        time_rows.append([L, *times])
        value_rows.append([L, *values, "%.4f" % floor])
    report.add("\n(c) runtime (ms) vs L")
    report.table(["L", "Bottom-Up", "Fixed-Order", "Hybrid"], time_rows)
    report.add("\n(d) value vs L")
    report.table(
        ["L", "Bottom-Up", "Fixed-Order", "Hybrid", "LowerBound"], value_rows
    )
    pool = ClusterPool(answers, L=27)
    benchmark(lambda: fixed_order(pool, 3, 3))


def test_fig6ef_vs_D(report, benchmark):
    answers = _answers()
    pool = ClusterPool(answers, L=40)
    floor = lower_bound(pool).avg
    report.add("Figure 6e/6f: vs D  (m=8, k=10, L=40, N=%d)" % answers.n)
    time_rows, value_rows = [], []
    for D in (1, 2, 3, 4, 5, 6):
        times, values = _row(pool, 10, D)
        time_rows.append([D, *times])
        value_rows.append([D, *values, "%.4f" % floor])
    report.add("\n(e) runtime (ms) vs D")
    report.table(["D", "Bottom-Up", "Fixed-Order", "Hybrid"], time_rows)
    report.add("\n(f) value vs D")
    report.table(
        ["D", "Bottom-Up", "Fixed-Order", "Hybrid", "LowerBound"], value_rows
    )
    benchmark(lambda: fixed_order(pool, 10, 3))


def test_fig6gh_vs_m(report, benchmark):
    report.add("Figure 6g/6h: vs m  (k=L=20, D=3)")
    init_rows, time_rows = [], []
    for m in (4, 6, 8, 10):
        answers = movielens_answer_set(
            m=m, having_count_gt=_SWEEP_THRESHOLDS[m]
        )
        pool, init_seconds = measure(lambda: ClusterPool(answers, L=20))
        times, _ = _row(pool, 20, 3)
        init_rows.append([m, answers.n, "%.1f" % (init_seconds * 1e3)])
        time_rows.append([m, *times])
    report.add("\n(g) initialization time (ms) vs m")
    report.table(["m", "N", "init"], init_rows)
    report.add("\n(h) runtime (ms) vs m")
    report.table(["m", "Bottom-Up", "Fixed-Order", "Hybrid"], time_rows)
    answers = movielens_answer_set(m=8, having_count_gt=_SWEEP_THRESHOLDS[8])
    benchmark(lambda: ClusterPool(answers, L=20))
