"""Figure 9: scalability on the TPC-DS-like store_sales workload.

Paper setup: N = 47,361 aggregate answers from store_sales, k=20, D=2,
L in {500, 1000, 2000}; single runs vs precomputation.  Expected shape:
initialization grows with L but stays interactive; algorithm time grows
with L; retrieval stays in milliseconds; the whole pipeline remains usable
at tens of thousands of answers.

Scaling note: the pure-Python default is N = 20,000 (set REPRO_TPCDS_FULL=1
to run the paper's exact N = 47,361); the measured trend across L is the
reproduction target.
"""

from __future__ import annotations

import os

from repro.core.hybrid import hybrid
from repro.core.semilattice import ClusterPool
from repro.datasets.tpcds import tpcds_answer_set
from repro.interactive.precompute import SolutionStore

from conftest import measure

N_GROUPS = 47_361 if os.environ.get("REPRO_TPCDS_FULL") else 20_000
L_VALUES = (500, 1000, 2000)


def test_fig9_tpcds_scalability(report, benchmark):
    answers = tpcds_answer_set(n_groups=N_GROUPS, m=6, seed=7)
    report.add("Figure 9: TPC-DS store_sales scalability "
               "(k=20, D=2, N=%d)" % answers.n)
    single_rows = []
    precompute_rows = []
    store = None
    for L in L_VALUES:
        pool, init_seconds = measure(
            lambda: ClusterPool(answers, L=L)
        )
        solution, single_seconds = measure(lambda: hybrid(pool, 20, 2))
        single_rows.append([
            L, "%.2f" % init_seconds, "%.2f" % single_seconds,
            "%.2f" % solution.avg,
        ])
        store, sweep_seconds = measure(
            lambda: SolutionStore(pool, (10, 20), [2])
        )
        _, retrieve_seconds = measure(lambda: store.retrieve(20, 2))
        precompute_rows.append([
            L, "%.2f" % init_seconds, "%.2f" % sweep_seconds,
            "%.2f" % (retrieve_seconds * 1e3),
        ])
    report.add("\n(a) single run")
    report.table(["L", "init (s)", "algo (s)", "avg value"], single_rows)
    report.add("\n(b) with precomputation")
    report.table(
        ["L", "init (s)", "precompute algo (s)", "retrieval (ms)"],
        precompute_rows,
    )
    assert store is not None
    benchmark(lambda: store.retrieve(15, 2))
