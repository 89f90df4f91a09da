"""Figure 16 + Appendix A.7.3: comparison-visualization placement quality.

For consecutive solution pairs (k, (L1, L2)) in {(5, (8, 10)),
(10, (15, 20)), (20, (30, 40))} at D=2, measures the total weighted
distance (Definition A.3) and the number of band crossings for the
optimized (bipartite-matching) ordering versus the default by-value
ordering — plus the matching-vs-brute-force timing comparison the paper
reports (matching < 10 ms, brute force > 2 s; brute force is run at k=7
here, 5040 permutations, to stay in laptop budget).
"""

from __future__ import annotations

from repro.core.problem import ProblemInstance
from repro.datasets.loader import synthetic_answer_set
from repro.viz.comparison import build_comparison, overlap_matrix
from repro.viz.placement import (
    brute_force_ordering,
    default_ordering,
    optimal_ordering,
    total_distance,
)

from conftest import measure

SETTINGS = ((5, (8, 10)), (10, (15, 20)), (20, (30, 40)))
D = 2


def _answers():
    return synthetic_answer_set(2087, m=6, domain_size=6, seed=2)


def test_fig16_placement_quality(report, benchmark):
    answers = _answers()
    report.add("Figure 16: matched vs default visualization "
               "(D=%d, N=%d)" % (D, answers.n))
    distance_rows = []
    crossing_rows = []
    view = None
    for k, (l_old, l_new) in SETTINGS:
        old = ProblemInstance(answers, k=k, L=l_old, D=D).solve()
        new = ProblemInstance(answers, k=k, L=l_new, D=D).solve()
        view = build_comparison(old, new, answers, L=l_new)
        distance_rows.append(
            [k, view.matched_distance, view.default_distance]
        )
        crossing_rows.append(
            [k, view.matched_crossings, view.default_crossings]
        )
        assert view.matched_distance <= view.default_distance
    report.add("\n(a) total weighted distance")
    report.table(["clusters k", "matched viz", "default viz"], distance_rows)
    report.add("\n(b) crossings among bands")
    report.table(["clusters k", "matched viz", "default viz"], crossing_rows)
    assert view is not None
    benchmark(
        lambda: optimal_ordering(
            view.overlap, default_ordering(len(view.old_boxes))
        )
    )


def test_a73_matching_vs_brute_force_timing(report, benchmark):
    answers = _answers()
    report.add("Appendix A.7.3: bipartite matching vs brute-force "
               "placement (k=7, L=15 -> 20, D=%d)" % D)
    old = ProblemInstance(answers, k=7, L=15, D=D).solve()
    new = ProblemInstance(answers, k=7, L=20, D=D).solve()
    overlap = overlap_matrix(old, new)
    pa = default_ordering(len(old.clusters))
    matched, match_seconds = measure(lambda: optimal_ordering(overlap, pa))
    brute, brute_seconds = measure(
        lambda: brute_force_ordering(overlap, pa)
    )
    assert total_distance(overlap, pa, matched) == total_distance(
        overlap, pa, brute
    ), "matching must be exactly optimal"
    report.table(
        ["method", "seconds", "total distance"],
        [
            ["bipartite matching", "%.4f" % match_seconds,
             total_distance(overlap, pa, matched)],
            ["brute force (%d perms)" % _factorial(len(new.clusters)),
             "%.4f" % brute_seconds,
             total_distance(overlap, pa, brute)],
        ],
    )
    report.add("speedup: %.0fx" % (brute_seconds / max(match_seconds, 1e-9)))
    benchmark(lambda: optimal_ordering(overlap, pa))


def _factorial(n: int) -> int:
    result = 1
    for i in range(2, n + 1):
        result *= i
    return result
