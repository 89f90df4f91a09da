"""Qualitative comparison with related approaches (Appendix A.5).

Runs the Example 1.1 query answers through smart drill-down, diversified
top-k, DisC diversity, and the lambda-parameterized MMR baseline, next to
our framework's output — reproducing the comparison tables of
Appendix A.5 and their punchline: the baselines either prefer prevalent
but non-discriminative patterns, or return raw elements without *-value
summaries.

Run:  python examples/baselines_comparison.py
"""

from __future__ import annotations

from repro.baselines.disc import disc_greedy
from repro.baselines.diversified_topk import diversified_topk_exact
from repro.baselines.mmr import mmr_select
from repro.baselines.smart_drilldown import smart_drilldown
from repro.core.problem import ProblemInstance
from repro.datasets.loader import example_query_answers


def main() -> None:
    answers = example_query_answers()
    print("Example 1.1 query: n=%d answers\n" % answers.n)

    ours = ProblemInstance(answers, k=4, L=10, D=2).solve("hybrid")
    print("== our framework (k=4, L=10, D=2) ==")
    for cluster in ours.clusters:
        print("  %s  avg=%.3f  covers=%d" % (
            answers.decode(cluster.pattern), cluster.avg, cluster.size))
    print("  objective avg(O) = %.3f" % ours.avg)

    print("\n== smart drill-down on top-10 elements (A.5.1) ==")
    for rule in smart_drilldown(answers, k=4, restrict_to_top=10):
        print("  %s  mcount=%d  avg=%.3f" % (
            answers.decode(rule.pattern), rule.marginal_count,
            rule.marginal_avg))

    print("\n== smart drill-down on all elements (A.5.1) ==")
    for rule in smart_drilldown(answers, k=4):
        print("  %s  mcount=%d  avg=%.3f" % (
            answers.decode(rule.pattern), rule.marginal_count,
            rule.marginal_avg))

    print("\n== diversified top-k on top-10 (A.5.2) ==")
    for rep in diversified_topk_exact(answers, k=4, D=2, L=10):
        print("  %s  score=%.3f  avg-score(<=D-1)=%.3f" % (
            answers.decode(rep.element), rep.score, rep.neighbourhood_avg))

    print("\n== DisC diversity on top-10 (A.5.3) ==")
    for rep in disc_greedy(answers, D=2, L=10):
        print("  %s  score=%.3f  avg-score(<=D)=%.3f" % (
            answers.decode(rep.element), rep.score, rep.neighbourhood_avg))

    print("\n== MMR lambda-parameterized (A.5.4) ==")
    for lam in (0.0, 0.5, 1.0):
        picks = mmr_select(answers, k=4, lam=lam, L=10)
        print("  lambda=%.1f:" % lam)
        for pick in picks:
            print("    %s  score=%.3f" % (
                answers.decode(pick.element), pick.score))

    print("\nNote how only our output exposes *-value patterns whose")
    print("averages exceed the baselines' cluster averages, and avoids")
    print("patterns prevalent among low-valued answers.")


if __name__ == "__main__":
    main()
