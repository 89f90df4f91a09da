"""Appendix A.5: qualitative comparison with related approaches.

Regenerates the four comparison tables on the Example 1.1 query answers
(k=4, D=2, L=10): smart drill-down (top-10 and all elements), diversified
top-k, DisC diversity, and lambda-parameterized MMR — next to our
framework's clusters.  The reproduction target is the paper's punchline:

* smart drill-down prefers prevalent patterns that mix high- and
  low-valued answers (its rule averages sit below our cluster averages);
* diversified top-k and DisC return raw elements whose implicit
  neighbourhoods have lower averages than our clusters, and provide no
  ``*``-summaries;
* MMR at lambda=0 is the plain top-k and at higher lambda trades value
  for dispersion, again without summarization.
"""

from __future__ import annotations

from repro.baselines.disc import disc_greedy
from repro.baselines.diversified_topk import diversified_topk_exact
from repro.baselines.mmr import mmr_select
from repro.baselines.smart_drilldown import smart_drilldown
from repro.core.problem import ProblemInstance
from repro.datasets.loader import example_query_answers

from conftest import measure

K, D, L = 4, 2, 10


def _fmt(answers, pattern) -> str:
    return "(%s)" % ", ".join(str(v) for v in answers.decode(pattern))


def test_a5_baseline_comparison(report, benchmark):
    answers = example_query_answers()
    report.add("Appendix A.5 comparison on the Example 1.1 query "
               "(n=%d, k=%d, D=%d, L=%d)" % (answers.n, K, D, L))

    ours, our_seconds = measure(
        lambda: ProblemInstance(answers, k=K, L=L, D=D).solve("hybrid")
    )
    report.add("\n== our framework ==  (%.1f ms)" % (our_seconds * 1e3))
    report.table(
        ["cluster", "avg", "size"],
        [[_fmt(answers, c.pattern), "%.3f" % c.avg, c.size]
         for c in ours.clusters],
    )
    our_min_avg = min(c.avg for c in ours.clusters)

    top_rules = smart_drilldown(answers, k=K, restrict_to_top=L)
    report.add("\n== smart drill-down on top-%d ==" % L)
    report.table(
        ["rule", "mcount", "avg"],
        [[_fmt(answers, r.pattern), r.marginal_count,
          "%.3f" % r.marginal_avg] for r in top_rules],
    )
    all_rules = smart_drilldown(answers, k=K)
    report.add("\n== smart drill-down on all elements ==")
    report.table(
        ["rule", "mcount", "avg"],
        [[_fmt(answers, r.pattern), r.marginal_count,
          "%.3f" % r.marginal_avg] for r in all_rules],
    )
    # The paper's observation: drill-down rules over all elements average
    # below our clusters (they chase coverage, not value).
    assert min(r.marginal_avg for r in all_rules) < our_min_avg

    reps = diversified_topk_exact(answers, k=K, D=D, L=L)
    report.add("\n== diversified top-k on top-%d ==" % L)
    report.table(
        ["element", "score", "avg score (radius D-1)"],
        [[_fmt(answers, r.element), "%.3f" % r.score,
          "%.3f" % r.neighbourhood_avg] for r in reps],
    )

    disc = disc_greedy(answers, D=D, L=L)
    report.add("\n== DisC diversity on top-%d (no size bound) ==" % L)
    report.table(
        ["element", "score", "avg score (radius D)"],
        [[_fmt(answers, r.element), "%.3f" % r.score,
          "%.3f" % r.neighbourhood_avg] for r in disc],
    )

    report.add("\n== MMR lambda-parameterized ==")
    for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
        picks = mmr_select(answers, k=K, lam=lam, L=L)
        report.add("lambda = %.1f" % lam)
        report.table(
            ["element", "score"],
            [[_fmt(answers, p.element), "%.3f" % p.score] for p in picks],
        )
    lam0 = [p.rank for p in mmr_select(answers, k=K, lam=0.0, L=L)]
    assert lam0 == [0, 1, 2, 3], "lambda=0 must be the plain top-k"

    benchmark(lambda: ProblemInstance(answers, k=K, L=L, D=D).solve("hybrid"))
