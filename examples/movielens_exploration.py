"""The Example 1.1 walkthrough on the synthetic MovieLens dataset.

Reproduces the paper's running example end to end: generate the universal
RatingTable, run the adventure-genre aggregate query through the SQL front
end, display the top/bottom answers (Figure 1a), summarize with k=4, L=8,
D=2 (Figure 1b), expand the clusters (Figure 1c), and then compare against
the k=3 solution with the Appendix A.7 comparison view (Figure 13).

Run:  python examples/movielens_exploration.py
"""

from __future__ import annotations

from repro.core.problem import ProblemInstance
from repro.datasets.loader import example_query_answers
from repro.interactive import ExplorationSession
from repro.viz.comparison import build_comparison


def main() -> None:
    print("generating synthetic MovieLens and running the Example 1.1 query...")
    answers = example_query_answers()
    print("query returned n=%d groups over m=%d attributes\n" % (
        answers.n, answers.m))

    print("top-8 and bottom-3 answers (Figure 1a):")
    for rank in list(range(8)):
        print("  #%2d %s  val=%.2f" % (
            rank + 1, answers.decode(answers.elements[rank]),
            answers.values[rank]))
    print("   ...")
    for rank in range(answers.n - 3, answers.n):
        print("  #%2d %s  val=%.2f" % (
            rank + 1, answers.decode(answers.elements[rank]),
            answers.values[rank]))

    session = ExplorationSession(answers)
    timed = session.solve(k=4, L=8, D=2, algorithm="hybrid")
    print("\nclusters for k=4, L=8, D=2 (Figure 1b) "
          "[init %.0f ms, algo %.0f ms]:" % (
              timed.init_seconds * 1e3, timed.algo_seconds * 1e3))
    print(session.describe(timed.solution))

    print("\nexpanded second layer (Figure 1c):")
    print(session.describe(timed.solution, expand_all=True))

    smaller = ProblemInstance(answers, k=3, L=8, D=2).solve("hybrid")
    print("\nchanging k=4 -> k=3 redistributes the clusters (Figure 13):")
    view = build_comparison(timed.solution, smaller, answers, L=8)
    print(view.render_ascii())

    print("\nparameter guidance (Figure 2) for L=15:")
    guidance = session.guidance(L=15, k_range=(2, 15), d_values=[1, 2, 3, 4])
    print(guidance.render_ascii(width=56, height=12))
    for D in (1, 2):
        print("knee points for D=%d: %s" % (D, guidance.knee_points(D)))
    print("overlapping D bundles: %s" % guidance.overlapping_distance_bundles())


if __name__ == "__main__":
    main()
