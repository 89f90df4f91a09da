"""Alternative objectives: Min-Size (footnote 5) next to Max-Avg.

The paper's objective is **Max-Avg** — maximize the average value of the
covered elements.  Footnote 5 mentions an alternative, **Min-Size**, that
minimizes the number of *redundant* elements (covered elements outside the
top-L), and reports it less useful for summarization because it misses
global properties covering many high-valued elements.  This module makes
that comparison reproducible:

* :func:`max_avg` / :func:`min_size` score a solution under each objective;
* :func:`min_size_greedy` is a Bottom-Up-style heuristic that merges the
  pair introducing the fewest redundant elements;
* the ablation benchmark contrasts the two on the same instances.
"""

from __future__ import annotations

from repro.common.errors import InvalidParameterError
from repro.core.cluster import Cluster, lca
from repro.core.merge import MergeEngine
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution


def max_avg(solution: Solution) -> float:
    """The paper's objective: average value of the covered union."""
    return solution.avg


def min_size(solution: Solution, L: int) -> int:
    """Footnote 5's objective (to minimize): redundant covered elements."""
    return sum(1 for index in solution.covered if index >= L)


def min_size_greedy(
    pool: ClusterPool,
    k: int,
    D: int,
) -> Solution:
    """Bottom-Up with merge selection by fewest new redundant elements.

    Identical two-phase structure to Algorithm 1; only the greedy criterion
    changes: among candidate pairs, merge the one whose LCA adds the fewest
    elements outside the top-L (ties broken by higher resulting average,
    then pattern order, keeping runs deterministic).
    """
    if k < 1:
        raise InvalidParameterError("k=%d must be >= 1" % k)
    L = pool.L
    engine = MergeEngine(
        pool, (pool.singleton(i) for i in pool.answers.top(L))
    )

    def best_by_redundancy(
        pairs: list[tuple[Cluster, Cluster]]
    ) -> tuple[Cluster, Cluster]:
        best = None
        best_key = None
        for c1, c2 in pairs:
            merged = pool.cluster(lca(c1.pattern, c2.pattern))
            redundant = sum(
                1
                for index in merged.covered
                if index >= L and not engine.is_covered(index)
            )
            new_avg, _ = engine.evaluate_pair(c1, c2)
            key = (redundant, -new_avg, merged.pattern, c1.pattern)
            if best_key is None or key < best_key:
                best_key = key
                best = (c1, c2)
        assert best is not None
        return best

    while True:
        pairs = engine.violating_pairs(D)
        if not pairs:
            break
        engine.merge(*best_by_redundancy(pairs))
    while engine.size > k:
        engine.merge(*best_by_redundancy(engine.all_pairs()))
    return engine.snapshot()
