"""Solutions: sets of clusters, the Max-Avg objective, feasibility checking.

Definition 4.1 of the paper: a subset O of clusters is *feasible* for
``(k, L, D)`` iff (1) ``|O| <= k``; (2) O covers the top-L elements; (3) any
two clusters of O are at distance >= D; (4) no cluster of O covers another
(antichain / incomparability).  The objective **Max-Avg** is the average
value of the union of elements covered by O — each element counts once, so
overlapping clusters gain nothing by double-covering high values.

A :class:`Solution` carries the covered union as a mask (popcount and
value sum are all the objective needs); like a cluster's, its element
set is built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from repro.core.answers import AnswerSet
from repro.core.cluster import Cluster, distance, strictly_covers
from repro.core.dense import mask_indices


@dataclass(frozen=True)
class Solution:
    """An (immutable) output of the summarization algorithms.

    ``clusters`` are sorted by descending average value (display order used
    throughout the paper's figures); ``mask`` is the union of the clusters'
    masks (the covered element set, in their representation) and
    ``value_sum`` the sum of its values, so that ``avg`` — the Max-Avg
    objective — is O(1).  The ``covered`` frozenset of element indices is
    derived from the mask on first access only.

    ``stats`` optionally carries run counters from the producing
    :class:`~repro.core.merge.MergeEngine` (e.g. how many LCA groups the
    greedy argmax evaluated vs. how many a full scan would have); it is
    excluded from equality so solutions from different argmax modes still
    compare equal when their clusters agree.  ``mask`` is excluded too:
    the clusters determine the covered union, and kernels differ in mask
    representation.
    """

    clusters: tuple[Cluster, ...]
    mask: Any = field(compare=False, repr=False)
    value_sum: float
    stats: Mapping[str, float] | None = field(
        default=None, compare=False, repr=False
    )

    @cached_property
    def covered(self) -> frozenset[int]:
        """The covered element indices (derived from ``mask``)."""
        return frozenset(mask_indices(self.mask))

    @property
    def covered_count(self) -> int:
        """Number of covered elements: the mask's popcount."""
        return self.mask.bit_count()

    @property
    def size(self) -> int:
        """Number of clusters, |O|."""
        return len(self.clusters)

    @property
    def avg(self) -> float:
        """The Max-Avg objective value, avg(O)."""
        count = self.covered_count
        if not count:
            raise ValueError("avg of a solution covering no elements")
        return self.value_sum / count

    def patterns(self) -> list[tuple[int, ...]]:
        return [c.pattern for c in self.clusters]

    @staticmethod
    def from_clusters(clusters: Iterable[Cluster], answers: AnswerSet) -> "Solution":
        """Assemble a Solution: the clusters' masks OR-ed into the covered
        union, whose values are summed in ascending index order."""
        ordered = sorted(clusters, key=lambda c: (-c.avg, c.pattern))
        union = ordered[0].mask if ordered else 0
        for cluster in ordered[1:]:
            union = union | cluster.mask
        return Solution(tuple(ordered), union, answers.mask_value_sum(union))

    def describe(self, answers: AnswerSet) -> str:
        """Two-layer rendering in the style of Figure 1b/1c."""
        lines = []
        for cluster in self.clusters:
            decoded = (
                answers.decode(cluster.pattern)
                if answers.codec is not None
                else cluster.pattern
            )
            rendered = ", ".join(str(v) for v in decoded)
            lines.append("(%s)  avg=%.4f  size=%d" % (rendered, cluster.avg, cluster.size))
        return "\n".join(lines)


def floor_at_root(solution: Solution, pool) -> Solution:
    """Never return a summary worse than the trivial all-star solution.

    The root cluster (all ``*``) is feasible for every (k >= 1, L, D) —
    one cluster, full coverage, no pairs — and its average value
    lower-bounds every objective.  A greedy run that is *forced* into
    merges (small k, large D) can end on a non-root cluster whose
    average is below that floor; this guard swaps in the root solution
    in that case, preserving the run's ``stats``.  Hypothesis found the
    original violation: with k=1 the last merge can land on a pattern
    covering a low-valued slice instead of generalizing all the way up.
    """
    root = pool.root()
    if not root.size or not solution.covered_count:
        return solution
    if solution.avg >= root.avg:
        return solution
    return Solution((root,), root.mask, root.value_sum, stats=solution.stats)


def redundant_elements(solution: Solution, answers: AnswerSet, L: int) -> set[int]:
    """Covered elements outside the top-L (Section 4.1's 'redundant' picks)."""
    top = set(answers.top(L))
    return set(solution.covered) - top


def check_feasibility(
    solution: Solution,
    answers: AnswerSet,
    k: int,
    L: int,
    D: int,
) -> list[str]:
    """Return the list of violated constraints (empty iff feasible).

    Checks the four conditions of Definition 4.1 and reports each violation
    with enough detail to debug an algorithm that produced it.
    """
    violations: list[str] = []
    if solution.size > k:
        violations.append(
            "size: %d clusters > k=%d" % (solution.size, k)
        )
    uncovered = [i for i in answers.top(L) if i not in solution.covered]
    if uncovered:
        violations.append(
            "coverage: top-L ranks not covered (0-based): %r" % (uncovered,)
        )
    clusters: Sequence[Cluster] = solution.clusters
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            d = distance(clusters[i].pattern, clusters[j].pattern)
            if d < D:
                violations.append(
                    "distance: d(%s, %s) = %d < D=%d"
                    % (clusters[i], clusters[j], d, D)
                )
    for i in range(len(clusters)):
        for j in range(len(clusters)):
            if i != j and strictly_covers(
                clusters[i].pattern, clusters[j].pattern
            ):
                violations.append(
                    "incomparability: %s covers %s"
                    % (clusters[i], clusters[j])
                )
    return violations


def is_feasible(
    solution: Solution, answers: AnswerSet, k: int, L: int, D: int
) -> bool:
    """True iff *solution* satisfies Definition 4.1 for (k, L, D)."""
    return not check_feasibility(solution, answers, k, L, D)
