"""A literal reference engine: Bottom-Up, Fixed-Order and Hybrid from
Section 5, written straight from their definitions over element sets.

The covered union T is a set of element indices, and each cluster's
coverage is the frozenset :meth:`~repro.core.semilattice.ClusterPool.coverage`
returns.  Every greedy round prices each distinct LCA (least common
ancestor) of its candidate pairs from ``cov(LCA) \\ T``, summing values
in ascending index order, and breaks ties on the smallest ``(-avg, LCA
pattern, member patterns)``, the key of
:class:`~repro.core.merge.MergeEngine`.  There is no delta cache, pair
table, heap or mask: none of Section 6.3's optimizations.

It is the merge engine's test oracle (the engine must return the same
patterns, covered set and value sum whenever value sums are exact) and
the baseline of the kernel ablation (``fig8_kernel_core`` in
``benchmarks/run_bench.py``).  It is not registered, so no request
reaches it.

>>> from repro.core.answers import AnswerSet
>>> from repro.core.semilattice import ClusterPool
>>> answers = AnswerSet.from_rows(
...     [("a", "x"), ("a", "y"), ("b", "x")], [4.0, 3.0, 1.0])
>>> solution = bottom_up(ClusterPool(answers, L=2), k=1, D=0)
>>> solution.size, solution.avg   # (a, *): (4 + 3) / 2
(1, 3.5)
"""

from __future__ import annotations

from typing import Iterable

from repro.core.bitset import bitset_of
from repro.core.cluster import Pattern, distance, lca, strictly_covers
from repro.core.hybrid import DEFAULT_POOL_FACTOR
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution, floor_at_root


class _State:
    """A solution O (a set of patterns) and its covered union T."""

    def __init__(self, pool: ClusterPool) -> None:
        self.pool = pool
        self.members: set[Pattern] = set()
        self.covered: set[int] = set()
        self.total = 0.0

    def _fresh(self, pattern: Pattern) -> tuple[list[int], float]:
        """cov(*pattern*) \\ T in ascending order, and its value sum."""
        fresh = sorted(self.pool.coverage(pattern) - self.covered)
        values = self.pool.answers.values
        total = 0.0
        for index in fresh:
            total += values[index]
        return fresh, total

    def price(self, pattern: Pattern) -> float:
        """avg(O with *pattern* added)."""
        fresh, total = self._fresh(pattern)
        return (self.total + total) / (len(self.covered) + len(fresh))

    def best(self, firsts: dict[Pattern, object]) -> Pattern:
        """The LCA of *firsts* that maximizes avg(O), ties to the smallest."""
        return min(firsts, key=lambda joined: (-self.price(joined), joined))

    def merge(self, merged: Pattern, replaced: Iterable[Pattern]) -> None:
        """Add *merged*; drop *replaced* and every member it strictly covers."""
        fresh, total = self._fresh(merged)
        self.total += total
        self.covered.update(fresh)
        replaced = set(replaced)
        self.members = {
            member for member in self.members
            if member not in replaced and not strictly_covers(merged, member)
        }
        self.members.add(merged)

    def solution(self) -> Solution:
        clusters = sorted(
            (self.pool.cluster(pattern) for pattern in self.members),
            key=lambda cluster: (-cluster.avg, cluster.pattern),
        )
        return floor_at_root(
            Solution(tuple(clusters), bitset_of(self.covered), self.total),
            self.pool,
        )


def _merge_best_pair(state: _State, max_distance: int | None) -> bool:
    """Merge the pair of O at distance < *max_distance* (any pair for
    None) whose merge maximizes avg(O); False when there is none."""
    ordered = sorted(state.members)
    firsts: dict[Pattern, tuple[Pattern, Pattern]] = {}
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            if max_distance is None or distance(first, second) < max_distance:
                firsts.setdefault(lca(first, second), (first, second))
    if not firsts:
        return False
    joined = state.best(firsts)
    state.merge(joined, firsts[joined])
    return True


def _merge_down(state: _State, k: int, D: int) -> None:
    """Algorithm 1's two phases: merge the best pair at distance < D
    while one exists, then the best pair while O has more than k."""
    while _merge_best_pair(state, D):
        pass
    while len(state.members) > k and _merge_best_pair(state, None):
        pass


def _stream(state: _State, budget: int, D: int) -> None:
    """Algorithm 3: each uncovered top-L element, in descending value
    order, joins O while O has room and no member is at distance < D;
    otherwise it merges with the member (among those near ones while O
    has room) whose LCA with it maximizes avg(O)."""
    answers = state.pool.answers
    for index in answers.top(state.pool.L):
        if index in state.covered:
            continue
        element = answers.elements[index]
        members = sorted(state.members)
        if len(members) < budget:
            members = [m for m in members if distance(m, element) < D]
            if not members:
                state.merge(element, ())
                continue
        firsts: dict[Pattern, Pattern] = {}
        for member in members:
            firsts.setdefault(lca(member, element), member)
        joined = state.best(firsts)
        state.merge(joined, (firsts[joined],))


def bottom_up(pool: ClusterPool, k: int, D: int) -> Solution:
    """Algorithm 1 from the top-L singletons."""
    state = _State(pool)
    for index in pool.answers.top(pool.L):
        state.merge(pool.answers.elements[index], ())
    _merge_down(state, k, D)
    return state.solution()


def fixed_order(pool: ClusterPool, k: int, D: int) -> Solution:
    """Algorithm 3 with budget k."""
    state = _State(pool)
    _stream(state, k, D)
    return state.solution()


def hybrid(pool: ClusterPool, k: int, D: int) -> Solution:
    """Algorithm 4: Algorithm 3 with budget c * k, then Algorithm 1."""
    state = _State(pool)
    _stream(state, DEFAULT_POOL_FACTOR * k, D)
    _merge_down(state, k, D)
    return state.solution()
