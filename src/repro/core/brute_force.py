"""Exact brute-force search and the trivial lower bound (Section 7.1).

The brute-force algorithm explores all feasible cluster subsets and returns
the global Max-Avg optimum.  Even for tiny parameters this is expensive
(the paper reports > 2.5 hours at k=4, L=5, D=3 on their prototype), so the
search below adds sound pruning that preserves exactness:

* Branch on the highest-ranked still-uncovered top-L element; any feasible
  completion must include a cluster covering it, and only pool patterns
  cover top-L elements.
* Prune partial solutions whose optimistic bound cannot beat the incumbent:
  ``avg(A union B) <= max(avg(A), max cluster avg still addable)`` because
  the average of a union never exceeds the max of its parts' averages.
* Once coverage is complete, optional extra clusters are only explored in
  canonical (pattern-sorted) order to avoid enumerating permutations.

Like the greedy algorithms, the search runs on either mask kernel: the
default ``"bitset"`` kernel keeps the covered set as an int mask — set
difference and pruning become machine-word operations, the branching
target is the lowest set bit of the uncovered top-L mask, and
backtracking is free because masks are immutable values — and
``"dense"`` runs the identical search on packed uint64-block masks
(:mod:`repro.core.dense`; it needs a pool built with
``kernel="dense"``).

The trivial **lower bound** baseline is the all-star cluster, feasible for
every (k, L, D); its value is the global average of S.
"""

from __future__ import annotations

from repro.common.errors import InvalidParameterError
from repro.core.bitset import resolve_kernel
from repro.core.cluster import Cluster, comparable, distance
from repro.core.dense import mask_indices
from repro.core.registry import register_algorithm
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution


@register_algorithm(
    "lower-bound",
    cost="bound",
    complexity="O(L): the all-covering root cluster",
    summary="Trivial feasible solution; lower-bounds every objective",
)
def lower_bound(pool: ClusterPool, k: int = 1, D: int = 0) -> Solution:
    """The trivial feasible solution: one all-star cluster covering S.

    It is feasible for every (k, D), so *k* and *D* only give it the
    registry's runner signature."""
    root = pool.root()
    return Solution((root,), root.mask, root.value_sum)


class _Search:
    """Backtracking state for the exact search.

    Candidates are the pool's clusters by descending average, then
    pattern.  The covered union is an immutable mask passed down the
    recursion (no mutate-and-undo), the branch target is the lowest set
    bit of ``top_mask & ~covered``, and marginal value sums run over set
    bits only.  Masks are in the pool's representation — int bitmask or
    packed uint64 blocks — built by :meth:`ClusterPool.as_mask` and read
    back by :func:`~repro.core.dense.mask_indices`, so both kernels find
    the same optimum.
    """

    def __init__(self, pool: ClusterPool, k: int, L: int, D: int) -> None:
        self.pool = pool
        self.k = k
        self.D = D
        self.answers = pool.answers
        self.top_mask = pool.as_mask((1 << L) - 1)
        self.candidates: list[Cluster] = sorted(
            (pool.cluster(p) for p in pool.patterns()),
            key=lambda c: (-c.avg, c.pattern),
        )
        self.max_candidate_avg = (
            max(c.avg for c in self.candidates) if self.candidates else 0.0
        )
        self.by_element: dict[int, list[Cluster]] = {}
        for cluster in self.candidates:
            hits = cluster.mask & self.top_mask
            for index in mask_indices(hits):
                self.by_element.setdefault(index, []).append(cluster)
        self.best_avg = float("-inf")
        self.best: list[Cluster] | None = None
        self.nodes = 0

    def compatible(self, chosen: list[Cluster], cluster: Cluster) -> bool:
        for member in chosen:
            if distance(member.pattern, cluster.pattern) < self.D:
                return False
            if comparable(member.pattern, cluster.pattern):
                return False
        return True

    def record(
        self, chosen: list[Cluster], covered, total: float
    ) -> None:
        count = covered.bit_count()
        if not count:
            return
        avg = total / count
        if avg > self.best_avg + 1e-12:
            self.best_avg = avg
            self.best = list(chosen)

    def extend(
        self,
        chosen: list[Cluster],
        covered,
        total: float,
        next_candidate: int,
    ) -> None:
        self.nodes += 1
        missing = self.top_mask & ~covered
        if not missing:
            self.record(chosen, covered, total)
            if len(chosen) >= self.k:
                return
            current_avg = (
                total / covered.bit_count() if covered else float("-inf")
            )
            if max(current_avg, self.max_candidate_avg) <= self.best_avg + 1e-12:
                return
            for pos in range(next_candidate, len(self.candidates)):
                cluster = self.candidates[pos]
                if not self.compatible(chosen, cluster):
                    continue
                self._descend(chosen, covered, total, cluster, pos + 1)
            return
        if len(chosen) >= self.k:
            return
        current_avg = (
            total / covered.bit_count() if covered else self.max_candidate_avg
        )
        if max(current_avg, self.max_candidate_avg) <= self.best_avg + 1e-12:
            return
        target = next(mask_indices(missing))
        for cluster in self.by_element.get(target, ()):
            if not self.compatible(chosen, cluster):
                continue
            self._descend(chosen, covered, total, cluster, 0)

    def _descend(
        self,
        chosen: list[Cluster],
        covered,
        total: float,
        cluster: Cluster,
        next_candidate: int,
    ) -> None:
        fresh = cluster.mask & ~covered
        chosen.append(cluster)
        self.extend(
            chosen,
            covered | fresh,
            total + self.answers.mask_value_sum(fresh),
            next_candidate,
        )
        chosen.pop()


@register_algorithm(
    "brute-force",
    cost="exact",
    complexity="exponential branch-and-bound over candidate clusters",
    kwargs=("kernel",),
    summary="Section 5 baseline: exact optimum by exhaustive search",
)
def brute_force(
    pool: ClusterPool,
    k: int,
    D: int,
    kernel: str | None = None,
) -> Solution:
    """Exact Max-Avg optimum for (k, L=pool.L, D).

    Exponential time: intended for the small instances of Figure 5 and for
    validating the greedy heuristics in tests.  Falls back to the trivial
    lower bound when no non-trivial feasible solution is found (e.g. the
    NP-hard k < L regimes where none exists).
    """
    if k < 1:
        raise InvalidParameterError("k=%d must be >= 1" % k)
    resolved = resolve_kernel(kernel, n=pool.answers.n)
    if resolved != pool.kernel:
        raise InvalidParameterError(
            "kernel=%r needs cluster masks in its own representation, "
            "but the pool was built with kernel=%r; construct "
            "ClusterPool(..., kernel=%r)" % (resolved, pool.kernel, resolved)
        )
    search = _Search(pool, k, pool.L, D)
    search.extend([], pool.as_mask(0), 0.0, 0)
    if search.best is None:
        return lower_bound(pool)
    return Solution.from_clusters(search.best, pool.answers)
