"""The Bottom-Up greedy algorithm (Algorithm 1) and its two variants.

Bottom-Up starts from the L singleton clusters of the top-L elements (which
satisfy coverage and incomparability but possibly not size or distance) and
greedily merges:

* **Phase 1** repeatedly merges a pair at distance < D, chosen to maximize
  the post-merge objective, until no violating pair remains.  By the
  monotonicity of the distance function under generalization
  (Proposition 4.2) merging never *creates* violations, so this terminates.
* **Phase 2** merges best pairs (over all pairs) until at most k clusters
  remain.

Both phases preserve the three invariants of Section 5.1: coverage of the
top-L, incomparability, and a never-decreasing minimum pairwise distance.

The two variants evaluated in the paper (and found comparable-or-worse) are
also provided: seeding at semilattice level D-1 instead of singletons, and
greedy selection by the merged *cluster's own* average instead of the
solution average.

All entry points accept ``kernel`` (``"bitset"``, the default, or
``"dense"``) selecting the mask representation of
:class:`~repro.core.merge.MergeEngine`, and ``argmax`` (``"auto"``,
``"heap"``, ``"scan"``) selecting the per-round greedy argmax — the lazy
upper-bound heap or the exhaustive LCA-group scan.  All combinations
produce identical solutions (property-tested).
"""

from __future__ import annotations

from repro.common.errors import InvalidParameterError
from repro.core.cluster import Cluster, ancestors_at_level
from repro.core.merge import MergeEngine
from repro.core.registry import register_algorithm
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution, floor_at_root


def _validate(pool: ClusterPool, k: int, D: int) -> None:
    if k < 1:
        raise InvalidParameterError("k=%d must be >= 1" % k)
    if not 0 <= D <= pool.answers.m + 1:
        raise InvalidParameterError(
            "D=%d out of range [0, %d]" % (D, pool.answers.m + 1)
        )


@register_algorithm(
    "bottom-up",
    cost="greedy",
    complexity="O(L^2) merge candidates per step",
    kwargs=("use_delta", "kernel", "argmax"),
    summary="Algorithm 1: greedy pairwise merging from the top-L singletons",
)
def bottom_up(
    pool: ClusterPool,
    k: int,
    D: int,
    use_delta: bool = True,
    kernel: str | None = None,
    argmax: str | None = None,
) -> Solution:
    """Run Algorithm 1 on the pool's (S, L) with parameters (k, D).

    Always returns a feasible solution: in the worst case everything merges
    into the all-star root, which satisfies every constraint.
    """
    _validate(pool, k, D)
    engine = MergeEngine(
        pool,
        (pool.singleton(i) for i in pool.answers.top(pool.L)),
        use_delta=use_delta,
        kernel=kernel,
        argmax=argmax,
    )
    run_distance_phase(engine, D)
    run_size_phase(engine, k)
    return floor_at_root(engine.snapshot(), pool)


def run_distance_phase(engine: MergeEngine, D: int) -> None:
    """Phase 1: merge best violating pair until min distance >= D."""
    while True:
        pair = engine.best_violating_pair(D)
        if pair is None:
            return
        engine.merge(*pair)


def run_size_phase(engine: MergeEngine, k: int) -> None:
    """Phase 2: merge best pair (all pairs) until at most k clusters."""
    while engine.size > k:
        pair = engine.best_any_pair()
        if pair is None:
            return
        engine.merge(*pair)


@register_algorithm(
    "bottom-up-level",
    cost="greedy",
    complexity="O(L^2) after seeding at semilattice level D-1",
    kwargs=("use_delta", "kernel", "argmax"),
    summary="Section 5.1 variant (i): seed at level D-1 ancestors",
)
def bottom_up_level_start(
    pool: ClusterPool,
    k: int,
    D: int,
    use_delta: bool = True,
    kernel: str | None = None,
    argmax: str | None = None,
) -> Solution:
    """Variant (i) of Section 5.1: seed at semilattice level D-1.

    Any two *distinct* clusters at level D-1 are automatically at distance
    >= D (their star sets alone contribute D-1, plus at least one more
    position where they differ), so the distance phase is unnecessary; only
    the size phase runs.  For each top-L element we pick its level-(D-1)
    ancestor with the highest average value.
    """
    _validate(pool, k, D)
    seed_level = max(D - 1, 0)
    if seed_level > pool.answers.m:
        raise InvalidParameterError(
            "D=%d too large: level %d exceeds m=%d"
            % (D, seed_level, pool.answers.m)
        )
    seeds: dict[tuple[int, ...], Cluster] = {}
    for index in pool.answers.top(pool.L):
        element = pool.answers.elements[index]
        candidates = [
            pool.cluster(p) for p in ancestors_at_level(element, seed_level)
        ]
        best = min(candidates, key=lambda c: (-c.avg, c.pattern))
        seeds[best.pattern] = best
    engine = MergeEngine(
        pool, seeds.values(), use_delta=use_delta, kernel=kernel,
        argmax=argmax,
    )
    # Seeding at a uniform level guarantees pairwise distance >= D and
    # incomparability, but phase 1 is still run defensively for D where the
    # level argument does not apply (e.g. D = 0 collapses to singletons).
    run_distance_phase(engine, D)
    run_size_phase(engine, k)
    return floor_at_root(engine.snapshot(), pool)


@register_algorithm(
    "bottom-up-pairwise",
    cost="greedy",
    complexity="O(L^2) with pairwise-LCA merge scoring",
    kwargs=("kernel",),
    summary="Section 5.1 variant (ii): merge the pair with the best LCA avg",
)
def bottom_up_pairwise_avg(
    pool: ClusterPool,
    k: int,
    D: int,
    kernel: str | None = None,
) -> Solution:
    """Variant (ii) of Section 5.1: pick the pair whose *LCA cluster* has
    maximum average value, rather than maximizing the overall solution
    average after the merge."""
    _validate(pool, k, D)
    engine = MergeEngine(
        pool,
        (pool.singleton(i) for i in pool.answers.top(pool.L)),
        kernel=kernel,
    )

    def best_by_lca_avg(
        max_distance: int | None,
    ) -> tuple[Cluster, Cluster] | None:
        best = None
        best_key = None
        for c1, c2, merged in engine.iter_pairs(max_distance):
            key = (-merged.avg, merged.pattern, c1.pattern, c2.pattern)
            if best_key is None or key < best_key:
                best_key = key
                best = (c1, c2)
        return best

    while True:
        pair = best_by_lca_avg(D)
        if pair is None:
            break
        engine.merge(*pair)
    while engine.size > k:
        pair = best_by_lca_avg(None)
        if pair is None:
            break
        engine.merge(*pair)
    return floor_at_root(engine.snapshot(), pool)
