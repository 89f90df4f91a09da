"""The Fixed-Order greedy algorithm (Algorithm 3) and its variants.

Fixed-Order processes the top-L elements once, in descending value order.
Each element is (a) skipped if already covered, (b) added as a singleton if
the size budget and the distance constraint allow, or (c) greedily merged
into an existing cluster (choosing the merge that maximizes the resulting
solution average).  All constraints hold after every step, so the final
solution is feasible; the search space is linear in L rather than quadratic,
which is why Fixed-Order is the fastest of the three greedy algorithms
(Figure 6a) at some cost in quality (Figure 6b).

The two randomized variants of Section 5.2 — ``random`` (seed the solution
with k random top-L elements) and ``k-means`` (seed with the minimal
covering patterns of a k-modes clustering of the top-L) — are implemented
here as well; the paper finds neither improves on plain Fixed-Order.
"""

from __future__ import annotations

import random as _random
from typing import Iterable, Sequence

from repro.common.errors import InvalidParameterError
from repro.core.cluster import Pattern, lca_many
from repro.core.merge import TARGET_COUNTERS, MergeEngine
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


def _process_ranks(
    engine: MergeEngine, ranks: Iterable[int], k: int, D: int
) -> None:
    """Algorithm 3's loop body for the top-L elements at *ranks*, in that
    order.  A singleton covers its own element only, so a rank already
    in T is skipped by a bit test before its cluster is looked up."""
    singleton = engine.pool.singleton
    is_covered = engine.is_covered
    for index in ranks:
        if not is_covered(index):
            engine.place(singleton(index), k, D)


def _engine(
    pool: ClusterPool, use_delta: bool = True, argmax: str | None = None
) -> MergeEngine:
    """An empty engine for one Fixed-Order stream, its merge-target
    counters (:data:`~repro.core.merge.TARGET_COUNTERS`) seeded at zero so
    the run reports them even when nothing merges."""
    engine = MergeEngine(pool, (), use_delta=use_delta, argmax=argmax)
    engine.stats.update(dict.fromkeys(TARGET_COUNTERS, 0.0))
    return engine


@register_algorithm(
    "fixed-order",
    cost="greedy",
    complexity="O(L * k) incoming-element processing",
    # No "argmax": plain Fixed-Order runs only the merge-target argmax,
    # which picks the same target in bound order ("heap", resolved per
    # instance) as in full (scan); the two differ only in the target_*
    # counters.  The ablation calls fixed_order(..., argmax="scan").
    kwargs=("use_delta", "size_budget"),
    summary="Algorithm 3: stream the top-L in value order into <= k clusters",
)
def fixed_order(
    pool: ClusterPool,
    k: int,
    D: int,
    use_delta: bool = True,
    size_budget: int | None = None,
    argmax: str | None = None,
) -> Solution:
    """Run Algorithm 3 on the pool's (S, L) with parameters (k, D).

    *size_budget* overrides the cluster budget used while processing (the
    Hybrid algorithm passes ``c * k`` here); the default is k itself.
    """
    _validate(pool, k, D)
    budget = k if size_budget is None else size_budget
    if budget < 1:
        raise InvalidParameterError("size budget must be >= 1")
    engine = fixed_order_engine(
        pool, budget, D, use_delta=use_delta, argmax=argmax
    )
    return floor_at_root(engine.snapshot(), pool)


def fixed_order_engine(
    pool: ClusterPool,
    budget: int,
    D: int,
    use_delta: bool = True,
    argmax: str | None = None,
) -> MergeEngine:
    """Like :func:`fixed_order` but return the live engine (Hybrid and the
    precomputation pipeline continue merging from this state).

    ``argmax`` picks the merge-target evaluation order here (bound order
    under ``"heap"``, every LCA under ``"scan"``), and the returned
    engine's Bottom-Up continuation (Hybrid phase 2, the precompute
    sweeps) inherits it.
    """
    _validate(pool, max(budget, 1), D)
    engine = _engine(pool, use_delta=use_delta, argmax=argmax)
    _process_ranks(engine, pool.answers.top(pool.L), budget, D)
    return engine


@register_algorithm(
    "random-fixed-order",
    cost="heuristic",
    complexity="O(L * k), randomized prefix",
    kwargs=("seed",),
    summary="Section 5.2: process k random top-L elements before the rest",
)
def random_fixed_order(
    pool: ClusterPool, k: int, D: int, seed: int = 0
) -> Solution:
    """random-Fixed-Order: process k random top-L elements first, then all
    top-L elements in descending-value order (Section 5.2)."""
    _validate(pool, k, D)
    rng = _random.Random(seed)
    top = pool.answers.top(pool.L)
    chosen = rng.sample(top, min(k, len(top)))
    engine = _engine(pool)
    _process_ranks(engine, chosen, k, D)
    _process_ranks(engine, top, k, D)
    return floor_at_root(engine.snapshot(), pool)


def minimal_covering_pattern(elements: Sequence[Pattern]) -> Pattern:
    """The minimal pattern covering all *elements*: attribute-wise common
    value, else ``*`` — i.e. the LCA of the elements."""
    return lca_many(elements)


@register_algorithm(
    "kmeans-fixed-order",
    cost="heuristic",
    complexity="O(L * k) plus a k-modes clustering pass",
    kwargs=("seed", "max_iterations"),
    summary="Section 5.2: seed Fixed-Order with k-modes group patterns",
)
def kmeans_fixed_order(
    pool: ClusterPool,
    k: int,
    D: int,
    seed: int = 0,
    max_iterations: int = 20,
) -> Solution:
    """k-means-Fixed-Order: cluster the top-L elements with k-modes (random
    seeding), cover each resulting group with its minimal pattern, process
    those k patterns first, then the top-L elements (Section 5.2)."""
    from repro.baselines.kmodes import kmodes

    _validate(pool, k, D)
    top = pool.answers.top(pool.L)
    points = [pool.answers.elements[i] for i in top]
    assignment = kmodes(points, k=min(k, len(points)), seed=seed,
                        max_iterations=max_iterations)
    groups: dict[int, list[Pattern]] = {}
    for point, label in zip(points, assignment.labels):
        groups.setdefault(label, []).append(point)
    seed_patterns = sorted(
        minimal_covering_pattern(members) for members in groups.values()
    )
    engine = _engine(pool)
    for pattern in seed_patterns:
        seed_cluster = pool.cluster(pattern)
        if not engine.is_fully_covered(seed_cluster):
            engine.place(seed_cluster, k, D)
    _process_ranks(engine, top, k, D)
    return floor_at_root(engine.snapshot(), pool)
