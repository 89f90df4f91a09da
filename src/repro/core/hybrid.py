"""The Hybrid greedy algorithm (Section 5.3).

Hybrid runs Fixed-Order first, but with an enlarged budget of ``c * k``
clusters (``c > 1`` a small constant; the paper leaves it unspecified and we
default to 2).  Covering the top-L with the larger pool is fast and cheap;
the quadratic Bottom-Up machinery then only has to merge the ``c * k``
candidates down to k, recovering most of Bottom-Up's quality at a fraction
of its cost.  The intermediate state after the Fixed-Order phase is also the
seed for the incremental (k, D)-sweep precomputation of Section 6.2.
"""

from __future__ import annotations

from repro.common.errors import InvalidParameterError
from repro.core.bottom_up import run_distance_phase, run_size_phase
from repro.core.fixed_order import fixed_order_engine
from repro.core.merge import MergeEngine
from repro.core.registry import register_algorithm
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution, floor_at_root

#: Default candidate-pool multiplier c (Section 5.3 requires c > 1).
DEFAULT_POOL_FACTOR = 2


@register_algorithm(
    "hybrid",
    cost="greedy",
    complexity="Fixed-Order with budget c*k, then Bottom-Up",
    kwargs=("pool_factor", "use_delta", "argmax"),
    summary="Algorithm 4: the paper's recommended two-phase algorithm",
)
def hybrid(
    pool: ClusterPool,
    k: int,
    D: int,
    pool_factor: int = DEFAULT_POOL_FACTOR,
    use_delta: bool = True,
    argmax: str | None = None,
) -> Solution:
    """Run Hybrid for (k, D) on the pool's (S, L)."""
    engine = hybrid_first_phase(
        pool, k, D, pool_factor, use_delta=use_delta, argmax=argmax
    )
    run_distance_phase(engine, D)
    run_size_phase(engine, k)
    return floor_at_root(engine.snapshot(), pool)


def hybrid_first_phase(
    pool: ClusterPool,
    k: int,
    D: int,
    pool_factor: int = DEFAULT_POOL_FACTOR,
    use_delta: bool = True,
    argmax: str | None = None,
) -> MergeEngine:
    """The Fixed-Order phase with budget ``c * k``; returns the live engine.

    The distance constraint is already maintained during this phase, so the
    subsequent Bottom-Up phase usually has no phase-1 work left; it is still
    run for safety (it is a no-op when no pair violates D).
    """
    if pool_factor < 1:
        raise InvalidParameterError(
            "pool_factor=%d must be >= 1" % pool_factor
        )
    budget = max(pool_factor * k, k)
    return fixed_order_engine(
        pool, budget, D, use_delta=use_delta, argmax=argmax
    )
