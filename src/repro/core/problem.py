"""Problem instances: one (S, k, L, D) instance and its solve entry point.

:class:`ProblemInstance` bundles an :class:`~repro.core.answers.AnswerSet`
with the three user parameters of Definition 4.1 — size k, coverage L,
distance D — validates them, and lazily materializes the cluster pool.
``ProblemInstance(answers, k=..., L=..., D=...).solve(algorithm)`` is the
one-call way to summarize; callers that want pools cached and shared
across requests submit them through :class:`repro.service.Engine`.

>>> from repro.core.answers import AnswerSet
>>> answers = AnswerSet.from_rows(
...     [("a", "x"), ("a", "y"), ("b", "x")], [3.0, 2.0, 1.0])
>>> ProblemInstance(answers, k=1, L=2, D=0).solve("hybrid").size
1

The paper's nine algorithms register themselves here with
:func:`~repro.core.registry.register_algorithm`; front ends resolve them
through :mod:`repro.core.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.common.errors import InvalidParameterError
from repro.core.answers import AnswerSet
from repro.core.bitset import DENSE_KERNEL, PYTHON_KERNEL, resolve_kernel
from repro.core.registry import register_algorithm, validate_algorithm_kwargs
from repro.core.semilattice import ClusterPool, MappingStrategy
from repro.core.solution import Solution

AlgorithmName = Literal[
    "bottom-up",
    "fixed-order",
    "hybrid",
    "brute-force",
    "lower-bound",
    "bottom-up-level",
    "bottom-up-pairwise",
    "random-fixed-order",
    "kmeans-fixed-order",
]


@dataclass
class ProblemInstance:
    """An (S, k, L, D) instance of the Max-Avg summarization problem.

    Parameter semantics follow Section 4.1: all three parameters are
    optional — ``D=0`` disables the distance constraint, ``L=None``
    defaults to k (cover the original top-k), and ``k=None`` defaults to n
    (no size limit).  ``L=0`` (no coverage constraint) is normalized to
    ``L=1``, which matches the paper's suggestion of covering at least the
    single highest-valued element.  Normalization happens once, before
    validation, so the stored fields are the effective values the
    algorithms run with.
    """

    answers: AnswerSet
    k: int | None = None
    L: int | None = None
    D: int = 0
    mapping: MappingStrategy = "eager"
    _pool: ClusterPool | None = field(default=None, repr=False)
    _dense_pool: ClusterPool | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n, m = self.answers.n, self.answers.m
        # Resolve the optional parameters to their effective values first;
        # validation then sees exactly what the algorithms will see.
        if self.k is None:
            self.k = n
        if self.L is None:
            self.L = self.k
        elif self.L == 0:
            self.L = 1
        if not 1 <= self.k <= n:
            raise InvalidParameterError(
                "k=%d out of range [1, %d]" % (self.k, n)
            )
        if not 1 <= self.L <= n:
            raise InvalidParameterError(
                "L=%d out of range [0, %d]" % (self.L, n)
            )
        if not 0 <= self.D <= m:
            raise InvalidParameterError(
                "D=%d out of range [0, %d]" % (self.D, m)
            )

    @property
    def pool(self) -> ClusterPool:
        """The cluster pool for (S, L), built on first access (the int
        mask representation shared by the bitset/python kernels)."""
        return self.pool_for(None)

    def pool_for(self, kernel: str | None) -> ClusterPool:
        """The cluster pool whose mask representation matches *kernel*.

        The bitset and python kernels share int-bitmask pools; the dense
        kernel needs packed-block masks, so it gets (and caches) its own
        pool.  The python kernel only consumes frozenset coverage, which
        both representations serve identically, so it reuses whichever
        pool already exists.  ``kernel="auto"`` resolves through the
        size policy first (:func:`repro.core.bitset.resolve_kernel`), so
        the pool a runner sees always agrees with the kernel its merge
        engine resolves.
        """
        resolved = resolve_kernel(kernel, n=self.answers.n)
        want_dense = resolved == DENSE_KERNEL
        tolerant = resolved == PYTHON_KERNEL
        for candidate in (self._pool, self._dense_pool):
            if candidate is None or candidate.L != self.L:
                continue
            if tolerant or (candidate.kernel == DENSE_KERNEL) == want_dense:
                return candidate
        built = ClusterPool(
            self.answers,
            self.L,
            strategy=self.mapping,
            kernel=DENSE_KERNEL if want_dense else None,
        )
        if want_dense:
            self._dense_pool = built
        else:
            self._pool = built
        return built

    def adopt_pool(self, pool: ClusterPool) -> None:
        """Seed an externally built pool into its representation's slot.

        The service engine and exploration sessions check pools out of
        their own caches; this keeps the slot-selection invariant (dense
        pools in ``_dense_pool``, int pools in ``_pool``) in one place
        so :meth:`pool_for` finds the adopted pool instead of building a
        duplicate.
        """
        if pool.kernel == DENSE_KERNEL:
            self._dense_pool = pool
        else:
            self._pool = pool

    def solve(self, algorithm: AlgorithmName = "hybrid", **kwargs) -> Solution:
        """Run the chosen algorithm; see :func:`repro.core.registry.algorithm_names`."""
        info = validate_algorithm_kwargs(algorithm, kwargs)
        return info.runner(self, **kwargs)


@register_algorithm(
    "bottom-up",
    cost="greedy",
    complexity="O(L^2) merge candidates per step",
    kwargs=("use_delta", "kernel", "argmax"),
    summary="Algorithm 1: greedy pairwise merging from the top-L singletons",
)
def _run_bottom_up(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.bottom_up import bottom_up

    return bottom_up(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "bottom-up-level",
    cost="greedy",
    complexity="O(L^2) after seeding at semilattice level D-1",
    kwargs=("use_delta", "kernel", "argmax"),
    summary="Section 5.1 variant (i): seed at level D-1 ancestors",
)
def _run_bottom_up_level(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.bottom_up import bottom_up_level_start

    return bottom_up_level_start(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "bottom-up-pairwise",
    cost="greedy",
    complexity="O(L^2) with pairwise-LCA merge scoring",
    kwargs=("kernel",),
    summary="Section 5.1 variant (ii): merge the pair with the best LCA avg",
)
def _run_bottom_up_pairwise(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.bottom_up import bottom_up_pairwise_avg

    return bottom_up_pairwise_avg(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "fixed-order",
    cost="greedy",
    complexity="O(L * k) incoming-element processing",
    # No "argmax": plain Fixed-Order never runs the group argmax (only
    # its engine continuations — hybrid, precompute — do); advertising it
    # would let ablation runs believe they compared two modes.
    kwargs=("use_delta", "size_budget", "kernel"),
    summary="Algorithm 3: stream the top-L in value order into <= k clusters",
)
def _run_fixed_order(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.fixed_order import fixed_order

    return fixed_order(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "random-fixed-order",
    cost="heuristic",
    complexity="O(L * k), randomized prefix",
    kwargs=("seed", "kernel"),
    summary="Section 5.2: process k random top-L elements before the rest",
)
def _run_random_fixed_order(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.fixed_order import random_fixed_order

    return random_fixed_order(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "kmeans-fixed-order",
    cost="heuristic",
    complexity="O(L * k) plus a k-modes clustering pass",
    kwargs=("seed", "max_iterations", "kernel"),
    summary="Section 5.2: seed Fixed-Order with k-modes group patterns",
)
def _run_kmeans_fixed_order(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.fixed_order import kmeans_fixed_order

    return kmeans_fixed_order(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "hybrid",
    cost="greedy",
    complexity="Fixed-Order with budget c*k, then Bottom-Up",
    kwargs=("pool_factor", "use_delta", "kernel", "argmax"),
    summary="Algorithm 4: the paper's recommended two-phase algorithm",
)
def _run_hybrid(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.hybrid import hybrid

    return hybrid(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "brute-force",
    cost="exact",
    complexity="exponential branch-and-bound over candidate clusters",
    kwargs=("kernel",),
    summary="Section 5 baseline: exact optimum by exhaustive search",
)
def _run_brute_force(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.brute_force import brute_force

    return brute_force(
        instance.pool_for(kwargs.get("kernel")),
        instance.k,
        instance.D,
        **kwargs,
    )


@register_algorithm(
    "lower-bound",
    cost="bound",
    complexity="O(L): the all-covering root cluster",
    summary="Trivial feasible solution; lower-bounds every objective",
)
def _run_lower_bound(instance: ProblemInstance, **kwargs) -> Solution:
    from repro.core.brute_force import lower_bound

    return lower_bound(instance.pool, **kwargs)
