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

The paper's nine algorithms are registered, as the functions that run
them, with :func:`~repro.core.registry.register_algorithm` in their own
modules, which this one imports; front ends resolve them through
:mod:`repro.core.registry`.  Every runner takes the cluster pool for
(S, L), then k and D, and runs on that pool's mask representation:
:meth:`ProblemInstance.solve` takes the ``kernel`` that picks the pool,
and no runner takes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.common.errors import InvalidParameterError
# Imported for their side effect: each registers its algorithms.
from repro.core import bottom_up, brute_force, fixed_order, hybrid  # noqa
from repro.core.answers import AnswerSet
from repro.core.registry import validate_algorithm_kwargs
from repro.core.bitset import resolve_kernel
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
    _pools: dict[str, ClusterPool] = field(default_factory=dict, repr=False)

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
        """The cluster pool for (S, L) in the default kernel's int-mask
        representation, built on first access."""
        return self.pool_for(None)

    def pool_for(self, kernel: str | None) -> ClusterPool:
        """The cluster pool in the mask representation *kernel* resolves
        to (:func:`~repro.core.bitset.resolve_kernel`), built on first use
        and rebuilt once ``L`` has changed."""
        representation = resolve_kernel(kernel, n=self.answers.n)
        pool = self._pools.get(representation)
        if pool is None or pool.L != self.L:
            pool = self._pools[representation] = ClusterPool(
                self.answers, self.L, strategy=self.mapping,
                kernel=representation,
            )
        return pool

    def adopt_pool(self, pool: ClusterPool) -> None:
        """Seed a pool checked out of a cache, so :meth:`pool_for` finds
        it instead of building a duplicate."""
        self._pools[pool.kernel] = pool

    def solve(
        self,
        algorithm: AlgorithmName = "hybrid",
        kernel: str | None = None,
        **kwargs,
    ) -> Solution:
        """Run the chosen algorithm, with its keyword options *kwargs*, on
        the pool for *kernel* (:meth:`pool_for`); see
        :func:`repro.core.registry.algorithm_names`."""
        info = validate_algorithm_kwargs(algorithm, kwargs)
        return info.runner(self.pool_for(kernel), self.k, self.D, **kwargs)
