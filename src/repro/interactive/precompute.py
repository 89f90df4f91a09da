"""Incremental computation of solutions for whole (k, D) ranges.

Section 6.2: to power the parameter-selection view (Figure 2) and to serve
any (k, D) choice at interactive speed, the Hybrid algorithm's structure is
exploited twice:

1. For a given L, the **Fixed-Order phase** (with pool budget c * k_max)
   runs once; its output seeds the computation for *every* (k, D).
2. For each D, the **Bottom-Up phase** runs once from that shared state:
   after enforcing the distance constraint, every further merge reduces the
   cluster count, so the sweep k = k_max .. k_min falls out of a single run
   — the solution for k is simply the first state with at most k clusters.

By Continuity (Proposition 6.1) a cluster, once merged away, never returns;
hence for fixed (L, D) the set of k values for which a given cluster is in
the solution is one contiguous interval.  We store exactly those intervals
in one :class:`~repro.interactive.interval_tree.IntervalTree` per D, which
reduces storage from O(N_k * N_D) solution sets to O(N_D) trees and serves
retrieval in O(log N_k + answer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.errors import InvalidParameterError
from repro.core.answers import AnswerSet
from repro.core.bottom_up import run_distance_phase
from repro.core.cluster import Cluster, Pattern
from repro.core.hybrid import DEFAULT_POOL_FACTOR
from repro.core.fixed_order import fixed_order_engine
from repro.core.merge import MergeEngine
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution, floor_at_root
from repro.interactive.interval_tree import Interval, IntervalTree


def check_sweep_grid(
    answers: AnswerSet, k_range: tuple[int, int], d_values: Sequence[int]
) -> None:
    """Reject a (k, D) grid a summary over *answers* would reject:
    1 <= k_min <= k_max <= n, and every D in [0, m]."""
    k_min, k_max = k_range
    if not 1 <= k_min <= k_max <= answers.n:
        raise InvalidParameterError(
            "invalid k range [%d, %d]; need 1 <= k_min <= k_max <= n=%d"
            % (k_min, k_max, answers.n)
        )
    if not d_values:
        raise InvalidParameterError("d_values must be non-empty")
    outside = sorted(d for d in set(d_values) if not 0 <= d <= answers.m)
    if outside:
        raise InvalidParameterError(
            "d_values %r out of range [0, %d]" % (outside, answers.m)
        )


@dataclass(frozen=True)
class PrecomputeTimings:
    """Phase breakdown reported by the Figure 7 experiments.

    ``algo_seconds`` splits into the shared Fixed-Order phase
    (``shared_phase_seconds``) and the per-D Bottom-Up sweeps
    (``sweep_seconds``).  The split lives on ``SolutionStore.timings``
    for programmatic inspection (benchmarks, capacity planning); the wire
    format only carries per-request phase timings.
    """

    init_seconds: float
    algo_seconds: float
    shared_phase_seconds: float = 0.0
    sweep_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + self.algo_seconds


@dataclass
class _DSweep:
    """Per-D results of the Bottom-Up sweep."""

    tree: IntervalTree[Pattern]
    avg_by_k: dict[int, float]
    size_by_k: dict[int, int]
    k_intervals: dict[Pattern, tuple[int, int]] = field(default_factory=dict)


class SolutionStore:
    """Precomputed solutions for all (k, D) combinations at a fixed L.

    Parameters
    ----------
    pool:
        Cluster pool for (S, L); its construction time is the paper's
        "Init" phase and is *not* included in ``timings.algo_seconds``.
    k_range:
        Inclusive (k_min, k_max), with 1 <= k_min <= k_max <= n: the
        bounds a summary puts on k (:func:`check_sweep_grid`).
    d_values:
        The D values to sweep (Figure 2 plots one curve per D), each in
        [0, m] as a summary's D.
    kernel:
        The sweep engines' mask kernel (``"bitset"``/``"dense"``/
        ``"auto"``; see :func:`repro.core.bitset.resolve_kernel`).
        A kernel resolving to ``"dense"`` needs *pool* built with
        ``kernel="dense"`` (the merge engine validates); the service
        layer's :meth:`repro.service.Engine.checkout_store` pairs them
        automatically.
    argmax:
        The sweep engines' greedy argmax (``None`` = auto: the lazy heap
        whenever sound; ``"scan"`` is the ablation baseline).

    The shared Fixed-Order phase runs with Hybrid's candidate multiplier
    c (:data:`~repro.core.hybrid.DEFAULT_POOL_FACTOR`) and D = 0, the
    most permissive distance; each per-D Bottom-Up run then enforces its
    own D.  No state has more than L clusters, so every k above
    max(k_min, min(k_max, L)) holds the state the sweep starts from: the
    sweeps record only k up to that bound, and their work and size do
    not grow with k_max beyond L.
    """

    def __init__(
        self,
        pool: ClusterPool,
        k_range: tuple[int, int],
        d_values: Sequence[int],
        kernel: str | None = None,
        argmax: str | None = None,
    ) -> None:
        check_sweep_grid(pool.answers, k_range, d_values)
        k_min, k_max = k_range
        self.pool = pool
        self.k_min = k_min
        self.k_max = k_max
        self.d_values = tuple(sorted(set(d_values)))
        self._k_top = max(k_min, min(k_max, pool.L))
        start = time.perf_counter()
        shared = fixed_order_engine(
            pool,
            budget=DEFAULT_POOL_FACTOR * k_max,
            D=0,
            kernel=kernel,
            argmax=argmax,
        )
        self.kernel = shared.kernel
        self.argmax = shared.argmax
        shared_done = time.perf_counter()
        self._sweeps: dict[int, _DSweep] = {}
        for d_value in self.d_values:
            self._sweeps[d_value] = self._sweep_one_d(shared.clone(), d_value)
        end = time.perf_counter()
        self.timings = PrecomputeTimings(
            init_seconds=0.0,
            algo_seconds=end - start,
            shared_phase_seconds=shared_done - start,
            sweep_seconds=end - shared_done,
        )

    # -- sweep ----------------------------------------------------------------

    def _sweep_one_d(self, engine: MergeEngine, d_value: int) -> _DSweep:
        """Enforce D, then merge downward recording each k's solution."""
        run_distance_phase(engine, d_value)
        avg_by_k: dict[int, float] = {}
        size_by_k: dict[int, int] = {}
        first_k: dict[Pattern, int] = {}
        last_k: dict[Pattern, int] = {}

        def record(k: int) -> None:
            avg_by_k[k] = engine.avg()
            size_by_k[k] = engine.size
            for cluster in engine.clusters():
                pattern = cluster.pattern
                if pattern not in first_k:
                    first_k[pattern] = self.k_max if k == self._k_top else k
                last_k[pattern] = k

        for k in range(self._k_top, self.k_min - 1, -1):
            while engine.size > k:
                pair = engine.best_any_pair()
                if pair is None:
                    break
                engine.merge(*pair)
            record(k)
        intervals = [
            Interval(low=last_k[pattern], high=first_k[pattern],
                     payload=pattern)
            for pattern in first_k
        ]
        sweep = _DSweep(
            tree=IntervalTree(intervals),
            avg_by_k=avg_by_k,
            size_by_k=size_by_k,
        )
        sweep.k_intervals = {
            pattern: (last_k[pattern], first_k[pattern])
            for pattern in first_k
        }
        return sweep

    # -- retrieval --------------------------------------------------------------

    def _sweep(self, D: int) -> _DSweep:
        try:
            return self._sweeps[D]
        except KeyError:
            raise InvalidParameterError(
                "D=%d was not precomputed (have %r)" % (D, self.d_values)
            ) from None

    def retrieve(self, k: int, D: int) -> Solution:
        """The precomputed solution for (k, D): a stabbing query + assembly.

        Floored at the root solution, like the direct algorithm entry
        points: the sweep records raw greedy states, and a forced merge
        trajectory can momentarily sit below the trivial all-star
        average — serving that from the cache would contradict a direct
        ``SummaryRequest`` over the same instance.
        """
        if not self.k_min <= k <= self.k_max:
            raise InvalidParameterError(
                "k=%d outside precomputed range [%d, %d]"
                % (k, self.k_min, self.k_max)
            )
        patterns = self._sweep(D).tree.stab_payloads(k)
        clusters = [self.pool.cluster(p) for p in patterns]
        return floor_at_root(
            Solution.from_clusters(clusters, self.pool.answers), self.pool
        )

    def objective(self, k: int, D: int) -> float:
        """avg(O) of the precomputed solution for (k, D) — O(1) lookup.

        Root-floored, consistent with :meth:`retrieve`.
        """
        recorded = self._sweep(D).avg_by_k[min(k, self._k_top)]
        root_avg = self.pool.root().avg
        return recorded if recorded >= root_avg else root_avg

    def solution_size(self, k: int, D: int) -> int:
        """|O| of the precomputed solution for (k, D).

        Reports 1 (the root cluster) when the recorded state is below
        the root floor, consistent with :meth:`retrieve`.
        """
        sweep = self._sweep(D)
        k = min(k, self._k_top)
        if sweep.avg_by_k[k] < self.pool.root().avg:
            return 1
        return sweep.size_by_k[k]

    def cluster_lifetime(self, pattern: Pattern, D: int) -> tuple[int, int] | None:
        """The contiguous [k_low, k_high] interval where *pattern* is in the
        solution (None if it never appears) — Proposition 6.1's object."""
        return self._sweep(D).k_intervals.get(pattern)

    def stored_interval_count(self) -> int:
        """Total intervals across all D trees (the storage cost metric)."""
        return sum(len(sweep.tree) for sweep in self._sweeps.values())

    def naive_storage_count(self) -> int:
        """Cluster references a per-(k, D) materialization would store."""
        return sum(
            sweep.size_by_k[min(k, self._k_top)]
            for sweep in self._sweeps.values()
            for k in range(self.k_min, self.k_max + 1)
        )
