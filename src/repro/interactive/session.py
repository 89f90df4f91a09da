"""Exploration sessions: the library-level equivalent of the paper's GUI.

Appendix A.3 describes the prototype's flow: the user submits an aggregate
query and parameters (k, L, D); the system initializes a cache (cluster
generation + mapping) once per query, chooses an algorithm, and serves
successive parameter changes from partial updates.  :class:`ExplorationSession`
reproduces that flow as an API:

* initialization (per-L cluster pools, precomputed stores) is delegated to
  a :class:`repro.service.Engine` — by default a private one, but sessions
  can share an engine so concurrent explorations of the same dataset reuse
  each other's initialization work;
* ``solve`` runs a single algorithm invocation (the "single run" mode of
  Figure 7);
* ``precompute``/``retrieve`` serve whole (k, D) ranges via
  :class:`~repro.interactive.precompute.SolutionStore` (the
  "precomputation" mode);
* ``guidance`` produces the Figure 2 view;
* ``expand`` exposes the second display layer (Figure 1c), listing the
  original elements a cluster covers with their global ranks;
* ``compare`` produces the successive-solution visualization data of
  Appendix A.7.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.errors import InvalidParameterError
from repro.core.answers import AnswerSet
from repro.core.cluster import Cluster
from repro.core.dense import mask_indices
from repro.core.problem import ProblemInstance
from repro.core.registry import validate_algorithm_kwargs
from repro.core.semilattice import ClusterPool, MappingStrategy
from repro.core.solution import Solution
from repro.interactive.guidance import GuidanceView, build_guidance_view
from repro.interactive.precompute import SolutionStore

_session_counter = itertools.count(1)


@dataclass(frozen=True)
class TimedSolution:
    """A solution plus the phase breakdown the paper's figures report."""

    solution: Solution
    init_seconds: float
    algo_seconds: float
    cache_hit: bool = False

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + self.algo_seconds


@dataclass(frozen=True)
class ExpandedRow:
    """One second-layer row: an original element with rank and value."""

    rank: int  # 1-based rank in S
    values: tuple[Any, ...]
    value: float


class ExplorationSession:
    """Stateful interactive exploration over one answer set.

    Parameters
    ----------
    answers:
        The answer set to explore.
    mapping:
        Cluster-to-element mapping strategy for pool construction.
    engine:
        A shared :class:`repro.service.Engine` to draw cached pools and
        stores from.  Omitted, the session creates a private engine —
        the original single-user behaviour.
    dataset:
        Name to register (or find) *answers* under in the engine.
    """

    def __init__(
        self,
        answers: AnswerSet,
        mapping: MappingStrategy = "eager",
        engine=None,
        dataset: str | None = None,
    ) -> None:
        from repro.service.engine import Engine

        self.answers = answers
        self.mapping = mapping
        if engine is None:
            engine = Engine()
        self.engine = engine
        if dataset is None:
            dataset = "session-%d" % next(_session_counter)
        self.dataset = dataset
        try:
            registered = engine.dataset(dataset)
        except InvalidParameterError:
            engine.register_dataset(dataset, answers)
        else:
            if registered is not answers:
                raise ValueError(
                    "dataset %r is already registered with a different "
                    "answer set" % dataset
                )
        self._pool_seconds: dict[int, float] = {}

    # -- initialization ---------------------------------------------------------

    def pool(self, L: int) -> ClusterPool:
        """The cluster pool for top-L (engine-cached; building is 'Init')."""
        pool, build_seconds, cache_hit = self.engine.checkout_pool(
            self.dataset, L, self.mapping
        )
        if not cache_hit:
            self._pool_seconds[L] = build_seconds
        return pool

    def init_seconds(self, L: int) -> float:
        """Wall-clock seconds this session spent building the pool for L
        (0 if it was already cached in the engine)."""
        self.pool(L)
        return self._pool_seconds.get(L, 0.0)

    # -- single runs -------------------------------------------------------------

    def solve(
        self,
        k: int | None,
        L: int,
        D: int,
        algorithm: str = "hybrid",
        kernel: str | None = None,
        **kwargs,
    ) -> TimedSolution:
        """One algorithm invocation with the Init/Algo timing split.

        *kernel* picks the pool's mask representation; *kwargs* are the
        algorithm's options."""
        validate_algorithm_kwargs(algorithm, kwargs)
        instance = ProblemInstance(
            self.answers, k=k, L=L, D=D, mapping=self.mapping
        )
        # Check out the pool from the engine cache instead of letting the
        # instance build its own.
        pool, init_seconds, cache_hit = self.engine.checkout_pool(
            self.dataset, instance.L, self.mapping, kernel=kernel
        )
        if not cache_hit:
            self._pool_seconds[instance.L] = init_seconds
        instance.adopt_pool(pool)
        start = time.perf_counter()
        solution = instance.solve(algorithm, kernel=pool.kernel, **kwargs)
        return TimedSolution(
            solution=solution,
            init_seconds=init_seconds,
            algo_seconds=time.perf_counter() - start,
            cache_hit=cache_hit,
        )

    # -- precomputation ------------------------------------------------------------

    def precompute(
        self,
        L: int,
        k_range: tuple[int, int],
        d_values: Sequence[int],
    ) -> SolutionStore:
        """The solution store for all (k, D) at this L (engine-cached)."""
        self.pool(L)  # records this session's init cost before the sweep
        store, _seconds, _hit = self.engine.checkout_store(
            self.dataset, L, tuple(k_range), d_values, self.mapping
        )
        return store

    def retrieve(
        self,
        k: int,
        L: int,
        D: int,
        k_range: tuple[int, int],
        d_values: Sequence[int],
    ) -> TimedSolution:
        """Serve (k, D) from the precomputed store, timing the retrieval."""
        self.pool(L)
        store, store_seconds, cache_hit = self.engine.checkout_store(
            self.dataset, L, tuple(k_range), d_values, self.mapping
        )
        start = time.perf_counter()
        solution = store.retrieve(k, D)
        return TimedSolution(
            solution=solution,
            init_seconds=self._pool_seconds.get(L, 0.0) + store_seconds,
            algo_seconds=time.perf_counter() - start,
            cache_hit=cache_hit,
        )

    def guidance(
        self,
        L: int,
        k_range: tuple[int, int],
        d_values: Sequence[int],
    ) -> GuidanceView:
        """The Figure 2 parameter-selection view for this L."""
        return build_guidance_view(self.precompute(L, k_range, d_values))

    # -- the two display layers -------------------------------------------------------

    def expand(self, cluster: Cluster) -> list[ExpandedRow]:
        """Second layer (Figure 1c): the elements a cluster covers.

        Rows are ordered by global rank; ``values`` are decoded raw
        attribute values when the answer set has a codec.
        """
        rows = []
        for index in mask_indices(cluster.mask):
            element = self.answers.elements[index]
            decoded = (
                self.answers.decode(element)
                if self.answers.codec is not None
                else tuple(element)
            )
            rows.append(
                ExpandedRow(
                    rank=index + 1,
                    values=decoded,
                    value=self.answers.values[index],
                )
            )
        return rows

    def describe(self, solution: Solution, expand_all: bool = False) -> str:
        """Render a solution like Figure 1b (or 1c with *expand_all*)."""
        lines = []
        for cluster in solution.clusters:
            decoded = (
                self.answers.decode(cluster.pattern)
                if self.answers.codec is not None
                else cluster.pattern
            )
            rendered = ", ".join(str(v) for v in decoded)
            lines.append(
                "(%s)  avg=%.4f  [%d elements]"
                % (rendered, cluster.avg, cluster.size)
            )
            if expand_all:
                for row in self.expand(cluster):
                    rendered_row = ", ".join(str(v) for v in row.values)
                    lines.append(
                        "    rank %3d: (%s)  val=%.4f"
                        % (row.rank, rendered_row, row.value)
                    )
        return "\n".join(lines)

    # -- successive-solution comparison ------------------------------------------------

    def compare(self, old: Solution, new: Solution):
        """Appendix A.7 comparison view data for two successive solutions."""
        from repro.viz.comparison import build_comparison

        return build_comparison(old, new, self.answers)
