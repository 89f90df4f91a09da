"""The shared engine: named datasets + LRU caches of initialized state.

Initialization (cluster generation + mapping, Section 6's "Init" phase)
dominates request latency, and the precomputation sweep (Section 6.2)
dominates exploration start-up.  The paper's prototype therefore keeps both
per query on the server; :class:`Engine` is that server-side state as an
object.  Front ends register an :class:`~repro.core.answers.AnswerSet`
under a name once and then submit wire-format requests; concurrent
sessions over the same dataset share pools and stores instead of each
rebuilding them.

Cache keys pin down everything that changes the cached object's content:

* pools are keyed by ``(dataset, version, L, mapping, representation)`` —
  the answer set *at a content version* (bumped by replace and append,
  so stale state is unreachable by key), the top-L slice the pool
  generalizes, the coverage-mapping strategy (``"eager"`` or
  ``"naive"``; the pool rejects any other name), and the mask
  representation (:attr:`ClusterPool.kernel
  <repro.core.semilattice.ClusterPool.kernel>`: ``"bitset"`` for int
  bitmask pools, ``"dense"`` for packed uint64-block pools);
* stores are keyed by ``(dataset, version, L, mapping, k_range,
  d_values, kernel)`` — everything the pool key pins plus the
  precompute sweep's parameter grid.

A request's ``kernel`` picks the pool and nothing else: every algorithm
runs on its pool's representation and reports it.

Appends (:meth:`Engine.append_rows`) do better than invalidation: each
cached pool of the old version is *carried over* — rebuilt over the
grown answer set by :meth:`~repro.core.semilattice.ClusterPool.extended`
and re-inserted under the new version's key — so in-flight sessions stay
warm across an update stream, and the old version's entries are dropped.
Stores are not carried (a precompute sweep's solutions can change
arbitrarily when values enter the top-L) and simply rebuild on next use.

Two requests that agree on a key therefore share one build; anything that
could change the bytes of the result is part of the key.  Both caches are
LRU-bounded (pools and stores over large L are big) and guarded by a
lock, with per-key build locks so two threads asking for the same cold
pool build it once while builds for *different* keys proceed in parallel.

Usage::

    >>> from repro.core.answers import AnswerSet
    >>> from repro.service import Engine, SummaryRequest
    >>> answers = AnswerSet.from_rows(
    ...     [("a", "x"), ("a", "y"), ("b", "x")], [4.0, 3.0, 1.0])
    >>> engine = Engine()
    >>> engine.register_dataset("toy", answers)
    >>> cold = engine.submit(SummaryRequest(dataset="toy", k=1, L=2, D=0))
    >>> warm = engine.submit(SummaryRequest(dataset="toy", k=1, L=2, D=0))
    >>> (cold.cache_hit, warm.cache_hit, warm.objective)
    (False, True, 3.5)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, Sequence, TypeVar

from repro.common.budget import Budget, budget_scope, checkpoint
from repro.common.errors import InvalidParameterError, ReproError
from repro.common.faults import fault_point
from repro.common.interning import STAR
from repro.core.answers import AnswerSet
from repro.core.bitset import resolve_kernel
from repro.core.dense import mask_indices
from repro.core.problem import ProblemInstance
from repro.core.registry import validate_algorithm_kwargs
from repro.core.semilattice import ClusterPool
from repro.obs.tracing import record_span, span, trace_scope
from repro.core.solution import Solution
from repro.interactive.precompute import SolutionStore, check_sweep_grid
from repro.service.api import (
    ClusterDTO,
    ExpandedElementDTO,
    ExploreRequest,
    GuidanceRequest,
    GuidanceResponse,
    GuidanceSeriesDTO,
    SummaryRequest,
    SummaryResponse,
    error_payload,
    parse_request,
)

T = TypeVar("T")


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters for one engine cache.

    ``coalesced`` is the subset of ``hits`` that were served by *another
    thread's concurrent build* of the same key (single-flight): the caller
    saw the key cold, raced for the per-key build lock, and found the
    finished entry instead of building a duplicate.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    coalesced: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of both caches plus the request counter."""

    pools: CacheStats
    stores: CacheStats
    requests: int
    datasets: tuple[str, ...]


class _Entry(Generic[T]):
    __slots__ = ("value", "build_seconds")

    def __init__(self, value: T, build_seconds: float) -> None:
        self.value = value
        self.build_seconds = build_seconds


class _LRUCache(Generic[T]):
    """A small thread-safe LRU with per-key build deduplication.

    ``get_or_build`` returns ``(value, build_seconds, cache_hit)`` where
    *build_seconds* is the wall-clock cost this call actually paid (0.0 on
    a hit — the point of sharing the engine).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                "cache capacity must be >= 1, got %d" % capacity
            )
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, _Entry[T]] = OrderedDict()
        self._lock = threading.Lock()
        self._building: dict[Hashable, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0

    def _lookup(self, key: Hashable) -> _Entry[T] | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def get_or_build(
        self, key: Hashable, build: Callable[[], T]
    ) -> tuple[T, float, bool]:
        with self._lock:
            entry = self._lookup(key)
            if entry is not None:
                self.hits += 1
                return entry.value, 0.0, True
            build_lock = self._building.setdefault(key, threading.Lock())
        with build_lock:
            try:
                # Double-check: another thread may have built while we waited.
                with self._lock:
                    entry = self._lookup(key)
                    if entry is not None:
                        # The first check (under the same lock entries are
                        # inserted under) saw no entry, so anything here
                        # now was built by a concurrent thread we raced —
                        # a coalesced wait by construction, even if we
                        # created the build lock ourselves and lost the
                        # acquire race.
                        self.hits += 1
                        self.coalesced += 1
                        return entry.value, 0.0, True
                start = time.perf_counter()
                value = build()
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.misses += 1
                    self._entries[key] = _Entry(value, elapsed)
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                return value, elapsed, False
            finally:
                # Drop the build lock entry even when build() raises, or
                # failing keys would accumulate locks forever.
                with self._lock:
                    self._building.pop(key, None)

    def snapshot_items(self) -> list[tuple[Hashable, T]]:
        """A point-in-time ``(key, value)`` list (incremental maintenance
        iterates cached pools through this; the cache stays locked only
        for the copy)."""
        with self._lock:
            return [
                (key, entry.value) for key, entry in self._entries.items()
            ]

    def put(self, key: Hashable, value: T, build_seconds: float = 0.0) -> None:
        """Insert *value* under *key* directly (no build function).

        Used by append maintenance to seed the next dataset version's
        entries from carried-over state; normal request traffic
        goes through :meth:`get_or_build`.
        """
        with self._lock:
            self._entries[key] = _Entry(value, build_seconds)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def discard_where(self, predicate: Callable[[Hashable], bool]) -> None:
        """Drop every entry whose key satisfies *predicate* (not counted
        as evictions)."""
        with self._lock:
            for key in [key for key in self._entries if predicate(key)]:
                del self._entries[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self.capacity,
                coalesced=self.coalesced,
            )


class Engine:
    """Serves wire-format requests over named datasets with shared caches.

    Parameters
    ----------
    max_pools:
        LRU bound on cached :class:`ClusterPool`s, keyed by
        ``(dataset, version, L, mapping, mask_repr)``.
    max_stores:
        LRU bound on cached :class:`SolutionStore`s, keyed by
        ``(dataset, version, L, mapping, k_range, d_values, kernel)``.
    durability:
        Optional :class:`~repro.durability.manager.DurabilityManager`.
        When set, ``register_dataset`` snapshots the dataset and
        ``append_rows`` write-ahead-logs every batch *before* publishing
        it — a WAL failure aborts the append, so an acked batch is
        always on disk.  ``None`` (the default) keeps the engine purely
        in-memory with zero behavioral drift.
    """

    def __init__(
        self,
        max_pools: int = 64,
        max_stores: int = 16,
        durability=None,
    ) -> None:
        self.durability = durability
        self._datasets: dict[str, AnswerSet] = {}
        self._versions: dict[str, int] = {}
        self._datasets_lock = threading.Lock()
        # The writer lock: appends and registrations are serialized per
        # engine.  An append builds the next dataset version from a
        # snapshot and carries cached pools over to it, which must not
        # interleave with another append or a replace.  Taken before
        # _datasets_lock and before the durability manager's lock.
        self._append_lock = threading.Lock()
        self._pools: _LRUCache[ClusterPool] = _LRUCache(max_pools)
        self._stores: _LRUCache[SolutionStore] = _LRUCache(max_stores)
        self._requests = 0
        self._requests_lock = threading.Lock()

    # -- datasets ------------------------------------------------------------

    def register_dataset(
        self, name: str, answers: AnswerSet, replace: bool = False
    ) -> None:
        """Make *answers* addressable by requests as *name*.

        Re-registering with ``replace=True`` bumps the dataset's version,
        so every cached pool/store built against the old content is keyed
        away from new requests (and dropped from the caches) instead of
        being served stale.

        Registration holds the writer lock that :meth:`append_rows` holds,
        so a replace and an append are serialized: each publishes its own
        version, and the snapshot and the log record them in that order.
        """
        with self._append_lock:
            with self._datasets_lock:
                if name in self._datasets:
                    if not replace:
                        raise InvalidParameterError(
                            "dataset %r is already registered; pass "
                            "replace=True to overwrite" % name
                        )
                    self._versions[name] += 1
                else:
                    self._versions[name] = 0
                self._datasets[name] = answers
                version = self._versions[name]
            self._drop_superseded(name, version)
            if self.durability is not None:
                # Outside the datasets lock: the snapshot write is disk
                # I/O.  A racing reader sees the dataset before its
                # snapshot lands — same window a crash-before-snapshot
                # leaves, and registration is what re-fills it.
                self.durability.record_register(name, answers)

    def _drop_superseded(self, name: str, version: int) -> None:
        """Free the cached pools and stores of *name* at older versions:
        no key can reach them once *version* is published.  A build racing
        the publish may still insert one; it ages out of the LRU."""
        def superseded(key: Hashable) -> bool:
            return key[0] == name and key[1] < version

        self._pools.discard_where(superseded)
        self._stores.discard_where(superseded)

    def dataset(self, name: str) -> AnswerSet:
        return self._dataset_state(name)[0]

    def dataset_version(self, name: str) -> int:
        """The dataset's content version (bumped by replace and append)."""
        return self._dataset_state(name)[1]

    def _dataset_state(self, name: str) -> tuple[AnswerSet, int]:
        """The dataset and its version, read atomically — cache keys must
        pair the version with the exact content it describes."""
        with self._datasets_lock:
            try:
                return self._datasets[name], self._versions[name]
            except KeyError:
                raise InvalidParameterError(
                    "unknown dataset %r; registered: %s"
                    % (name, sorted(self._datasets))
                ) from None

    def dataset_names(self) -> list[str]:
        with self._datasets_lock:
            return sorted(self._datasets)

    def append_rows(
        self,
        name: str,
        rows: Sequence[Sequence[Any]],
        values: Sequence[float],
    ) -> dict[str, Any]:
        """Append *rows* to dataset *name* with incremental maintenance.

        Builds the extended :class:`AnswerSet` (codes and ranks re-derive
        deterministically), carries every cached pool of the old version
        over to the new one via
        :meth:`~repro.core.semilattice.ClusterPool.extended` (bit-identical
        to a rebuild, property-tested), bumps the dataset version so
        stores and any pool this pass missed are unreachable by key, and
        only then publishes the new answer set and drops the old
        version's cache entries.  Requests racing the
        append keep resolving the old ``(content, version)`` pair until
        the atomic publish, so they never see a half-updated dataset.
        """
        with self._append_lock:
            old_answers, old_version = self._dataset_state(name)
            # extended() interns the batch's values into the codec the
            # old answer set shares; a refused batch or a failed log
            # write takes those codes back, so codes (and tie ranks)
            # stay what a replay of the acked batches assigns.
            codec = old_answers.codec
            with nullcontext() if codec is None else codec.rollback_on_error():
                new_answers, delta = old_answers.extended(rows, values)
                if self.durability is not None:
                    # WAL-before-publish: the batch has passed validation
                    # (extended() raised on anything malformed), so log
                    # it now.  If the log write fails, this raises and
                    # nothing below publishes — the client's error means
                    # "not appended", on disk and in memory alike.
                    self.durability.record_append(name, rows, values)
            version = old_version + 1
            maintained = 0
            for key, pool in self._pools.snapshot_items():
                k_dataset, k_version = key[0], key[1]
                if k_dataset != name or k_version != old_version:
                    continue
                self._pools.put(
                    (k_dataset, version) + key[2:],
                    pool.extended(new_answers, delta),
                )
                maintained += 1
            with self._datasets_lock:
                self._datasets[name] = new_answers
                self._versions[name] = version
            self._drop_superseded(name, version)
            if self.durability is not None:
                self.durability.maybe_compact(name, new_answers)
        return {
            "appended": len(delta),
            "n": new_answers.n,
            "version": version,
            "pools_maintained": maintained,
        }

    # -- cached initialization ------------------------------------------------

    def checkout_pool(
        self,
        dataset: str,
        L: int,
        mapping: str = "eager",
        kernel: str | None = None,
    ) -> tuple[ClusterPool, float, bool]:
        """The cluster pool for (dataset, L) — ``(pool, init_seconds, hit)``.

        An unknown *mapping* name raises from the pool's constructor, so
        nothing is built or cached.  *kernel* selects the pool's mask
        representation, the kernel it resolves to: ``"bitset"`` checks
        out an int-bitmask pool, and ``"dense"`` (or ``"auto"`` resolving
        to it at this dataset's size) a packed-block pool.  The
        representation is part of the cache key, so kernels never alias
        each other's pools.
        """
        answers, version = self._dataset_state(dataset)
        representation = resolve_kernel(kernel, n=answers.n)
        return self._pools.get_or_build(
            (dataset, version, L, mapping, representation),
            lambda: ClusterPool(
                answers, L, strategy=mapping, kernel=representation
            ),
        )

    def checkout_store(
        self,
        dataset: str,
        L: int,
        k_range: tuple[int, int],
        d_values: Sequence[int],
        mapping: str = "eager",
        kernel: str | None = None,
    ) -> tuple[SolutionStore, float, bool]:
        """The precomputed store for (dataset, L, k_range, d_values).

        ``init_seconds`` covers whatever this call actually built: pool
        construction (if cold) plus the precomputation sweep (if cold).
        A grid the store would reject is rejected before either is built,
        and so is an unknown *mapping* (by the pool's constructor).
        """
        k_range = tuple(k_range)
        d_key = tuple(sorted(set(d_values)))
        answers, version = self._dataset_state(dataset)
        check_sweep_grid(answers, k_range, d_key)
        pool, pool_seconds, _pool_hit = self.checkout_pool(
            dataset, L, mapping, kernel=kernel
        )
        store, store_seconds, store_hit = self._stores.get_or_build(
            (dataset, version, L, mapping, k_range, d_key, pool.kernel),
            lambda: SolutionStore(pool, k_range, d_key),
        )
        return store, pool_seconds + store_seconds, store_hit

    # -- request dispatch -----------------------------------------------------

    def submit(
        self, request: SummaryRequest | ExploreRequest | GuidanceRequest
    ):
        """Serve one typed request; returns the matching typed response."""
        fault_point("engine.compute")
        # Shed before computing: a request whose budget expired on the
        # way here (queue wait, parse) never starts the solve.
        checkpoint()
        with self._requests_lock:
            self._requests += 1
        if isinstance(request, SummaryRequest):
            return self._submit_summary(request)
        if isinstance(request, ExploreRequest):
            return self._submit_explore(request)
        if isinstance(request, GuidanceRequest):
            return self._submit_guidance(request)
        raise InvalidParameterError(
            "unsupported request type %s" % type(request).__name__
        )

    def submit_dict(
        self,
        payload: dict[str, Any],
        budget: Budget | None = None,
        trace=None,
    ) -> dict[str, Any]:
        """Wire-in/wire-out: parse, serve, serialize; errors become
        ``kind="error"`` payloads instead of exceptions.

        *budget* (optional) is installed as the thread's current budget
        for the duration of the request, so kernel checkpoints can
        abandon expired work (:class:`DeadlineExceeded` serializes like
        any other typed error).  *trace* (optional, a
        :class:`~repro.obs.tracing.RequestTrace`) is installed the same
        way so the handlers' spans land on it.  Callers that already
        scoped either around this call (the scheduler worker) simply
        pass None — the ``engine.request`` span still lands on the
        thread's current trace.
        """
        try:
            with trace_scope(trace), budget_scope(budget):
                with span("engine.request"):
                    return self.submit(parse_request(payload)).to_dict()
        except (ReproError, TypeError, ValueError) as error:
            return error_payload(error)

    # -- handlers -------------------------------------------------------------

    def _submit_summary(self, request: SummaryRequest) -> SummaryResponse:
        answers = self.dataset(request.dataset)
        # options.kernel picks the pool, which every algorithm runs on
        # and reports; the other options are the algorithm's own.
        options = dict(request.options)
        kernel = options.pop("kernel", None)
        validate_algorithm_kwargs(request.algorithm, options)

        def instance_over(answers: AnswerSet) -> ProblemInstance:
            return ProblemInstance(
                answers,
                k=request.k,
                L=request.L,
                D=request.D,
                mapping=request.mapping,
            )

        instance = instance_over(answers)
        pool, init_seconds, cache_hit = self.checkout_pool(
            request.dataset, instance.L, request.mapping, kernel=kernel
        )
        record_span("engine.pool_build", init_seconds, cache_hit=cache_hit)
        if pool.answers is not answers:
            # An append or replace published between the two reads: solve
            # and answer over the content the pool was built from, never
            # over a mix of two versions.
            answers = pool.answers
            instance = instance_over(answers)
        instance.adopt_pool(pool)
        start = time.perf_counter()
        solution = instance.solve(
            request.algorithm, kernel=pool.kernel, **options
        )
        algo_seconds = time.perf_counter() - start
        record_span(
            "engine.solve",
            algo_seconds,
            algorithm=request.algorithm,
            kernel=pool.kernel,
            # The merge engine's argmax counters (heap-vs-scan pruning
            # evidence) ride as span attributes, same numbers as the
            # phase_seconds map below.
            **{name: float(value) for name, value in
               (solution.stats or {}).items()},
        )
        phases = {"pool_build": init_seconds, "merge_loop": algo_seconds}
        # Fold the merge engine's argmax counters (heap-vs-scan pruning
        # evidence) into the phase map: counts, not seconds, but the same
        # open float dict — no schema change.
        if solution.stats:
            phases.update(
                (name, float(value))
                for name, value in solution.stats.items()
            )
        return self._summary_response(
            request.dataset,
            answers,
            solution,
            k=instance.k,
            L=instance.L,
            D=instance.D,
            algorithm=request.algorithm,
            cache_hit=cache_hit,
            init_seconds=init_seconds,
            algo_seconds=algo_seconds,
            include_elements=request.include_elements,
            kernel=pool.kernel,
            phases=phases,
        )

    def _submit_explore(self, request: ExploreRequest) -> SummaryResponse:
        store, init_seconds, cache_hit = self.checkout_store(
            request.dataset,
            request.L,
            request.k_range,
            request.d_values,
            request.mapping,
            kernel=request.kernel,
        )
        record_span("engine.store_build", init_seconds, cache_hit=cache_hit)
        start = time.perf_counter()
        solution = store.retrieve(request.k, request.D)
        algo_seconds = time.perf_counter() - start
        record_span("engine.retrieve", algo_seconds)
        return self._summary_response(
            request.dataset,
            # The store's own answers: an append landing mid-request must
            # not pair its patterns with another version's elements.
            store.pool.answers,
            solution,
            k=request.k,
            L=request.L,
            D=request.D,
            algorithm="precomputed",
            cache_hit=cache_hit,
            init_seconds=init_seconds,
            algo_seconds=algo_seconds,
            include_elements=request.include_elements,
            kernel=store.kernel,
            # Per-request wall clock only: store_build is what *this* call
            # paid (0.0 on a store-cache hit); the build's internal
            # shared-phase/sweep split lives in store.timings.
            phases={
                "store_build": init_seconds,
                "retrieve": algo_seconds,
            },
        )

    def _submit_guidance(self, request: GuidanceRequest) -> GuidanceResponse:
        from repro.interactive.guidance import build_guidance_view

        store, init_seconds, cache_hit = self.checkout_store(
            request.dataset,
            request.L,
            request.k_range,
            request.d_values,
            request.mapping,
            kernel=request.kernel,
        )
        record_span("engine.store_build", init_seconds, cache_hit=cache_hit)
        start = time.perf_counter()
        view = build_guidance_view(store)
        series = tuple(
            GuidanceSeriesDTO(
                D=curve.D,
                k_values=curve.k_values,
                averages=curve.averages,
                knee_points=tuple(view.knee_points(curve.D)),
                flat_regions=tuple(view.flat_regions(curve.D)),
            )
            for curve in view.series
        )
        return GuidanceResponse(
            dataset=request.dataset,
            L=request.L,
            k_range=tuple(request.k_range),
            d_values=store.d_values,
            series=series,
            cache_hit=cache_hit,
            init_seconds=init_seconds,
            algo_seconds=time.perf_counter() - start,
        )

    # -- serialization helpers ------------------------------------------------

    def _summary_response(
        self,
        dataset: str,
        answers: AnswerSet,
        solution: Solution,
        *,
        k: int,
        L: int,
        D: int,
        algorithm: str,
        cache_hit: bool,
        init_seconds: float,
        algo_seconds: float,
        include_elements: bool,
        kernel: str,
        phases: dict[str, float] | None = None,
    ) -> SummaryResponse:
        serialize_start = time.perf_counter()
        clusters = tuple(
            self._cluster_dto(answers, cluster, include_elements)
            for cluster in solution.clusters
        )
        phase_seconds = dict(phases or {})
        phase_seconds["serialize"] = time.perf_counter() - serialize_start
        record_span("engine.serialize", phase_seconds["serialize"])
        return SummaryResponse(
            dataset=dataset,
            k=k,
            L=L,
            D=D,
            algorithm=algorithm,
            objective=solution.avg,
            solution_size=solution.size,
            covered_count=solution.covered_count,
            clusters=clusters,
            cache_hit=cache_hit,
            init_seconds=init_seconds,
            algo_seconds=algo_seconds,
            kernel=kernel,
            phase_seconds=phase_seconds,
        )

    def _cluster_dto(
        self, answers: AnswerSet, cluster, include_elements: bool
    ) -> ClusterDTO:
        pattern = (
            answers.decode(cluster.pattern)
            if answers.codec is not None
            else tuple("*" if v == STAR else v for v in cluster.pattern)
        )
        elements: tuple[ExpandedElementDTO, ...] = ()
        if include_elements:
            elements = tuple(
                ExpandedElementDTO(
                    rank=index + 1,
                    values=(
                        answers.decode(answers.elements[index])
                        if answers.codec is not None
                        else tuple(answers.elements[index])
                    ),
                    value=answers.values[index],
                )
                for index in mask_indices(cluster.mask)
            )
        return ClusterDTO(
            pattern=tuple(pattern),
            avg=cluster.avg,
            size=cluster.size,
            elements=elements,
        )

    # -- introspection --------------------------------------------------------

    def stats(self) -> EngineStats:
        return EngineStats(
            pools=self._pools.stats(),
            stores=self._stores.stats(),
            requests=self._requests,
            datasets=tuple(self.dataset_names()),
        )
