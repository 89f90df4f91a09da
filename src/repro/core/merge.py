"""The merge engine shared by Bottom-Up, Hybrid, and the precomputation.

The only mutation the greedy algorithms of Section 5 perform is the
``Merge(O, C1, C2)`` operation: replace C1 and C2 (and any other cluster
now covered) by their least common ancestor.  This module centralizes that
operation together with the machinery to *evaluate* candidate merges — i.e.
compute ``avg(O union LCA(C1, C2))`` — efficiently.

Evaluation is the hot path, and two layers of optimization live here:

* **Delta judgment** (Section 6.3, Algorithm 2): per candidate cluster
  ``c``, cache the marginal benefit ``(delta_sum, delta_cnt)`` of the
  elements in ``cov(c) \\ T_i`` (where ``T_i`` is the currently covered
  set) and refresh it from the per-round difference ``T_i \\ T_{i-1}``
  instead of recomputing from scratch.  Controlled by ``use_delta``; the
  naive recompute path is kept for the Figure 8b ablation.

* **The mask kernels + incremental pair cache** (the pool's ``kernel``,
  ``"bitset"`` by default or ``"dense"``): covered sets are bitmasks —
  arbitrary-precision ints (:mod:`repro.core.bitset`) or packed uint64
  blocks with numpy-vectorized primitives (:mod:`repro.core.dense`,
  built for n >= 10^5) — so marginal counts are one ``bit_count()`` and marginal
  sums run over set bits only; and the engine keeps a persistent
  *pair table* — for every unordered pair of solution clusters, its
  distance and its LCA cluster — updated in O(|O|) per merge instead of
  being re-derived for all O(|O|^2) pairs in every greedy round.  The
  table exists only once something reads it: the first pair argmax or
  pair enumeration (Bottom-Up, Hybrid's second phase, the precompute
  forks, which share one build through :meth:`MergeEngine.clone`) builds
  it in one pass.  Fixed-Order never reads it, so its adds and merges
  skip the bookkeeping.  Its loop body (:meth:`MergeEngine.place`)
  computes each member's LCA with the incoming element once, in one
  pass that reads nearness from the LCA's level, and skips that pass
  when nothing can be near (room in the budget and ``D <= 1``).  Its
  argmax (:meth:`MergeEngine.best_merge_target`) evaluates each
  distinct LCA at most once: under ``argmax="heap"`` in descending order
  of an upper bound that costs one AND, one popcount and one highest-bit
  read, stopping once the next bound falls below the best exact
  objective (on the benchmark's warm-explore data, about 1.4 exact
  evaluations per merge instead of 12.7 distinct LCAs).  A merge then
  adds the marginal its round priced to the covered sum instead of
  summing the newly covered elements again.  Both
  mask kernels share this entire code path (the mask objects expose the
  same operators); an engine runs on its pool's masks, so the pool's
  ``kernel`` is the engine's.
  ``bitset`` and ``dense`` sum in the same ascending index order and are
  float-identical to each other always.  The unoptimized baseline is
  :mod:`repro.core.reference`, the algorithms written straight from
  Section 5 over element sets: the engine returns its solutions
  whenever value sums are exact (integer or dyadic-rational values —
  property-tested).

* **The lazy upper-bound heap argmax** (``argmax="heap"``, the default
  whenever no element value is negative): instead of
  scanning every LCA group per round, the engine keeps one max-heap of
  groups per distance filter, keyed by a *stale* upper bound on each
  group's post-merge objective.  The **LCA-group invariant** makes groups
  the right argmax unit: all pairs whose LCA is the same pattern share
  one distance (``distance(p1, p2) == level(lca(p1, p2))`` — the LCA
  stars exactly the disagreeing positions) and one post-merge objective,
  so one marginal evaluation prices every pair in the group.  The heap
  adds laziness on top.  Because the covered union T only grows, two
  stale per-group quantities stay valid bounds across rounds *when all
  values are non-negative*: the marginal value sum only shrinks, and
  ``covered_count + marginal_count`` only grows — so ``(covered_sum +
  stale_sum) / max(covered_count, stale_mass)`` always dominates the
  group's current objective.  A build evaluates nothing: each group
  enters at the bound Fixed-Order's targets are ordered by, so the
  first round, like every later one, evaluates only its frontier.  The
  argmax pops groups in bound order,
  re-evaluates exactly (stale-bound pop-and-refresh), and stops as soon
  as the best exact value seen beats the drift-corrected bound at the
  top of the heap; every group that could still win or tie has, at that
  point, been evaluated with the same floats and the same tie-break key
  as the full scan, which is why heap and scan are bit-identical
  (property-tested).  Steady-state rounds therefore evaluate only the
  near-optimal frontier plus newly created groups — sublinear in the
  number of LCA groups — instead of all of them.  ``argmax="scan"``
  keeps the exhaustive group scan as the ablation baseline.  With
  negative values the monotonicity argument fails, so ``argmax="auto"``
  silently falls back to the scan and an explicit ``argmax="heap"`` is
  rejected.

All of this runs on the clusters' packed *keys*
(:class:`~repro.core.cluster.Packing`): the solution, the delta cache,
the pair table, the LCA groups and the heaps are keyed by them, and
every LCA, distance and strict-cover test is a few int operations on
them instead of a loop over a pattern tuple.  Key order is pattern
order, so every tie-break is the one the patterns give; callers still
pass and receive clusters, whose patterns stay the API.

Note: Algorithm 2 in the paper transposes the assignments of ``delta_sum``
and ``delta_cnt`` (lines 6-7 and 10-11); we implement the evidently
intended semantics (sum of values vs. element count).

Usage::

    >>> from repro.core.answers import AnswerSet
    >>> from repro.core.semilattice import ClusterPool
    >>> from repro.core.merge import MergeEngine
    >>> answers = AnswerSet.from_rows(
    ...     [("a", "x"), ("a", "y"), ("b", "x")], [4.0, 3.0, 1.0])
    >>> pool = ClusterPool(answers, L=2)
    >>> engine = MergeEngine(pool, (pool.singleton(i) for i in range(2)))
    >>> engine.argmax                  # non-negative values -> lazy heap
    'heap'
    >>> pair = engine.best_any_pair()  # the greedy argmax over LCA groups
    >>> merged = engine.merge(*pair)
    >>> engine.snapshot().avg          # (4 + 3) / 2 after merging to (a, *)
    3.5
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Sequence

from repro.common.budget import checkpoint as _budget_checkpoint
from repro.common.errors import InvalidParameterError
from repro.core.answers import AnswerSet
from repro.core.cluster import Cluster
from repro.core.dense import mask_has_bit, mask_indices
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution

#: The lazy upper-bound heap argmax (non-negative values).
HEAP_ARGMAX = "heap"
#: The exhaustive per-round LCA-group scan (ablation baseline).
SCAN_ARGMAX = "scan"
#: Pick per instance: heap when sound (min value >= 0).
AUTO_ARGMAX = "auto"
#: Every argmax mode the engine accepts.
ARGMAX_MODES = (AUTO_ARGMAX, HEAP_ARGMAX, SCAN_ARGMAX)


def resolve_argmax(argmax: str | None, answers: AnswerSet) -> str:
    """Resolve an argmax request to the concrete mode an engine will run.

    ``None``/``"auto"`` chooses :data:`HEAP_ARGMAX` exactly when it is
    sound — no negative element value (marginal sums must be monotone
    non-increasing for stale bounds to stay upper bounds; both mask
    kernels sum in ascending index order, which preserves that
    monotonicity in floats) — and :data:`SCAN_ARGMAX` otherwise.  An
    explicit ``"heap"`` that cannot be honored is an
    :class:`~repro.common.errors.InvalidParameterError` rather than a
    silent fallback: the caller asked for a specific complexity class,
    and quietly scanning would invalidate benchmarks.
    """
    if argmax is None:
        argmax = AUTO_ARGMAX
    if argmax not in ARGMAX_MODES:
        raise InvalidParameterError(
            "unknown argmax %r; expected one of %r" % (argmax, ARGMAX_MODES)
        )
    heap_ok = answers.min_value >= 0.0
    if argmax == AUTO_ARGMAX:
        return HEAP_ARGMAX if heap_ok else SCAN_ARGMAX
    if argmax == HEAP_ARGMAX and not heap_ok:
        raise InvalidParameterError(
            "argmax='heap' requires non-negative element values (stale "
            "marginal sums are only upper bounds when marginals shrink "
            "monotonically); min value is %r" % answers.min_value
        )
    return argmax


#: Multiplicative slack applied to the heap's drift-corrected stop bound.
#: The bound chain (stale priority + drift) is a *real-arithmetic* upper
#: bound assembled from several independently rounded float operations, so
#: — unlike the per-group refined bound, whose operations are all monotone
#: — it could in principle round one ulp below a group's exactly-computed
#: objective.  Inflating it by ~1e-12 (four orders of magnitude above the
#: accumulated rounding error of the handful of ops involved) restores a
#: guaranteed-dominant stop bound at a negligible cost in pruning power.
_DRIFT_SLACK = 1.0 + 1e-12

#: Reprioritize a lazy heap when its covered-sum drift term exceeds this
#: fraction of the current solution average.  Drift only loosens the stop
#: bound (correctness is unaffected); reprioritizing costs three float ops
#: per group and resets drift to zero, so this trades amortized
#: reprioritization passes against extra frontier pops.  Tuned on the
#: rounds-vs-groups benchmark (``benchmarks/run_bench.py``).
_REBUILD_DRIFT_FRACTION = 0.005

#: Relative slack on Fixed-Order's merge-target bound, per unit of
#: ``n + 2`` (the rounding argument is in
#: :meth:`MergeEngine._bounded_targets`).
_TARGET_SLACK = 2.0 ** -50

#: Fixed-Order's merge-target counters: calls of
#: :meth:`MergeEngine.best_merge_target`, distinct LCAs it saw (what a
#: scan evaluates), and exact evaluations it made.  Every Fixed-Order
#: entry point seeds them at zero, so they ride on every solution whose
#: run has a Fixed-Order phase and on no other.
TARGET_COUNTERS = ("target_rounds", "target_groups", "target_evals")


class _ArgmaxHeap:
    """One lazy max-heap of LCA groups for one distance filter.

    ``entries`` is a heapified list of ``(-priority, lca_key)``, the LCA
    as its packed key (key order is pattern order, so ties pop in the
    order of the tie-break key); ``meta`` maps each live candidate key
    to ``(priority, stale_marginal_sum, stale_mass)``, where the newest
    heap entry for a key is the one whose priority matches ``meta``
    (older duplicates are discarded lazily on pop).

    The three stale ingredients bound a group's current post-merge
    objective ``(S + delta_sum) / (C + delta_cnt)`` from above, given only
    the current covered sum S and count C:

    * ``stale_marginal_sum`` dominates the current ``delta_sum`` — with
      non-negative values, marginal sums only shrink as T grows;
    * ``stale_mass`` (= C + delta_cnt as of the same stamp) floors the
      current denominator: every element that leaves a group's marginal
      enters T, so ``C + delta_cnt`` never drops below
      ``max(C_now, stale_mass)``;
    * ``priority`` is the refined bound ``(S_push + stale_sum) /
      max(C_push, stale_mass)`` frozen at push time — the group's exact
      objective when freshly evaluated.  It stops dominating as S grows,
      which is exactly what the caller's drift term ``(S_now - s_floor) /
      C_now`` repairs: ``priority + drift`` dominates every live entry's
      current refined bound because ``s_floor`` never exceeds any entry's
      push-time S.

    ``s_floor`` is reset by builds and reprioritizations; the engine
    reprioritizes the heap when the drift term grows past a small
    fraction of the current average, so the stop bound stays within a
    hair of the true maximum.
    """

    __slots__ = ("entries", "meta", "s_floor")

    def __init__(self, s_floor: float) -> None:
        self.entries: list[tuple[float, int]] = []
        self.meta: dict[int, tuple[float, float, int]] = {}
        self.s_floor = s_floor


class _DeltaState:
    """Per-candidate cached marginal benefit, stamped with the merge round."""

    __slots__ = ("stamp", "delta_sum", "delta_cnt")

    def __init__(self, stamp: int, delta_sum: float, delta_cnt: int) -> None:
        self.stamp = stamp
        self.delta_sum = delta_sum
        self.delta_cnt = delta_cnt


#: One row of the persistent pair table: ``(first, second, distance,
#: lca_cluster)`` with ``first.key < second.key``, stored under the key
#: pair ``(first.key, second.key)``.  Key order is pattern order, so the
#: key pairs sort as the pattern pairs do and every tie-break is the one
#: the patterns give.  Rows are plain tuples (cheapest to
#: build and index) and immutable once built: distance and LCA depend
#: only on the two patterns, never on the covered state, which is what
#: makes the table safe to keep across rounds and to share
#: (shallow-copied) with clones.
_PairRow = tuple[Cluster, Cluster, int, Cluster]

#: Pairs grouped by the key of their LCA: ``(distance, lca_cluster,
#: rows)`` where ``rows`` maps key pairs to their table rows.  Every pair
#: in a group shares one distance (``distance(p1, p2) == level(lca(p1,
#: p2))``: the LCA stars exactly the disagreeing positions) and one
#: post-merge objective, so the per-round argmax scans *groups*,
#: evaluating each LCA once, instead of scanning all O(|O|^2) pairs.
_LcaGroup = tuple[int, Cluster, dict[tuple[int, int], _PairRow]]


class MergeEngine:
    """Mutable greedy-merging state over a set of clusters.

    Maintains the current solution O, its covered-element union ``T`` (a
    mask) with cached sum, the delta-judgment cache, and the incremental
    pair table.  All candidate-selection ties are broken
    lexicographically on cluster patterns so runs are deterministic.

    Internally every structure is keyed by the clusters' packed keys
    (:class:`~repro.core.cluster.Packing`; key order is pattern order),
    and every LCA, distance and cover test runs on keys: the engine
    takes clusters of *pool*, which carry them.
    """

    def __init__(
        self,
        pool: ClusterPool,
        clusters: Iterable[Cluster],
        use_delta: bool = True,
        argmax: str | None = None,
    ) -> None:
        self.pool = pool
        self.answers: AnswerSet = pool.answers
        self.use_delta = use_delta
        self.argmax = resolve_argmax(argmax, self.answers)
        self._packing = pool.packing
        self._heap_argmax = self.argmax == HEAP_ARGMAX
        #: One lazy heap per distance filter (None = unfiltered phase 2).
        self._heaps: dict[int | None, _ArgmaxHeap] = {}
        #: Greedy-argmax counters: rounds served, groups a scan would have
        #: evaluated, marginals actually evaluated, plus the lazy heap's
        #: frontier width (total and per-round max of heap entries popped
        #: per argmax round — the evidence behind the ROADMAP's "is the
        #: frontier wide enough for a convex-hull argmax" question).
        #: Snapshot() attaches a copy so services can surface the ratios.
        self.stats: dict[str, float] = {
            "argmax_rounds": 0.0,
            "argmax_groups": 0.0,
            "argmax_evals": 0.0,
            "argmax_skips": 0.0,
            "argmax_pops": 0.0,
            "argmax_pops_max": 0.0,
        }
        self._solution: dict[int, Cluster] = {}
        self.rounds: int = 0
        self._delta_cache: dict[int, _DeltaState] = {}
        self._covered_sum: float = 0.0
        #: The pair table: empty and not live until the first read builds
        #: it over the current solution in one pass (see _pair_table);
        #: from then on add/merge maintain it.
        self._pairs_live = False
        self._pairs: dict[tuple[int, int], _PairRow] = {}
        self._by_lca: dict[int, _LcaGroup] = {}
        self._covered_mask = pool.as_mask(0)
        for cluster in clusters:
            if cluster.key in self._solution:
                continue
            self._solution[cluster.key] = cluster
            fresh = cluster.mask & ~self._covered_mask
            if fresh:
                self._covered_mask |= fresh
                self._covered_sum += self.answers.mask_value_sum(fresh)
        # Covered-union history: _cover_log[r] is the covered mask after
        # round r.  Delta refreshes AND a candidate against the coverage
        # growth window since their stamp, so a state stale by *any*
        # number of rounds refreshes in one mask operation — the property
        # the lazy heap argmax depends on (its frontier groups sleep for
        # many rounds between evaluations).  Keyed by round (not a list)
        # so snapshots older than every live delta state can be pruned;
        # without pruning a long run would retain O(rounds * n/8) bytes
        # of history.
        self._cover_log: dict[int, int] = {0: self._covered_mask}
        self._diff_since_cache: dict[int, int] = {}

    # -- read access ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._solution)

    @property
    def covered_count(self) -> int:
        return self._covered_mask.bit_count()

    def is_covered(self, index: int) -> bool:
        """True if element *index* is covered by the current solution: a
        bit test on T that builds no n-bit mask."""
        return mask_has_bit(self._covered_mask, index)

    def is_fully_covered(self, cluster: Cluster) -> bool:
        """True if every element of cov(*cluster*) is already covered."""
        return not (cluster.mask & ~self._covered_mask)

    def covered_indices(self) -> frozenset[int]:
        """The covered union T as a frozenset of element indices."""
        return frozenset(mask_indices(self._covered_mask))

    def clone(self) -> "MergeEngine":
        """An independent copy of the current state.

        The incremental precomputation of Section 6.2 runs the shared
        Fixed-Order phase once and then forks one engine per D value; this
        is the fork.  The delta cache is not carried over (its states are
        mutated in place and must not be shared); it rebuilds lazily.  The
        pair table *is* carried over (rows are immutable), copied shallowly
        — built first if need be, so all forks share one build.  The
        argmax heaps are not shared (their bound dicts are mutated in
        place); each clone rebuilds them on first argmax.
        """
        self._pair_table()
        twin = MergeEngine.__new__(MergeEngine)
        twin.pool = self.pool
        twin.answers = self.answers
        twin.use_delta = self.use_delta
        twin.argmax = self.argmax
        twin._packing = self._packing
        twin._heap_argmax = self._heap_argmax
        twin._heaps = {}
        twin.stats = dict(self.stats)
        twin._solution = dict(self._solution)
        twin._covered_sum = self._covered_sum
        twin._covered_mask = self._covered_mask
        twin.rounds = self.rounds
        twin._cover_log = dict(self._cover_log)
        twin._diff_since_cache = {}
        twin._delta_cache = {}
        twin._pairs_live = self._pairs_live
        twin._pairs = dict(self._pairs)
        twin._by_lca = {
            joined: (group[0], group[1], dict(group[2]))
            for joined, group in self._by_lca.items()
        }
        return twin

    def clusters(self) -> list[Cluster]:
        """Current clusters in deterministic (pattern-sorted) order."""
        return [self._solution[key] for key in sorted(self._solution)]

    def members(self) -> Iterable[Cluster]:
        """Current clusters in no particular order: a live view, for
        callers whose result does not depend on order (valid until the
        next mutation)."""
        return self._solution.values()

    def avg(self) -> float:
        """Current objective avg(O)."""
        count = self.covered_count
        if not count:
            raise ValueError("engine holds no covered elements")
        return self._covered_sum / count

    def snapshot(self) -> Solution:
        """Freeze the current state into a :class:`Solution`.

        The solution carries a copy of the engine's argmax counters (plus
        an ``argmax_heap`` 0/1 flag) so callers up the stack — e.g.
        :class:`repro.service.Engine`, which folds them into
        ``SummaryResponse.phase_seconds`` — can report how much work the
        lazy heap saved without holding on to the engine.
        """
        ordered = sorted(
            self._solution.values(), key=lambda c: (-c.avg, c.pattern)
        )
        stats = dict(self.stats)
        stats["argmax_heap"] = 1.0 if self._heap_argmax else 0.0
        # Frontier width: mean heap entries popped per argmax round (the
        # max rides in argmax_pops_max); 0.0 under the scan argmax.
        stats["argmax_pops_mean"] = (
            stats["argmax_pops"] / stats["argmax_rounds"]
            if stats["argmax_rounds"]
            else 0.0
        )
        return Solution(
            tuple(ordered), self._covered_mask, self._covered_sum, stats=stats
        )

    # -- candidate evaluation --------------------------------------------------

    def _diff_since(self, stamp: int) -> int:
        """Mask of elements covered after round *stamp* (cached per round)."""
        diff = self._diff_since_cache.get(stamp)
        if diff is None:
            diff = self._covered_mask & ~self._cover_log[stamp]
            self._diff_since_cache[stamp] = diff
        return diff

    def _marginal(self, candidate: Cluster) -> tuple[float, int]:
        """(sum, count) of cov(candidate) \\ T: one AND-NOT plus popcount,
        value sums over set bits only.  Without ``use_delta`` it is
        recomputed every time (the Figure 8b baseline); with it, delta
        judgment refreshes a cached state by ANDing the candidate with
        the coverage growth window since its stamp, whatever its age."""
        answers = self.answers
        if not self.use_delta:
            diff = candidate.mask & ~self._covered_mask
            return answers.mask_value_sum(diff), diff.bit_count()
        rounds = self.rounds
        state = self._delta_cache.get(candidate.key)
        if state is not None:
            if state.stamp == rounds:
                return state.delta_sum, state.delta_cnt
            newly = self._diff_since(state.stamp) & candidate.mask
            if newly:
                state.delta_sum -= answers.mask_value_sum(newly)
                state.delta_cnt -= newly.bit_count()
            state.stamp = rounds
            return state.delta_sum, state.delta_cnt
        diff = candidate.mask & ~self._covered_mask
        delta_cnt = diff.bit_count()
        # Sum over whichever of cov(c) \ T and cov(c) & T has fewer bits;
        # the candidate's total value_sum makes the complement route O(1)
        # extra work.
        inter_cnt = candidate.mask.bit_count() - delta_cnt
        if inter_cnt < delta_cnt:
            delta_sum = candidate.value_sum - answers.mask_value_sum(
                candidate.mask & self._covered_mask
            )
        else:
            delta_sum = answers.mask_value_sum(diff)
        self._delta_cache[candidate.key] = _DeltaState(
            rounds, delta_sum, delta_cnt
        )
        return delta_sum, delta_cnt

    def evaluate_candidate(self, candidate: Cluster) -> float:
        """avg(O union candidate): the objective if *candidate* joined O."""
        delta_sum, delta_cnt = self._marginal(candidate)
        return (self._covered_sum + delta_sum) / (
            self.covered_count + delta_cnt
        )

    def evaluate_pair(self, c1: Cluster, c2: Cluster) -> tuple[float, Cluster]:
        """Objective after merging (c1, c2), and the LCA cluster itself."""
        merged = self._merged_cluster(c1, c2)
        return self.evaluate_candidate(merged), merged

    def place(self, incoming: Cluster, budget: int, D: int) -> None:
        """Algorithm 3's loop body for an *incoming* cluster that is not
        fully covered: add it while the solution holds fewer than
        *budget* clusters and no member lies at distance < *D*, else
        merge it into the best target (:meth:`best_merge_target`) among
        those near members, or among all members once the budget is full.

        One pass over the members computes each one's LCA with
        *incoming* once.  Its level is the pair's distance (the LCA-group
        invariant), so the same LCA answers the near test and keys the
        targets.  With room and ``D <= 1`` the pass is skipped: only
        distance 0 is near, which means equal star-free patterns, and a
        member equal to *incoming* would cover it.
        """
        room = len(self._solution) < budget
        if room and D <= 1:
            self.add(incoming)
            return
        key = incoming.key
        lca = self._packing.lca
        level = self._packing.level
        targets: dict[int, Cluster] = {}
        for member in self._solution.values():
            joined = lca(member.key, key)
            if room and level(joined) >= D:
                continue
            held = targets.get(joined)
            if held is None or member.key < held.key:
                targets[joined] = member
        if not targets:
            self.add(incoming)
            return
        self.merge_into(self.best_merge_target(targets), incoming)

    def best_merge_target(self, targets: dict[int, Cluster]) -> Cluster:
        """Fixed-Order's UpdateSolution argmax over pairs (member,
        incoming): *targets* maps each distinct LCA key of the incoming
        cluster with a member of O to the smallest such member, and the
        pick is the member whose LCA maximizes the merged objective, ties
        broken by the smallest (LCA pattern, member pattern).  The
        heap-mode bound relies on every member's coverage lying in T.

        Members sharing an LCA share its post-merge objective, so each
        LCA is evaluated at most once, against the covered sum and count
        read once per call; the floats are those of :meth:`evaluate_pair`.
        Under ``argmax="heap"`` the LCAs are evaluated in descending order
        of an upper bound on their objective (:meth:`_bounded_targets`),
        stopping as soon as the next bound is strictly below the best
        exact objective: every LCA that could win or tie has then been
        evaluated, so the pick is the scan's.  ``argmax="scan"`` evaluates
        every LCA.  A skipped LCA's delta state is left as it is; its next
        read refreshes across the whole window.
        """
        if not targets:
            raise ValueError("no merge candidates available")
        covered_sum = self._covered_sum
        covered_cnt = self.covered_count
        keyed = self.pool.keyed
        if self._heap_argmax and len(targets) > 1:
            ranked = self._bounded_targets(targets, covered_sum, covered_cnt)
        else:
            ranked = [
                (float("-inf"), joined, keyed(joined)) for joined in targets
            ]
        marginal = self._marginal
        best_avg = float("-inf")
        best_lca = None
        evals = 0
        for neg_bound, joined, cluster in ranked:
            if -neg_bound < best_avg:
                break  # no LCA from here on can win or tie
            delta_sum, delta_cnt = marginal(cluster)
            evals += 1
            new_avg = (covered_sum + delta_sum) / (covered_cnt + delta_cnt)
            if new_avg > best_avg or (
                new_avg == best_avg and joined < best_lca
            ):
                best_avg = new_avg
                best_lca = joined
        stats = self.stats
        stats["target_rounds"] = stats.get("target_rounds", 0.0) + 1.0
        stats["target_groups"] = stats.get("target_groups", 0.0) + len(targets)
        stats["target_evals"] = stats.get("target_evals", 0.0) + evals
        return targets[best_lca]

    def _bounded_targets(
        self,
        targets: dict[int, Cluster],
        covered_sum: float,
        covered_cnt: int,
    ) -> list[tuple[float, int, Cluster]]:
        """``(-bound, lca_key, lca_cluster)`` per distinct LCA of *targets*
        (which maps each LCA key to a member under it), sorted: the
        heap-mode evaluation order of :meth:`best_merge_target`.  Each
        bound is ``(S + ub) / (C + cnt)`` with ``(ub, cnt)`` from
        :meth:`_marginal_bounds`.
        """
        keyed = self.pool.keyed
        ranked = [
            (-(covered_sum + upper) / (covered_cnt + count), cluster.key,
             cluster)
            for cluster, upper, count in self._marginal_bounds(
                (keyed(joined), member) for joined, member in targets.items()
            )
        ]
        ranked.sort()
        return ranked

    def _marginal_bounds(
        self, candidates: Iterable[tuple[Cluster, Cluster]]
    ) -> Iterator[tuple[Cluster, float, int]]:
        """``(c, ub, cnt)`` per ``(c, member)`` of *candidates*, where
        *member* is a member of O under c: ``cnt`` is c's exact marginal
        count and ``ub`` a float upper bound on its marginal value sum.
        The bounds that order Fixed-Order's targets
        (:meth:`_bounded_targets`) and seed the lazy heaps
        (:meth:`_build_heap`).

        Each bound costs one mask AND, one popcount and one highest-bit
        read, and ``(S + ub) / (C + cnt)`` dominates c's float objective
        ``(S + delta_sum) / (C + delta_cnt)`` as :meth:`_marginal` would
        compute it now.  The count is exact: ``cnt = |c| - |c & T|`` is the
        int the marginal returns, so only the sum needs bounding.  Values are
        non-negative (the heap's precondition) and every value sum adds
        in ascending index order, so a sum over a subset of c never
        exceeds, in floats, the sum over c, and subtracting a
        non-negative float never rounds up.  Hence a **base** dominates
        the float marginal with no slack:

        * with a cached delta state, its stale ``delta_sum``, which the
          marginal refreshes by one subtraction;
        * without one, ``value_sum(c)``: the marginal is a subset sum of
          c, or ``value_sum(c)`` minus one.

        Bit j of every mask is rank j in descending value order, so
        ``v_min = values[msb(c & T)]`` is the smallest value c shares
        with T.  The base still counts elements now in T, which a
        **tightened** bound subtracts:

        * with a state, the ``delta_cnt - cnt`` elements covered since
          its stamp, each worth at least v_min;
        * without one, all of ``c & T``: the member's own elements (it
          lies under c and in T) worth ``value_sum(member)``, and the
          other ``|c & T| - |member|``, each worth at least v_min.

        In real arithmetic the tightened bound dominates the marginal.
        In floats, with u = 2^-53 and V = value_sum(c), the marginal's
        own work (one sum over at most n elements and one subtraction;
        with a state the base is the engine's float itself) lies at most
        (2n + 1) u V above its real value, and the tightened bound's
        floats (two sums against their real values, four rounded
        operations) lose at most (2n + 4) u V.  The slack ``2^-50 (n +
        2) V`` = 8 (n + 2) u V covers that (4n + 5) u V, its own
        rounding included.  The bound takes the smaller of base and
        tightened sum.

        With a float sum bound ``ub`` at least the float marginal, ``(S +
        ub) / (C + cnt)`` dominates the objective: IEEE addition, and
        division by the same positive denominator, are monotone.  A heap
        keeps ``ub`` as a group's stale sum, as it keeps an evaluated
        marginal: the real marginal only shrinks as T grows, so ``ub``
        bounds the later ones as it bounds this one.
        """
        values = self.answers.values
        covered = self._covered_mask
        cache = self._delta_cache
        slack = _TARGET_SLACK * (self.answers.n + 2)
        for cluster, member in candidates:
            inter = cluster.mask & covered
            inter_cnt = inter.bit_count()
            count = cluster.size - inter_cnt
            state = cache.get(cluster.key)
            if state is None:
                upper = cluster.value_sum
                tighter = upper - member.value_sum
                shared = inter_cnt - member.size
            else:
                upper = tighter = state.delta_sum
                shared = state.delta_cnt - count
            if shared:
                tighter -= shared * values[inter.bit_length() - 1]
            tighter += slack * cluster.value_sum
            yield cluster, (tighter if tighter < upper else upper), count

    def _merged_cluster(self, c1: Cluster, c2: Cluster) -> Cluster:
        """The LCA cluster of a pair, via the pair table when possible."""
        key1 = c1.key
        key2 = c2.key
        if self._pairs_live:
            row = self._pairs.get(
                (key1, key2) if key1 < key2 else (key2, key1)
            )
            if row is not None:
                return row[3]
        return self.pool.keyed(self._packing.lca(key1, key2))

    # -- pair enumeration ------------------------------------------------------

    def all_pairs(self) -> list[tuple[Cluster, Cluster]]:
        """All unordered cluster pairs, deterministically ordered."""
        ordered = self.clusters()
        return [
            (ordered[i], ordered[j])
            for i in range(len(ordered))
            for j in range(i + 1, len(ordered))
        ]

    def violating_pairs(self, D: int) -> list[tuple[Cluster, Cluster]]:
        """Pairs at distance < D (the phase-1 candidates of Algorithm 1)."""
        pairs = self._pair_table()
        return [
            (row[0], row[1])
            for key in sorted(pairs)
            for row in (pairs[key],)
            if row[2] < D
        ]

    def iter_pairs(
        self, max_distance: int | None = None
    ) -> Iterator[tuple[Cluster, Cluster, Cluster]]:
        """Yield ``(c1, c2, lca_cluster)`` for every unordered pair.

        Custom greedy criteria (e.g. the pairwise-average variant, the
        Min-Size objective) iterate this instead of rebuilding pair lists
        and re-deriving LCAs per round: everything comes straight from
        the pair table.
        """
        for row in self._pair_table().values():
            if max_distance is None or row[2] < max_distance:
                yield row[0], row[1], row[3]

    # -- the greedy step ---------------------------------------------------------

    def best_pair(
        self, pairs: Sequence[tuple[Cluster, Cluster]]
    ) -> tuple[Cluster, Cluster]:
        """UpdateSolution's argmax: the pair maximizing the merged objective.

        Ties are broken by the smallest (LCA pattern, pair patterns) so the
        greedy run is reproducible.
        """
        if not pairs:
            raise ValueError("best_pair() on an empty pair list")
        best = None
        best_key = None
        for c1, c2 in pairs:
            new_avg, merged = self.evaluate_pair(c1, c2)
            key = (-new_avg, merged.key, c1.key, c2.key)
            if best_key is None or key < best_key:
                best_key = key
                best = (c1, c2)
        assert best is not None
        return best

    def best_violating_pair(
        self, D: int
    ) -> tuple[Cluster, Cluster] | None:
        """The best pair at distance < D, or None when no pair violates D."""
        return self._best_group(D)

    def best_any_pair(self) -> tuple[Cluster, Cluster] | None:
        """The best pair over all pairs, or None when |O| < 2."""
        return self._best_group(None)

    def _best_group(
        self, max_distance: int | None
    ) -> tuple[Cluster, Cluster] | None:
        """The per-round LCA-group argmax over the persistent pair table
        (no list materialization, no distance or LCA recomputation): a
        lazy heap pop-and-refresh under ``argmax="heap"``, a full group
        scan under ``argmax="scan"``.  Both pick by the exact key of
        :meth:`best_pair`."""
        _budget_checkpoint()
        self._pair_table()
        self.stats["argmax_rounds"] += 1.0
        if self._heap_argmax:
            return self._heap_best(max_distance)
        return self._scan_best(max_distance)

    def _scan_best(
        self, max_distance: int | None
    ) -> tuple[Cluster, Cluster] | None:
        """Argmax over the pair table with the canonical tie-break key.

        Equivalent to :meth:`best_pair` over the same pairs — maximize the
        merged objective, break ties by the smallest (LCA pattern, first
        pattern, second pattern) — but it scans the LCA *groups*: all pairs
        in a group share their distance and their post-merge objective, so
        each group costs one (delta-cached) marginal evaluation and the
        winning pair is the lexicographically smallest key inside the
        winning group.  Per round this is O(#distinct LCAs) instead of
        O(|O|^2) evaluations.
        """
        by_lca = self._by_lca
        covered_sum = self._covered_sum
        covered_cnt = self._covered_mask.bit_count()
        marginal = self._marginal
        best_group = None
        best_joined = None
        best_avg = float("-inf")
        evals = 0
        for joined, group in by_lca.items():
            if max_distance is not None and group[0] >= max_distance:
                continue
            delta_sum, delta_cnt = marginal(group[1])
            evals += 1
            new_avg = (covered_sum + delta_sum) / (covered_cnt + delta_cnt)
            if new_avg < best_avg:
                continue
            if new_avg > best_avg or joined < best_joined:
                best_avg = new_avg
                best_joined = joined
                best_group = group
        self.stats["argmax_groups"] += evals
        self.stats["argmax_evals"] += evals
        if best_group is None:
            return None
        row = best_group[2][min(best_group[2])]
        return row[0], row[1]

    def _build_heap(self, max_distance: int | None) -> _ArgmaxHeap:
        """(Re)seed the lazy heap for one distance filter with bounds.

        Evaluates nothing: each group enters at the bound
        :meth:`_marginal_bounds` proves for its LCA (one AND, one
        popcount and one highest-bit read), given any member of one of
        its pairs.  A group whose delta state is stamped this round enters
        at its exact objective.  The first :meth:`_heap_best` round then
        evaluates only its frontier, as later rounds do.
        """
        by_lca = self._by_lca
        covered_sum = self._covered_sum
        covered_cnt = self._covered_mask.bit_count()
        heap = _ArgmaxHeap(covered_sum)
        meta = heap.meta
        entries = heap.entries
        for cluster, upper, count in self._marginal_bounds(
            (group[1], next(iter(group[2].values()))[0])
            for group in by_lca.values()
            if max_distance is None or group[0] < max_distance
        ):
            mass = covered_cnt + count
            priority = (covered_sum + upper) / mass
            meta[cluster.key] = (priority, upper, mass)
            entries.append((-priority, cluster.key))
        heapify(entries)
        self._heaps[max_distance] = heap
        return heap

    def _reprioritize_heap(self, heap: _ArgmaxHeap) -> None:
        """Reset drift by recomputing every priority from its stale bounds.

        No marginal is evaluated: each group's stored ``(stale_sum,
        stale_mass)`` is re-expressed as a refined bound under the
        *current* covered sum and count (three float ops per group), the
        entry list is rebuilt, and ``s_floor`` snaps to the present — so
        the stop bound is tight again at a fraction of the cost of a full
        evaluation pass.
        """
        covered_sum = self._covered_sum
        covered_cnt = self._covered_mask.bit_count()
        meta = heap.meta
        entries = []
        for joined, info in meta.items():
            stale_sum = info[1]
            stale_mass = info[2]
            denominator = (
                stale_mass if stale_mass > covered_cnt else covered_cnt
            )
            priority = (
                (covered_sum + stale_sum) / denominator
                if denominator
                else float("inf")
            )
            meta[joined] = (priority, stale_sum, stale_mass)
            entries.append((-priority, joined))
        heapify(entries)
        heap.entries = entries
        heap.s_floor = covered_sum

    def _heap_best(
        self, max_distance: int | None
    ) -> tuple[Cluster, Cluster] | None:
        """Lazy-heap argmax: pop stale bounds, refresh, stop when beaten.

        Exact and bit-identical to :meth:`_scan_best`: a popped group is
        re-evaluated with the very same cached-marginal floats and compared
        with the very same ``(avg, LCA pattern)`` key, and a group is only
        skipped or the loop only stopped when an *upper bound* on its
        objective is strictly below the best exact value seen.  Two bounds
        cooperate (see :class:`_ArgmaxHeap` for the ingredients):

        * the per-group **refined bound** ``(S + stale_sum) /
          max(C, stale_mass)`` decides evaluation *skips*.  Its float
          value provably dominates the group's exactly-computed float
          objective — numerators are ascending-order sums of non-negative
          values over supersets, denominator floors are exact ints, and
          IEEE addition/division are monotone — so a skip can never
          swallow a win or a tie, not even at the last ulp.  A skipped
          entry is re-pushed *re-prioritized* at its freshly computed
          bound, so as the solution average falls, once-competitive
          groups sink to their true level instead of being popped again
          every round.
        * the heap-top **stop bound** ``priority + drift`` (drift =
          ``(S - s_floor) / C``, slackened by :data:`_DRIFT_SLACK`)
          decides when to stop popping altogether: it dominates every
          remaining entry's refined bound, so once it falls below the
          best exact value nothing beneath the top can win or tie.  The
          engine reprioritizes the heap (resetting ``s_floor``) whenever
          drift exceeds a small fraction of the current average, keeping
          the stop bound tight at three float ops per group, with no
          evaluation.

        Together these make steady-state rounds touch only the
        near-optimal frontier plus newly created groups — sublinear in
        the number of LCA groups — where the scan touches all of them.
        """
        by_lca = self._by_lca
        covered_sum = self._covered_sum
        covered_cnt = self._covered_mask.bit_count()
        if len(self._heaps) > 1 or (
            self._heaps and max_distance not in self._heaps
        ):
            # Retire heaps for other distance filters: the greedy phases
            # query one filter at a time (distance phase, then size
            # phase), and a retired heap would otherwise keep absorbing
            # pushes from _register_pairs for the engine's remaining
            # lifetime.  A retired filter queried again simply rebuilds.
            for key in [k for k in self._heaps if k != max_distance]:
                del self._heaps[key]
        heap = self._heaps.get(max_distance)
        drift = 0.0
        if heap is None:
            heap = self._build_heap(max_distance)
        elif covered_cnt:
            drift = (covered_sum - heap.s_floor) / covered_cnt
            # Reprioritizing costs three float ops per group and resets
            # drift to zero; do it as soon as drift would start popping
            # more than the true near-optimal frontier.
            if drift > _REBUILD_DRIFT_FRACTION * (covered_sum / covered_cnt):
                self._reprioritize_heap(heap)
                drift = 0.0
        entries = heap.entries
        meta = heap.meta
        marginal = self._marginal
        best_group = None
        best_joined = None
        best_avg = float("-inf")
        evals = 0
        skips = 0
        pops = 0
        touched: set[int] = set()
        repush: list[tuple[float, int]] = []
        while entries:
            neg_priority, joined = entries[0]
            group = by_lca.get(joined)
            info = meta.get(joined)
            if group is None or info is None or info[0] != -neg_priority:
                heappop(entries)  # dissolved group or superseded entry
                pops += 1
                continue
            if joined in touched:
                heappop(entries)  # same-priority duplicate, handled above
                pops += 1
                continue
            if best_group is not None:
                if (-neg_priority + drift) * _DRIFT_SLACK < best_avg:
                    break  # stop bound: nothing below can win or tie
                stale_sum = info[1]
                stale_mass = info[2]
                denominator = (
                    stale_mass if stale_mass > covered_cnt else covered_cnt
                )
                refined = (covered_sum + stale_sum) / denominator
                if refined < best_avg:
                    # Refined skip: provably cannot win or tie; sink the
                    # entry to its current bound and move on unevaluated.
                    heappop(entries)
                    pops += 1
                    skips += 1
                    touched.add(joined)
                    meta[joined] = (refined, stale_sum, stale_mass)
                    repush.append((-refined, joined))
                    continue
            heappop(entries)
            pops += 1
            delta_sum, delta_cnt = marginal(group[1])
            evals += 1
            touched.add(joined)
            new_avg = (covered_sum + delta_sum) / (covered_cnt + delta_cnt)
            meta[joined] = (new_avg, delta_sum, covered_cnt + delta_cnt)
            repush.append((-new_avg, joined))
            if new_avg < best_avg:
                continue
            if new_avg > best_avg or joined < best_joined:
                best_avg = new_avg
                best_joined = joined
                best_group = group
        if len(repush) > max(64, len(entries) // 4):
            entries.extend(repush)
            heapify(entries)
        else:
            for entry in repush:
                heappush(entries, entry)
        self.stats["argmax_groups"] += len(meta)
        self.stats["argmax_evals"] += evals
        self.stats["argmax_skips"] += skips
        self.stats["argmax_pops"] += pops
        if pops > self.stats["argmax_pops_max"]:
            self.stats["argmax_pops_max"] = float(pops)
        if best_group is None:
            return None
        row = best_group[2][min(best_group[2])]
        return row[0], row[1]

    # -- pair table maintenance ------------------------------------------------

    def _pair_table(self) -> dict[tuple[int, int], _PairRow]:
        """The pair table, built on first use.

        Fixed-Order never reads the table, so engines build it only when
        a pair argmax or pair enumeration first asks: one pass pairing
        every current member with those before it.  From then on
        :meth:`add` and the merges maintain it in O(|O|) per step.
        """
        if not self._pairs_live:
            self._pairs_live = True
            members = list(self._solution.values())
            for count, cluster in enumerate(members):
                _budget_checkpoint()
                self._register_pairs(cluster, members[:count])
        return self._pairs

    def _register_pairs(
        self, cluster: Cluster, others: Iterable[Cluster]
    ) -> None:
        """Add table rows pairing *cluster* with each of *others*."""
        pairs = self._pairs
        by_lca = self._by_lca
        keyed = self.pool.keyed
        lca = self._packing.lca
        level = self._packing.level
        own = cluster.key
        heaps = self._heaps
        covered_cnt = self._covered_mask.bit_count() if heaps else 0
        covered_sum = self._covered_sum
        for other in others:
            other_key = other.key
            if other_key < own:
                first, second = other, cluster
                key = (other_key, own)
            else:
                first, second = cluster, other
                key = (own, other_key)
            joined = lca(own, other_key)
            group = by_lca.get(joined)
            if group is None:
                # A pair's distance is the level of its LCA.
                dist = level(joined)
                merged = keyed(joined)
                row = (first, second, dist, merged)
                by_lca[joined] = (dist, merged, {key: row})
                # A brand-new group enters every live heap whose filter it
                # matches, bounded by the LCA's *total* value sum — with
                # non-negative values (the heap's precondition) that
                # dominates any marginal sum, so laziness stays sound
                # without evaluating the newcomer here.  (During __init__
                # no heap exists yet; builds snapshot the full table.)
                for filter_distance, heap in heaps.items():
                    if filter_distance is None or dist < filter_distance:
                        priority = (
                            (covered_sum + merged.value_sum) / covered_cnt
                            if covered_cnt
                            else float("inf")
                        )
                        heap.meta[joined] = (
                            priority, merged.value_sum, 0,
                        )
                        heappush(heap.entries, (-priority, joined))
            else:
                row = (first, second, group[0], group[1])
                group[2][key] = row
            pairs[key] = row

    def _replace_clusters(self, removed: list[int], merged: Cluster) -> None:
        """Drop the members keyed *removed* from the solution (and pair
        table), insert *merged*: the O(|O|) per-merge structural update."""
        solution = self._solution
        for key in removed:
            del solution[key]
        pairs = self._pairs
        if self._pairs_live:
            by_lca = self._by_lca

            def drop(pair: tuple[int, int]) -> None:
                row = pairs.pop(pair, None)
                if row is None:
                    return
                joined = row[3].key
                group = by_lca[joined]
                del group[2][pair]
                if not group[2]:
                    del by_lca[joined]
                    # Dissolved groups leave the heaps lazily: clearing the
                    # bound invalidates their entries, which are discarded
                    # on pop.
                    for heap in self._heaps.values():
                        heap.meta.pop(joined, None)

            for key in removed:
                for other in solution:
                    drop((key, other) if key < other else (other, key))
            for i, key in enumerate(removed):
                for other in removed[i + 1:]:
                    drop((key, other) if key < other else (other, key))
        if merged.key not in solution:
            if self._pairs_live:
                self._register_pairs(merged, solution.values())
            solution[merged.key] = merged

    def _advance_round(self) -> None:
        """Bump the round counter and record the covered-union snapshot.

        Every 64 rounds, delta states that slept for more than a full
        window are evicted (their next touch is an ordinary full
        recompute, exactly as if never cached) and the history is pruned
        below the oldest surviving stamp — so both the log and the worst
        case delta cache staleness stay bounded at ~two windows instead
        of growing with the engine's lifetime.
        """
        self.rounds += 1
        self._cover_log[self.rounds] = self._covered_mask
        self._diff_since_cache.clear()
        if self.rounds % 64 == 0 and len(self._cover_log) > 64:
            cache = self._delta_cache
            horizon = self.rounds - 64
            for key in [
                k for k, state in cache.items() if state.stamp < horizon
            ]:
                del cache[key]
            floor = min(
                (state.stamp for state in cache.values()),
                default=self.rounds,
            )
            for stamp in [r for r in self._cover_log if r < floor]:
                del self._cover_log[stamp]

    def _absorb_coverage(self, merged: Cluster) -> None:
        """Fold cov(*merged*) into T and its values into the covered sum.

        A round that priced *merged* (its delta state is stamped this
        round: Fixed-Order's target, every Bottom-Up winner) adds that
        marginal, which is cov(*merged*) \\ T, instead of summing it
        again.  On exact (dyadic) values that is the same float;
        otherwise the objective is the one the round compared.
        """
        state = self._delta_cache.get(merged.key)
        if state is not None and state.stamp == self.rounds:
            if state.delta_cnt:
                self._covered_mask |= merged.mask
                self._covered_sum += state.delta_sum
            return
        fresh = merged.mask & ~self._covered_mask
        if fresh:
            self._covered_mask |= fresh
            self._covered_sum += self.answers.mask_value_sum(fresh)

    def merge(self, c1: Cluster, c2: Cluster) -> Cluster:
        """Apply Merge(O, c1, c2): replace by the LCA, drop covered clusters.

        Returns the new cluster.  Updates the covered union, the round
        counter and coverage log that delta judgment consumes, and the
        pair table.
        """
        if c1.key not in self._solution or c2.key not in self._solution:
            raise ValueError("merge() on clusters not in the current solution")
        merged = self._merged_cluster(c1, c2)
        self._absorb_coverage(merged)
        removed = self._packing.strictly_covered(merged.key, self._solution)
        for key in (c1.key, c2.key):
            if key != merged.key and key not in removed:
                removed.append(key)
        self._replace_clusters(removed, merged)
        self._advance_round()
        return merged

    def add(self, cluster: Cluster) -> None:
        """Insert a cluster (used by Fixed-Order when a top element fits).

        The caller is responsible for constraint checks; this just keeps the
        covered union, the delta bookkeeping, and the pair table consistent.
        """
        if cluster.key in self._solution:
            return
        self._absorb_coverage(cluster)
        if self._pairs_live:
            self._register_pairs(cluster, self._solution.values())
        self._solution[cluster.key] = cluster
        self._advance_round()

    def merge_into(self, existing: Cluster, incoming: Cluster) -> Cluster:
        """Merge an *incoming* cluster (not yet in O) with an existing one.

        Fixed-Order's variant of Merge: the incoming singleton is combined
        with a chosen member of O; the LCA replaces the member and swallows
        any newly covered clusters.
        """
        if existing.key not in self._solution:
            raise ValueError("merge_into() target not in the current solution")
        merged = self.pool.keyed(self._packing.lca(existing.key, incoming.key))
        self._absorb_coverage(merged)
        removed = self._packing.strictly_covered(merged.key, self._solution)
        if existing.key != merged.key and existing.key not in removed:
            removed.append(existing.key)
        self._replace_clusters(removed, merged)
        self._advance_round()
        return merged

    def min_pairwise_distance(self) -> int:
        """Minimum pairwise distance in O (m+1 when |O| < 2)."""
        if len(self._solution) < 2:
            return self.answers.m + 1
        return min(row[2] for row in self._pair_table().values())
