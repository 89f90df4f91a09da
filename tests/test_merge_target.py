"""Fixed-Order's merge-target argmax (``MergeEngine.best_merge_target``).

Under ``argmax="heap"`` the engine evaluates the distinct LCAs of the
incoming element in descending order of an upper bound and stops once no
bound can win or tie.  On dyadic values every sum is exact, so the
heap-vs-scan identity properties cannot see a bound that rounds below its
LCA's objective; the property here draws non-dyadic values of mixed
magnitudes, with exact non-dyadic ties, and checks every pick against an
exhaustive evaluation by a twin engine with copied delta states.  (Whole
runs are not compared: a skipped LCA refreshes later across a wider
window, so on such floats a later objective may differ by an ulp from the
scan's, and an exact tie may then break the other way.)  The counter tests
pin the ``target_*`` stats that report the work.
"""

from __future__ import annotations

import copy
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.answers import AnswerSet
from repro.core.bottom_up import bottom_up
from repro.core.fixed_order import fixed_order
from repro.core.hybrid import hybrid
from repro.core.merge import TARGET_COUNTERS, MergeEngine, _DeltaState
from repro.core.semilattice import ClusterPool
from repro.obs import Telemetry
from repro.service import Engine, SummaryRequest
from repro.service.serve import Dispatcher
from tests.conftest import random_answer_set

#: Non-dyadic values drawn often enough to tie exactly, from 1e-6 to 1e8.
_TIED_VALUES = (0.0, 0.1, 0.3, 1 / 3, 2 / 3, 0.7, 1e-6 / 3, 1e8 / 3,
                1e7 + 0.1, 1234.5678)


@st.composite
def mixed_float_instances(draw):
    """``(answers, k, L, D, kernel)`` with non-dyadic, mixed-magnitude,
    non-negative values (so the heap path runs) and a budget small
    enough that Fixed-Order merges."""
    m = draw(st.integers(min_value=3, max_value=4))
    domain = draw(st.integers(min_value=3, max_value=4))
    n = min(draw(st.integers(min_value=10, max_value=48)), domain ** m)
    elements = draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=domain - 1)] * m),
        min_size=n, max_size=n, unique=True,
    ))
    values = draw(st.lists(
        st.one_of(
            st.sampled_from(_TIED_VALUES),
            st.floats(min_value=1e-6, max_value=1e8),
        ),
        min_size=n, max_size=n,
    ))
    L = draw(st.integers(min_value=2, max_value=n))
    k = draw(st.integers(min_value=1, max_value=max(1, L // 3)))
    D = draw(st.integers(min_value=0, max_value=m))
    kernel = draw(st.sampled_from(("bitset", "dense")))
    return AnswerSet(elements, values), k, L, D, kernel


def _scan_twin(engine: MergeEngine) -> MergeEngine:
    """A copy of *engine* that scans every LCA, with its own copies of
    the delta states, so evaluating there leaves *engine* untouched."""
    twin = copy.copy(engine)
    twin._heap_argmax = False
    twin.stats = {}
    twin._diff_since_cache = dict(engine._diff_since_cache)
    twin._delta_cache = {
        pattern: _DeltaState(state.stamp, state.delta_sum, state.delta_cnt)
        for pattern, state in engine._delta_cache.items()
    }
    return twin


def _check_every_pick(instance) -> None:
    answers, k, L, D, kernel = instance
    pool = ClusterPool(answers, L=L, kernel=kernel)
    real = MergeEngine.best_merge_target
    checks = []

    def checked(engine, targets):
        expected = real(_scan_twin(engine), targets)
        picked = real(engine, targets)
        assert engine.argmax == "heap"
        assert picked.pattern == expected.pattern
        checks.append(picked)
        return picked

    with mock.patch.object(MergeEngine, "best_merge_target", checked):
        runs = [hybrid(pool, k, D, kernel=kernel),
                fixed_order(pool, k, D, kernel=kernel)]
    # Every pick went through the patched name: none bypassed the check.
    assert len(checks) == sum(run.stats["target_rounds"] for run in runs)


@settings(max_examples=40, deadline=None)
@given(mixed_float_instances())
def test_bound_order_picks_the_scan_target_on_mixed_floats(instance):
    _check_every_pick(instance)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(mixed_float_instances())
def test_bound_order_picks_the_scan_target_on_mixed_floats_slow(instance):
    _check_every_pick(instance)


@st.composite
def dyadic_streams(draw):
    """``(answers, budget, L, D, kernel)`` with dyadic values (every sum
    exact), D anywhere in ``[0, m + 1]`` and budgets both below and
    above the number of elements that arrive uncovered."""
    m = draw(st.integers(min_value=3, max_value=4))
    domain = draw(st.integers(min_value=3, max_value=4))
    n = min(draw(st.integers(min_value=10, max_value=48)), domain ** m)
    elements = draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=domain - 1)] * m),
        min_size=n, max_size=n, unique=True,
    ))
    values = [q / 8.0 for q in draw(st.lists(
        st.integers(min_value=0, max_value=80), min_size=n, max_size=n,
    ))]
    L = draw(st.integers(min_value=2, max_value=n))
    budget = draw(st.integers(min_value=1, max_value=L))
    D = draw(st.integers(min_value=0, max_value=m + 1))
    kernel = draw(st.sampled_from(("bitset", "dense")))
    return AnswerSet(elements, values), budget, L, D, kernel


def _two_pass_place(engine: MergeEngine, incoming, budget: int, D: int):
    """Algorithm 3's loop body in two passes: the members at distance < D
    while the budget has room (add when there are none), then the member
    whose LCA with *incoming* maximizes the merged objective among them,
    every LCA evaluated, ties to the smallest (LCA, member) key."""
    distance = engine._packing.distance
    lca = engine._packing.lca
    members = list(engine.members())
    if engine.size < budget:
        members = [
            member for member in members
            if distance(member.key, incoming.key) < D
        ]
        if not members:
            engine.add(incoming)
            return
    target = min(members, key=lambda member: (
        -engine.evaluate_pair(member, incoming)[0],
        lca(member.key, incoming.key),
        member.key,
    ))
    engine.merge_into(target, incoming)


@settings(max_examples=60, deadline=None)
@given(dyadic_streams())
def test_place_adds_and_merges_as_the_two_pass_reference(instance):
    """One member pass (and no pass at all for D <= 1 with room) makes
    the same add-or-merge decision and the same target, step by step."""
    answers, budget, L, D, kernel = instance
    pool = ClusterPool(answers, L=L, kernel=kernel)
    engine = MergeEngine(pool, (), kernel=kernel)
    reference = MergeEngine(pool, (), kernel=kernel, argmax="scan")
    for index in answers.top(L):
        incoming = pool.singleton(index)
        assert engine.is_covered(index) == reference.is_fully_covered(incoming)
        if engine.is_covered(index):
            continue
        engine.place(incoming, budget, D)
        _two_pass_place(reference, incoming, budget, D)
        assert sorted(engine._solution) == sorted(reference._solution)
        assert engine.covered_count == reference.covered_count
        assert engine._covered_sum == reference._covered_sum


@settings(max_examples=40, deadline=None)
@given(dyadic_streams(), st.randoms(use_true_random=False))
def test_covered_sum_is_the_covered_value_sum_after_every_step(
    instance, rng
):
    """A merge adds the marginal its round priced instead of summing
    cov(merged) \\ T again; on exact values that is the same float, so
    the covered sum equals a fresh sum over T after every add and merge
    of Hybrid, Bottom-Up and Fixed-Order, and of a random trajectory
    that prices a few pairs per round but merges any pair (whose delta
    state may be stale, or stamped this round)."""
    answers, budget, L, D, kernel = instance
    pool = ClusterPool(answers, L=L, kernel=kernel)
    real = MergeEngine._advance_round
    steps = []

    def checked(engine):
        assert engine._covered_sum == answers.mask_value_sum(
            engine._covered_mask
        )
        steps.append(engine.rounds)
        real(engine)

    with mock.patch.object(MergeEngine, "_advance_round", checked):
        hybrid(pool, budget, D, kernel=kernel)
        bottom_up(pool, budget, D, kernel=kernel)
        fixed_order(pool, budget, D, kernel=kernel)
        engine = MergeEngine(
            pool, (pool.singleton(i) for i in answers.top(L)), kernel=kernel
        )
        while engine.size > 1:
            pairs = engine.all_pairs()
            for pair in rng.sample(pairs, min(3, len(pairs))):
                engine.evaluate_pair(*pair)
            engine.merge(*rng.choice(pairs))
    assert steps


def _structured_answers(n: int = 1000, seed: int = 1) -> AnswerSet:
    """Dyadic values that step with two attributes, so the top-L has the
    structure of a real ranking (uniform random values have almost none,
    and then few bounds can prune)."""
    rng = random.Random(seed)
    cardinalities = (6, 5, 4, 4, 3)
    elements = []
    for code in rng.sample(range(6 * 5 * 4 * 4 * 3), n):
        element = []
        for size in cardinalities:
            element.append(code % size)
            code //= size
        elements.append(tuple(element))
    values = [
        16.0 * (e[0] % 3 == 0) + 8.0 * (e[1] % 2 == 0)
        + rng.randrange(256) / 64.0
        for e in elements
    ]
    return AnswerSet(elements, values)


class TestTargetCounters:
    @staticmethod
    def _pool() -> ClusterPool:
        return ClusterPool(_structured_answers(), L=100)

    def test_bound_order_evaluates_a_fraction_of_the_lcas(self):
        pool = self._pool()
        by_heap = hybrid(pool, 10, 1)
        by_scan = hybrid(pool, 10, 1, argmax="scan")
        assert by_heap.patterns() == by_scan.patterns()
        heap_stats, scan_stats = by_heap.stats, by_scan.stats
        assert heap_stats["target_rounds"] == scan_stats["target_rounds"] > 0
        assert heap_stats["target_groups"] == scan_stats["target_groups"]
        assert heap_stats["target_evals"] <= 0.3 * heap_stats["target_groups"]
        assert scan_stats["target_evals"] == scan_stats["target_groups"]

    def test_keys_on_every_fixed_order_run_and_no_other(self):
        pool = self._pool()
        # k >= L at D=0: every element is added, nothing merges.
        unmerged = fixed_order(pool, 100, 0)
        assert {name: unmerged.stats[name] for name in TARGET_COUNTERS} == {
            name: 0.0 for name in TARGET_COUNTERS
        }
        assert set(TARGET_COUNTERS) <= set(fixed_order(pool, 5, 1).stats)
        assert not set(TARGET_COUNTERS) & set(bottom_up(pool, 5, 1).stats)

    def test_counters_reach_the_wire_and_the_solve_span(self):
        engine = Engine()
        engine.register_dataset(
            "d", random_answer_set(n=200, m=4, domain=5, seed=4)
        )
        request = {"schema_version": 2, "kind": "summary", "dataset": "d",
                   "k": 5, "L": 60, "D": 1, "trace": True}
        dispatcher = Dispatcher(engine, telemetry=Telemetry(tracing=True))
        response = dispatcher.dispatch_payload(dict(request)).response
        assert response["algorithm"] == "hybrid"
        solve = next(
            child for child in response["trace"]["spans"][0]["children"]
            if child["name"] == "engine.solve"
        )
        for name in TARGET_COUNTERS:
            assert response["phase_seconds"][name] == solve["attributes"][name]
        assert response["phase_seconds"]["target_rounds"] > 0
        bottom = engine.submit(SummaryRequest(
            dataset="d", k=5, L=60, D=1, algorithm="bottom-up",
        ))
        assert not set(TARGET_COUNTERS) & set(bottom.phase_seconds)
