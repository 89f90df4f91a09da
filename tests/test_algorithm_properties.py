"""Hypothesis property tests over whole algorithm runs.

Random instances are drawn with hypothesis; every greedy algorithm must
return a feasible solution (Definition 4.1), every solution must dominate
the trivial lower bound, and the structural invariants of Section 5.1 must
hold along any merge trajectory.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reference
from repro.core.answers import AnswerSet
from repro.core.bitset import KERNELS
from repro.core.bottom_up import (
    bottom_up,
    bottom_up_level_start,
    bottom_up_pairwise_avg,
)
from repro.core.brute_force import brute_force, lower_bound
from repro.core.cluster import distance, lca
from repro.core.fixed_order import fixed_order
from repro.core.hybrid import hybrid
from repro.core.merge import ARGMAX_MODES, MergeEngine
from repro.core.semilattice import ClusterPool
from repro.core.solution import check_feasibility


@st.composite
def instances(draw):
    """(answers, k, L, D) with 8-24 elements over 3-4 attributes."""
    m = draw(st.integers(min_value=3, max_value=4))
    domain = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=8, max_value=24))
    n = min(n, domain ** m)
    element_strategy = st.tuples(
        *[st.integers(min_value=0, max_value=domain - 1)] * m
    )
    elements = draw(
        st.lists(
            element_strategy, min_size=n, max_size=n, unique=True
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    answers = AnswerSet(elements, values)
    k = draw(st.integers(min_value=1, max_value=n))
    L = draw(st.integers(min_value=1, max_value=min(n, 8)))
    D = draw(st.integers(min_value=0, max_value=m))
    return answers, k, L, D


@st.composite
def dyadic_instances(draw, max_n=24, max_domain=3, max_L=8):
    """Like :func:`instances` but with dyadic-rational values (k/4).

    Dyadic values make every partial sum exactly representable in binary
    floating point, so value sums are independent of summation order:
    the merge engine (which sums cached marginals, refreshed by
    subtraction) and the reference engine (which sums each marginal
    afresh) are guaranteed to compute *identical* floats, and the
    equivalence tests can demand exact solution equality.
    """
    m = draw(st.integers(min_value=3, max_value=4))
    domain = draw(st.integers(min_value=2, max_value=max_domain))
    n = draw(st.integers(min_value=8, max_value=max_n))
    n = min(n, domain ** m)
    # n distinct elements as the first n codes of a shuffled domain: far
    # cheaper to draw at large n than a unique list of tuples.
    codes = draw(st.permutations(range(domain ** m)))[:n]
    elements = [
        tuple(code // domain ** attr % domain for attr in range(m))
        for code in codes
    ]
    values = [
        q / 4.0
        for q in draw(
            st.lists(
                st.integers(min_value=0, max_value=40),
                min_size=n,
                max_size=n,
            )
        )
    ]
    answers = AnswerSet(elements, values)
    k = draw(st.integers(min_value=1, max_value=n))
    L = draw(st.integers(min_value=1, max_value=min(n, max_L)))
    D = draw(st.integers(min_value=0, max_value=m))
    return answers, k, L, D


@settings(max_examples=40, deadline=None)
@given(instances())
def test_bottom_up_always_feasible(instance):
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    solution = bottom_up(pool, k, D)
    assert not check_feasibility(solution, answers, k, L, D)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_fixed_order_always_feasible(instance):
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    solution = fixed_order(pool, k, D)
    assert not check_feasibility(solution, answers, k, L, D)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_hybrid_always_feasible(instance):
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    solution = hybrid(pool, k, D)
    assert not check_feasibility(solution, answers, k, L, D)


@settings(max_examples=30, deadline=None)
@given(instances())
def test_everything_dominates_lower_bound(instance):
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    floor = lower_bound(pool).avg
    for algorithm in (bottom_up, fixed_order, hybrid):
        assert algorithm(pool, k, D).avg >= floor - 1e-9


@settings(max_examples=25, deadline=None)
@given(instances())
def test_merge_trajectory_invariants(instance):
    """Along any merge order: coverage of the top-L never breaks, the
    antichain property holds, and the minimum pairwise distance never
    decreases (the three invariants of Section 5.1)."""
    from repro.core.cluster import strictly_covers

    answers, _, L, _ = instance
    pool = ClusterPool(answers, L=L)
    engine = MergeEngine(pool, (pool.singleton(i) for i in range(L)))
    previous_distance = engine.min_pairwise_distance()
    top = set(range(L))
    while engine.size > 1:
        clusters = engine.clusters()
        engine.merge(clusters[0], clusters[-1])
        assert all(engine.is_covered(i) for i in top)
        current = engine.clusters()
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                assert not strictly_covers(a.pattern, b.pattern)
                assert not strictly_covers(b.pattern, a.pattern)
        distance_now = engine.min_pairwise_distance()
        assert distance_now >= previous_distance
        previous_distance = distance_now


@settings(max_examples=25, deadline=None)
@given(instances())
def test_snapshot_avg_equals_recomputed_avg(instance):
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    for algorithm in (bottom_up, fixed_order, hybrid):
        solution = algorithm(pool, k, D)
        recomputed = answers.avg_of(solution.covered)
        assert abs(solution.avg - recomputed) < 1e-9


@settings(max_examples=20, deadline=None)
@given(instances())
def test_solution_clusters_come_from_pool(instance):
    """Every output pattern is a generalization of some top-L element."""
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    for algorithm in (bottom_up, fixed_order, hybrid):
        for cluster in algorithm(pool, k, D).clusters:
            assert cluster.pattern in pool


# -- kernel equivalence (bitset vs dense) ------------------------------------


def _pools_per_kernel(answers, L):
    """One pool per kernel, each in its own mask representation."""
    return {kernel: ClusterPool(answers, L=L, kernel=kernel)
            for kernel in KERNELS}


@settings(max_examples=40, deadline=None)
@given(dyadic_instances())
def test_kernels_produce_identical_solutions(instance):
    """``kernel="bitset"`` and ``kernel="dense"`` return bit-identical
    solutions for every algorithm, on both the delta-judgment and the
    naive evaluation paths, so the kernels are interchangeable."""
    answers, k, L, D = instance
    pools = _pools_per_kernel(answers, L)
    runs = [
        lambda kr: bottom_up(pools[kr], k, D, kernel=kr),
        lambda kr: bottom_up(pools[kr], k, D, use_delta=False, kernel=kr),
        lambda kr: bottom_up_level_start(pools[kr], k, D, kernel=kr),
        lambda kr: bottom_up_pairwise_avg(pools[kr], k, D, kernel=kr),
        lambda kr: fixed_order(pools[kr], k, D, kernel=kr),
        lambda kr: hybrid(pools[kr], k, D, kernel=kr),
    ]
    for run in runs:
        reference = run(KERNELS[0])
        for kernel in KERNELS[1:]:
            other = run(kernel)
            assert other.patterns() == reference.patterns(), kernel
            assert other.covered == reference.covered, kernel
            assert other.value_sum == reference.value_sum, kernel


@settings(max_examples=15, deadline=None)
@given(dyadic_instances())
def test_brute_force_kernels_agree(instance):
    """The exact search finds the same optimum on both kernels."""
    answers, _, L, D = instance
    L = min(L, 4)  # keep the exponential search tiny
    pools = _pools_per_kernel(answers, L)
    reference = brute_force(pools["bitset"], 2, D, kernel="bitset")
    other = brute_force(pools["dense"], 2, D, kernel="dense")
    assert other.patterns() == reference.patterns()


# -- the reference engine is the oracle --------------------------------------


def _check_against_reference(instance):
    """Hybrid, Bottom-Up and Fixed-Order on both kernels, under every
    argmax mode and with delta judgment on and off, return the literal
    reference engine's patterns, covered set and value sum."""
    answers, k, L, D = instance
    pools = _pools_per_kernel(answers, L)
    for run, oracle in ((hybrid, reference.hybrid),
                        (bottom_up, reference.bottom_up),
                        (fixed_order, reference.fixed_order)):
        expected = oracle(pools["bitset"], k, D)
        for kernel, pool in pools.items():
            for argmax in ARGMAX_MODES:
                for use_delta in (True, False):
                    got = run(pool, k, D, kernel=kernel, argmax=argmax,
                              use_delta=use_delta)
                    label = (run.__name__, kernel, argmax, use_delta)
                    assert got.patterns() == expected.patterns(), label
                    assert got.covered == expected.covered, label
                    assert got.value_sum == expected.value_sum, label


@settings(max_examples=40, deadline=None)
@given(dyadic_instances())
def test_engine_matches_reference(instance):
    _check_against_reference(instance)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(dyadic_instances(max_n=200, max_domain=5, max_L=24))
def test_engine_matches_reference_slow(instance):
    _check_against_reference(instance)


# -- incremental pair cache vs full rescan -----------------------------------


def _rescan_pairs(engine):
    """Recompute the pair structure from scratch: the ground truth the
    incremental table must match after any merge sequence."""
    ordered = engine.clusters()
    rescan = {}
    for i, c1 in enumerate(ordered):
        for c2 in ordered[i + 1:]:
            rescan[(c1.pattern, c2.pattern)] = (
                distance(c1.pattern, c2.pattern),
                lca(c1.pattern, c2.pattern),
            )
    return rescan


@settings(max_examples=25, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_pair_cache_matches_full_rescan(instance, rng):
    """After arbitrary merge sequences, the incremental pair table holds
    exactly the pairs a full rescan derives, with the same distances and
    LCA patterns, and the same best pair as the naive argmax."""
    answers, _, L, _ = instance
    pool = ClusterPool(answers, L=L)
    engine = MergeEngine(pool, (pool.singleton(i) for i in range(L)))
    while engine.size > 1:
        rescan = _rescan_pairs(engine)
        # The table-driven argmax must equal the naive scan's argmax (it
        # also builds the table on the first round).
        fast = engine.best_any_pair()
        table = {
            (row[0].pattern, row[1].pattern): (row[2], row[3].pattern)
            for row in engine._pairs.values()
        }
        assert table == rescan
        assert engine.min_pairwise_distance() == min(
            (d for d, _ in rescan.values()), default=answers.m + 1
        )
        naive = engine.best_pair(engine.all_pairs())
        assert (fast[0].pattern, fast[1].pattern) == (
            naive[0].pattern, naive[1].pattern,
        )
        clusters = engine.clusters()
        c1 = rng.choice(clusters)
        c2 = rng.choice([c for c in clusters if c.pattern != c1.pattern])
        engine.merge(c1, c2)
    assert engine._pairs == {}


@settings(max_examples=25, deadline=None)
@given(dyadic_instances(), st.randoms(use_true_random=False))
def test_delta_cache_matches_rescan_after_merges(instance, rng):
    """Delta-judgment marginals (bitset kernel) equal a from-scratch
    recomputation for every pool candidate after arbitrary merges."""
    answers, _, L, _ = instance
    pool = ClusterPool(answers, L=L)
    engine = MergeEngine(pool, (pool.singleton(i) for i in range(L)))
    candidates = [pool.cluster(p) for p in pool.patterns()]
    while engine.size > 1:
        clusters = engine.clusters()
        c1 = rng.choice(clusters)
        c2 = rng.choice([c for c in clusters if c.pattern != c1.pattern])
        engine.merge(c1, c2)
        for candidate in candidates:
            cached_sum, cached_cnt = engine._marginal(candidate)
            fresh = [
                i for i in candidate.covered if not engine.is_covered(i)
            ]
            assert cached_cnt == len(fresh)
            assert cached_sum == sum(answers.values[i] for i in fresh)
