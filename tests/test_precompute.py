"""Tests for the (k, D)-sweep precomputation and the solution store.

The key contracts: retrieved solutions are feasible; they match the
objective recorded during the sweep; cluster lifetimes are contiguous in k
(Continuity, Proposition 6.1); and the interval-tree storage is smaller
than materializing every (k, D) solution.
"""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.semilattice import ClusterPool
from repro.core.solution import check_feasibility
from repro.interactive.precompute import SolutionStore
from tests.conftest import random_answer_set


@pytest.fixture(scope="module")
def store_setup():
    answers = random_answer_set(n=80, m=5, domain=4, seed=21)
    pool = ClusterPool(answers, L=12)
    store = SolutionStore(pool, k_range=(2, 12), d_values=[0, 1, 2, 3])
    return answers, pool, store


class TestRetrieval:
    def test_all_retrievals_feasible(self, store_setup):
        answers, pool, store = store_setup
        for D in store.d_values:
            for k in range(store.k_min, store.k_max + 1):
                solution = store.retrieve(k, D)
                violations = check_feasibility(solution, answers, k, 12, D)
                assert not violations, (k, D, violations)

    def test_objective_matches_retrieved_solution(self, store_setup):
        answers, pool, store = store_setup
        for D in store.d_values:
            for k in range(store.k_min, store.k_max + 1):
                solution = store.retrieve(k, D)
                assert solution.avg == pytest.approx(store.objective(k, D))

    def test_solution_size_matches(self, store_setup):
        _, _, store = store_setup
        for D in store.d_values:
            for k in range(store.k_min, store.k_max + 1):
                assert store.retrieve(k, D).size == store.solution_size(k, D)
                assert store.solution_size(k, D) <= k

    def test_out_of_range_k_rejected(self, store_setup):
        _, _, store = store_setup
        with pytest.raises(InvalidParameterError):
            store.retrieve(1, 1)
        with pytest.raises(InvalidParameterError):
            store.retrieve(13, 1)

    def test_unprecomputed_d_rejected(self, store_setup):
        _, _, store = store_setup
        with pytest.raises(InvalidParameterError):
            store.retrieve(5, 4)


class TestContinuity:
    def test_cluster_lifetimes_are_contiguous(self, store_setup):
        """Proposition 6.1: for fixed (L, D), the k values where a cluster
        appears form one contiguous interval."""
        _, _, store = store_setup
        for D in store.d_values:
            appearances: dict[tuple[int, ...], list[int]] = {}
            for k in range(store.k_min, store.k_max + 1):
                for cluster in store.retrieve(k, D).clusters:
                    appearances.setdefault(cluster.pattern, []).append(k)
            for pattern, ks in appearances.items():
                ks = sorted(ks)
                assert ks == list(range(ks[0], ks[-1] + 1)), (D, pattern, ks)
                assert store.cluster_lifetime(pattern, D) == (ks[0], ks[-1])

    def test_interval_storage_compresses(self, store_setup):
        _, _, store = store_setup
        assert store.stored_interval_count() < store.naive_storage_count()


class TestObjectiveShape:
    def test_objective_nonincreasing_as_k_shrinks(self, store_setup):
        # Merging can only lower (or keep) the achievable average, so the
        # guidance curves are monotone along each sweep.
        _, _, store = store_setup
        for D in store.d_values:
            curve = [
                store.objective(k, D)
                for k in range(store.k_min, store.k_max + 1)
            ]
            assert all(a <= b + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_distance_zero_dominates_larger_d(self, store_setup):
        # A looser distance constraint never hurts the greedy's start state,
        # and at k_max (no forced merging) D=0 keeps the most detail.
        _, _, store = store_setup
        k = store.k_max
        assert store.objective(k, 0) >= store.objective(k, 3) - 1e-9


class TestParameterValidation:
    def test_bad_k_range(self, store_setup):
        _, pool, _ = store_setup
        with pytest.raises(InvalidParameterError):
            SolutionStore(pool, k_range=(5, 2), d_values=[1])

    def test_empty_d_values(self, store_setup):
        _, pool, _ = store_setup
        with pytest.raises(InvalidParameterError):
            SolutionStore(pool, k_range=(2, 5), d_values=[])

    def test_k_max_beyond_n_rejected(self, store_setup):
        _, pool, _ = store_setup
        n = pool.answers.n
        with pytest.raises(InvalidParameterError, match="k_max <= n"):
            SolutionStore(pool, k_range=(2, n + 1), d_values=[1])
        assert SolutionStore(pool, k_range=(n - 1, n), d_values=[1]).k_max == n

    def test_d_values_outside_0_m_rejected(self, store_setup):
        _, pool, _ = store_setup
        m = pool.answers.m
        for bad in (-1, m + 1):
            with pytest.raises(InvalidParameterError, match="out of range"):
                SolutionStore(pool, k_range=(2, 5), d_values=[0, bad])
        store = SolutionStore(pool, k_range=(2, 5), d_values=[0, m])
        assert store.d_values == (0, m)


def test_k_range_up_to_n_records_no_more_than_L():
    """No state has more than L clusters, so a k_range reaching n (far
    above L) serves every k > L from the k = L state, and the sweeps
    record no k above L: their work and size stay bounded by L."""
    answers = random_answer_set(n=2000, m=4, domain=8, seed=5)
    pool = ClusterPool(answers, L=6)
    wide = SolutionStore(pool, k_range=(1, answers.n), d_values=[0, 1, 4])
    narrow = SolutionStore(pool, k_range=(1, 6), d_values=[0, 1, 4])
    assert all(len(sweep.avg_by_k) == 6 for sweep in wide._sweeps.values())
    for D in wide.d_values:
        for k in (1, 2, 5, 6, 7, 100, answers.n):
            expected = min(k, 6)
            assert wide.retrieve(k, D) == narrow.retrieve(expected, D)
            assert wide.objective(k, D) == narrow.objective(expected, D)
            assert wide.solution_size(k, D) == narrow.solution_size(expected, D)
        for cluster in narrow.retrieve(6, D).clusters:
            low, high = narrow.cluster_lifetime(cluster.pattern, D)
            assert high == 6
            assert wide.cluster_lifetime(cluster.pattern, D) == (low, answers.n)


def test_precompute_quality_close_to_dedicated_hybrid():
    """The sweep's per-(k, D) solutions track dedicated Hybrid runs.

    The shared Fixed-Order phase runs once with D=0 and the largest budget,
    so individual (k, D) cells can be somewhat worse than a dedicated run —
    the speed/quality trade Section 6.2 accepts.  We bound the loss and
    check the sweep always beats the trivial solution."""
    from repro.core.brute_force import lower_bound
    from repro.core.hybrid import hybrid

    answers = random_answer_set(n=60, m=4, domain=4, seed=9)
    pool = ClusterPool(answers, L=10)
    store = SolutionStore(pool, k_range=(3, 8), d_values=[1, 2])
    floor = lower_bound(pool).avg
    for D in (1, 2):
        for k in (3, 5, 8):
            dedicated = hybrid(pool, k, D)
            swept = store.retrieve(k, D)
            assert swept.avg >= 0.85 * dedicated.avg
            assert swept.avg >= floor - 1e-9


def test_store_retrieval_is_floored_at_root():
    """Explore must never serve a below-root solution that a direct
    summary request (which floors at the root) would refuse to return."""
    from repro.core.answers import AnswerSet
    from repro.core.hybrid import hybrid

    answers = AnswerSet.from_rows(
        [("c", "a", "a"), ("a", "c", "b"), ("b", "c", "c"),
         ("b", "a", "c"), ("b", "b", "c")],
        [7.83, 7.01, 0.66, 8.29, 7.99],
    )
    pool = ClusterPool(answers, L=2)
    store = SolutionStore(pool, k_range=(1, 3), d_values=(3,))
    direct = hybrid(pool, k=1, D=3)
    served = store.retrieve(1, 3)
    root_avg = pool.root().avg
    assert served.avg >= root_avg - 1e-12
    assert store.objective(1, 3) >= root_avg - 1e-12
    assert store.objective(1, 3) == served.avg
    assert store.solution_size(1, 3) == served.size
    assert served.avg == direct.avg
