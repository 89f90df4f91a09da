"""Tests for the greedy algorithms (Section 5) and brute force.

The central contracts: every algorithm returns a feasible solution for any
(k, L, D); brute force is optimal; Bottom-Up/Hybrid dominate Fixed-Order on
value in aggregate; the k >= L, D = 0 special case is the plain top-k.
"""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.bottom_up import (
    bottom_up,
    bottom_up_level_start,
    bottom_up_pairwise_avg,
)
from repro.core.brute_force import brute_force, lower_bound
from repro.core.fixed_order import (
    fixed_order,
    kmeans_fixed_order,
    minimal_covering_pattern,
    random_fixed_order,
)
from repro.core.hybrid import hybrid
from repro.core.problem import ProblemInstance
from repro.core.registry import algorithm_names
from repro.core.semilattice import ClusterPool
from repro.core.solution import check_feasibility
from tests.conftest import random_answer_set

GREEDY = [bottom_up, fixed_order, hybrid]


@pytest.mark.parametrize("algorithm", GREEDY)
@pytest.mark.parametrize("k,L,D", [
    (4, 8, 2), (2, 8, 2), (8, 4, 0), (3, 10, 3), (1, 6, 4), (5, 5, 1),
])
def test_greedy_algorithms_always_feasible(small_answers, algorithm, k, L, D):
    pool = ClusterPool(small_answers, L=L)
    solution = algorithm(pool, k, D)
    violations = check_feasibility(solution, small_answers, k, L, D)
    assert not violations, violations


@pytest.mark.parametrize("seed", range(5))
def test_feasible_across_random_instances(seed):
    answers = random_answer_set(n=30, m=4, domain=3, seed=seed + 100)
    pool = ClusterPool(answers, L=8)
    for algorithm in GREEDY:
        for D in (0, 2, 4):
            solution = algorithm(pool, 3, D)
            assert not check_feasibility(solution, answers, 3, 8, D)


def test_top_singletons_optimal_when_k_ge_L_and_D_zero(small_answers):
    # Appendix A.2 case (1): with k >= L and D = 0 the optimum consists of
    # top original elements as singletons.  Since |O| <= k and values are
    # sorted descending, avg(top-j) is maximized at j = L, so the optimum
    # is exactly the top-L singletons.
    pool = ClusterPool(small_answers, L=3)
    solution = brute_force(pool, k=5, D=0)
    expected = small_answers.avg_of(range(3))
    assert solution.avg == pytest.approx(expected)
    assert all(c.size == 1 for c in solution.clusters)


def test_brute_force_dominates_greedy(tiny_answers):
    pool = ClusterPool(tiny_answers, L=4)
    optimal = brute_force(pool, k=2, D=2)
    for algorithm in GREEDY:
        greedy_solution = algorithm(pool, 2, 2)
        assert optimal.avg >= greedy_solution.avg - 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_dominates_on_random_instances(seed):
    answers = random_answer_set(n=15, m=3, domain=3, seed=seed)
    pool = ClusterPool(answers, L=4)
    optimal = brute_force(pool, k=3, D=1)
    for algorithm in GREEDY:
        assert optimal.avg >= algorithm(pool, 3, 1).avg - 1e-9


def test_brute_force_feasible(tiny_answers):
    pool = ClusterPool(tiny_answers, L=4)
    solution = brute_force(pool, k=2, D=2)
    assert not check_feasibility(solution, tiny_answers, 2, 4, 2)


def test_lower_bound_is_global_average(small_answers):
    pool = ClusterPool(small_answers, L=5)
    trivial = lower_bound(pool)
    assert trivial.size == 1
    assert trivial.avg == pytest.approx(small_answers.avg_all())


def test_everything_beats_lower_bound(small_answers):
    pool = ClusterPool(small_answers, L=8)
    floor = lower_bound(pool).avg
    for algorithm in GREEDY:
        assert algorithm(pool, 4, 2).avg >= floor - 1e-9


class TestBottomUpVariants:
    def test_level_start_feasible(self, small_answers):
        pool = ClusterPool(small_answers, L=8)
        for D in (1, 2, 3):
            solution = bottom_up_level_start(pool, 4, D)
            assert not check_feasibility(solution, small_answers, 4, 8, D)

    def test_pairwise_avg_feasible(self, small_answers):
        pool = ClusterPool(small_answers, L=8)
        solution = bottom_up_pairwise_avg(pool, 4, 2)
        assert not check_feasibility(solution, small_answers, 4, 8, 2)

    def test_level_start_seeds_at_level_d_minus_one(self, small_answers):
        pool = ClusterPool(small_answers, L=4)
        solution = bottom_up_level_start(pool, k=10, D=3)
        # With k large enough no size merging happens: all clusters remain
        # at level D-1 = 2.
        assert all(c.level >= 2 for c in solution.clusters)


class TestFixedOrderVariants:
    def test_random_variant_feasible_any_seed(self, small_answers):
        pool = ClusterPool(small_answers, L=8)
        for seed in range(5):
            solution = random_fixed_order(pool, 4, 2, seed=seed)
            assert not check_feasibility(solution, small_answers, 4, 8, 2)

    def test_kmeans_variant_feasible(self, small_answers):
        pool = ClusterPool(small_answers, L=8)
        solution = kmeans_fixed_order(pool, 4, 2, seed=1)
        assert not check_feasibility(solution, small_answers, 4, 8, 2)

    def test_minimal_covering_pattern(self):
        pattern = minimal_covering_pattern([(1, 2, 3), (1, 5, 3)])
        assert pattern == (1, -1, 3)

    def test_fixed_order_with_budget(self, small_answers):
        pool = ClusterPool(small_answers, L=8)
        wide = fixed_order(pool, k=2, D=1, size_budget=6)
        assert wide.size <= 6


class TestSummarizeApi:
    def test_all_registered_algorithms_run(self, small_answers):
        for name in algorithm_names():
            if name == "brute-force":
                continue  # covered separately on smaller instances
            instance = ProblemInstance(small_answers, k=3, L=6, D=2)
            solution = instance.solve(name)
            if name == "lower-bound":
                assert solution.size == 1
            else:
                assert not check_feasibility(solution, small_answers, 3, 6, 2)

    def test_unknown_algorithm_rejected(self, small_answers):
        with pytest.raises(InvalidParameterError):
            ProblemInstance(small_answers, k=3, L=6, D=2).solve("nope")

    def test_parameter_validation(self, small_answers):
        with pytest.raises(InvalidParameterError):
            ProblemInstance(small_answers, k=0, L=5, D=1)
        with pytest.raises(InvalidParameterError):
            ProblemInstance(small_answers, k=3, L=5, D=small_answers.m + 1)
        with pytest.raises(InvalidParameterError):
            ProblemInstance(small_answers, k=3, L=-1, D=1)

    def test_L_zero_normalized_to_one(self, small_answers):
        instance = ProblemInstance(small_answers, k=3, L=0, D=1)
        assert instance.L == 1

    def test_pool_rebuilt_on_L_change(self, small_answers):
        instance = ProblemInstance(small_answers, k=3, L=4, D=1)
        first = instance.pool
        instance.L = 6
        assert instance.pool is not first
        assert instance.pool.L == 6


def test_example_figure1_solution_shape(paper_example_answers):
    """On the Figure 1a-like data, k=4/L=8/D=2 yields 4 diverse clusters
    covering the top 8, with avg above the top-4-singletons trap."""
    solution = ProblemInstance(
        paper_example_answers, k=4, L=8, D=2
    ).solve("bottom-up")
    assert not check_feasibility(solution, paper_example_answers, 4, 8, 2)
    assert solution.size <= 4
    # The misleading (20s, M) pattern covering both high and low values
    # must not be a cluster on its own.
    decoded = [
        paper_example_answers.decode(c.pattern) for c in solution.clusters
    ]
    assert ("*", "20s", "M", "*") not in decoded
