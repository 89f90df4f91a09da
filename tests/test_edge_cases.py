"""Edge cases and failure injection across the library."""

from __future__ import annotations

import pytest

from repro.core.answers import AnswerSet
from repro.core.bottom_up import bottom_up, bottom_up_level_start
from repro.core.brute_force import brute_force
from repro.core.fixed_order import fixed_order
from repro.core.hybrid import hybrid
from repro.core.problem import ProblemInstance
from repro.core.semilattice import ClusterPool
from repro.core.solution import check_feasibility
from repro.common.errors import InvalidParameterError
from repro.interactive.precompute import SolutionStore
from tests.conftest import random_answer_set


class TestDegenerateAnswerSets:
    def test_single_element(self):
        answers = AnswerSet.from_rows([("a", "b")], [1.0])
        solution = ProblemInstance(answers, k=1, L=1, D=0).solve()
        assert solution.size == 1
        assert solution.avg == pytest.approx(1.0)

    def test_two_identical_values(self):
        answers = AnswerSet.from_rows([("a",), ("b",)], [2.0, 2.0])
        solution = ProblemInstance(answers, k=2, L=2, D=0).solve()
        assert not check_feasibility(solution, answers, 2, 2, 0)

    def test_all_equal_values_deterministic(self):
        answers = random_answer_set(n=20, m=3, domain=3, seed=1,
                                    value_range=(3.0, 3.0))
        pool = ClusterPool(answers, L=6)
        first = bottom_up(pool, 3, 2)
        second = bottom_up(pool, 3, 2)
        assert first.patterns() == second.patterns()

    def test_negative_values(self):
        answers = AnswerSet.from_rows(
            [("a", "x"), ("b", "x"), ("c", "y"), ("d", "y")],
            [-1.0, -2.0, -3.0, -4.0],
        )
        solution = ProblemInstance(answers, k=2, L=2, D=1).solve()
        assert not check_feasibility(solution, answers, 2, 2, 1)
        assert solution.avg <= -1.0

    def test_single_attribute(self):
        answers = AnswerSet.from_rows(
            [("a",), ("b",), ("c",), ("d",)], [4.0, 3.0, 2.0, 1.0]
        )
        solution = ProblemInstance(answers, k=2, L=2, D=1).solve()
        assert not check_feasibility(solution, answers, 2, 2, 1)


class TestExtremeParameters:
    @pytest.fixture
    def answers(self):
        return random_answer_set(n=30, m=4, domain=3, seed=41)

    def test_k_equals_n(self, answers):
        solution = ProblemInstance(answers, k=answers.n, L=5, D=0).solve()
        assert not check_feasibility(solution, answers, answers.n, 5, 0)

    def test_L_equals_n(self, answers):
        pool = ClusterPool(answers, L=answers.n)
        solution = fixed_order(pool, 5, 1)
        assert not check_feasibility(solution, answers, 5, answers.n, 1)

    def test_D_equals_m(self, answers):
        # Maximum distance: every pair of clusters must disagree everywhere.
        pool = ClusterPool(answers, L=6)
        for algorithm in (bottom_up, fixed_order, hybrid):
            solution = algorithm(pool, 3, answers.m)
            assert not check_feasibility(
                solution, answers, 3, 6, answers.m
            )

    def test_k_one_forces_single_cluster(self, answers):
        pool = ClusterPool(answers, L=8)
        solution = bottom_up(pool, 1, 2)
        assert solution.size == 1

    def test_level_start_with_D_zero(self, answers):
        pool = ClusterPool(answers, L=6)
        solution = bottom_up_level_start(pool, 3, 0)
        assert not check_feasibility(solution, answers, 3, 6, 0)

    def test_brute_force_k_one(self, answers):
        pool = ClusterPool(answers, L=3)
        solution = brute_force(pool, 1, 0)
        assert solution.size == 1
        assert not check_feasibility(solution, answers, 1, 3, 0)


class TestStoreEdgeCases:
    def test_k_range_of_one(self):
        answers = random_answer_set(n=30, m=4, domain=3, seed=43)
        pool = ClusterPool(answers, L=6)
        store = SolutionStore(pool, (4, 4), [1])
        solution = store.retrieve(4, 1)
        assert not check_feasibility(solution, answers, 4, 6, 1)

    def test_k_max_beyond_initial_pool(self):
        # k_max larger than the Fixed-Order pool ever gets: the solution
        # for large k is simply the post-distance-phase state.
        answers = random_answer_set(n=30, m=4, domain=3, seed=44)
        pool = ClusterPool(answers, L=4)
        store = SolutionStore(pool, (1, 25), [1])
        for k in (25, 10, 1):
            solution = store.retrieve(k, 1)
            assert not check_feasibility(solution, answers, k, 4, 1)

    def test_duplicate_d_values_deduped(self):
        answers = random_answer_set(n=20, m=3, domain=3, seed=45)
        pool = ClusterPool(answers, L=4)
        store = SolutionStore(pool, (2, 4), [2, 2, 2])
        assert store.d_values == (2,)


class TestTieBreaking:
    def test_objective_stable_under_permuted_input(self):
        """The same logical instance presented in a different row order
        yields the same objective value when values are distinct.  (With
        tied values the *ranking itself* is presentation-dependent — the
        same caveat as SQL ORDER BY without a tie-break column — so exact
        cluster identity is only guaranteed for distinct values.)"""
        rows = [("a", "x"), ("b", "x"), ("a", "y"), ("c", "z"), ("b", "z")]
        values = [3.0, 2.9, 2.0, 1.9, 1.0]
        forward = AnswerSet.from_rows(rows, values)
        backward = AnswerSet.from_rows(rows[::-1], values[::-1])
        solution_f = ProblemInstance(forward, k=2, L=3, D=1).solve()
        solution_b = ProblemInstance(backward, k=2, L=3, D=1).solve()
        assert solution_f.avg == pytest.approx(solution_b.avg)
        decoded_f = sorted(
            forward.decode(c.pattern) for c in solution_f.clusters
        )
        decoded_b = sorted(
            backward.decode(c.pattern) for c in solution_b.clusters
        )
        assert decoded_f == decoded_b

    def test_equal_avg_merge_candidates_resolve_stably(self):
        answers = random_answer_set(n=8, m=3, domain=2, seed=46,
                                    value_range=(1.0, 1.0))
        pool = ClusterPool(answers, L=6)
        runs = {tuple(bottom_up(pool, 3, 1).patterns()) for _ in range(3)}
        assert len(runs) == 1
