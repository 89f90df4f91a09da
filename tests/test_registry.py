"""Tests for the pluggable algorithm registry."""

from __future__ import annotations

import inspect

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.problem import ProblemInstance
from repro.core.registry import (
    AlgorithmInfo,
    algorithm_infos,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
    validate_algorithm_kwargs,
)
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution, is_feasible
from tests.conftest import random_answer_set

PAPER_ALGORITHMS = {
    "bottom-up", "bottom-up-level", "bottom-up-pairwise", "fixed-order",
    "random-fixed-order", "kmeans-fixed-order", "hybrid", "brute-force",
    "lower-bound",
}


class TestRegistryContents:
    def test_all_paper_algorithms_registered(self):
        assert PAPER_ALGORITHMS <= set(algorithm_names())

    def test_names_sorted(self):
        names = algorithm_names()
        assert names == sorted(names)

    def test_infos_carry_metadata(self):
        for info in algorithm_infos():
            assert isinstance(info, AlgorithmInfo)
            assert info.name
            assert info.cost in ("exact", "greedy", "heuristic", "bound")
            assert callable(info.runner)

    def test_exactness_classes(self):
        assert get_algorithm("brute-force").cost == "exact"
        assert get_algorithm("hybrid").cost == "greedy"
        assert get_algorithm("lower-bound").cost == "bound"
        assert get_algorithm("random-fixed-order").cost == "heuristic"

    def test_runners_take_pool_k_D(self):
        """Every registered runner is called as ``runner(pool, k, D)``,
        and each option it declares is a named parameter of it."""
        answers = random_answer_set(n=25, m=4, domain=3, seed=9)
        pool = ClusterPool(answers, L=5)
        for info in algorithm_infos():
            solution = info.runner(pool, 3, 1)
            assert isinstance(solution, Solution)
            assert is_feasible(solution, answers, k=3, L=5, D=1), info.name
            parameters = inspect.signature(info.runner).parameters
            for option in info.kwargs:
                assert option in parameters, (info.name, option)

    def test_no_runner_takes_a_kernel(self):
        """The pool is the kernel: no runner declares or takes one, and
        each runs on its pool's mask representation."""
        answers = random_answer_set(n=25, m=4, domain=3, seed=9)
        for kernel in ("bitset", "dense"):
            pool = ClusterPool(answers, L=5, kernel=kernel)
            for info in algorithm_infos():
                assert "kernel" not in info.kwargs, info.name
                parameters = inspect.signature(info.runner).parameters
                assert "kernel" not in parameters, info.name
                solution = info.runner(pool, 3, 1)
                assert type(solution.mask) is type(pool.as_mask(0)), (
                    info.name, kernel
                )

    def test_describe_is_json_friendly(self):
        import json

        for info in algorithm_infos():
            payload = info.describe()
            assert json.loads(json.dumps(payload)) == payload
            assert "runner" not in payload


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError, match="already registered"):
            register_algorithm("hybrid")(lambda instance: None)

    def test_replace_allows_override(self):
        original = get_algorithm("hybrid")
        sentinel = lambda instance: None  # noqa: E731
        try:
            register_algorithm(
                "hybrid", cost="greedy", replace=True
            )(sentinel)
            assert get_algorithm("hybrid").runner is sentinel
        finally:
            register_algorithm(
                "hybrid",
                cost=original.cost,
                complexity=original.complexity,
                kwargs=original.kwargs,
                summary=original.summary,
                replace=True,
            )(original.runner)

    def test_register_and_unregister_plugin(self):
        @register_algorithm("test-plugin", cost="heuristic",
                            kwargs=("knob",), summary="for this test")
        def run_plugin(pool, k, D, knob=0):
            from repro.core.brute_force import lower_bound

            return lower_bound(pool)

        try:
            assert "test-plugin" in algorithm_names()
            answers = random_answer_set(n=20, m=3, domain=3, seed=5)
            solution = ProblemInstance(answers, k=2, L=4, D=0).solve(
                "test-plugin", knob=1
            )
            assert solution.size == 1
        finally:
            unregister_algorithm("test-plugin")
        assert "test-plugin" not in algorithm_names()

    def test_unknown_cost_class_rejected(self):
        with pytest.raises(InvalidParameterError, match="cost"):
            register_algorithm("bad-cost", cost="magic")

    def test_unknown_algorithm_error_lists_names(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            get_algorithm("nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "hybrid" in message


class TestKwargsValidation:
    def test_known_kwargs_accepted(self):
        info = validate_algorithm_kwargs(
            "hybrid", {"pool_factor": 2, "use_delta": False}
        )
        assert info.name == "hybrid"

    def test_unknown_kwarg_rejected_with_supported_list(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            validate_algorithm_kwargs("hybrid", {"pool_factr": 2})
        message = str(excinfo.value)
        assert "pool_factr" in message
        assert "pool_factor" in message

    def test_solve_rejects_unknown_kwarg_before_running(self):
        answers = random_answer_set(n=20, m=3, domain=3, seed=5)
        instance = ProblemInstance(answers, k=2, L=4, D=0)
        with pytest.raises(InvalidParameterError, match="unsupported"):
            instance.solve("bottom-up", bogus=True)

    def test_declared_kwargs_actually_run(self):
        answers = random_answer_set(n=25, m=4, domain=3, seed=9)
        for name, options in [
            ("bottom-up", {"use_delta": False}),
            ("fixed-order", {"size_budget": 6}),
            ("hybrid", {"pool_factor": 2}),
            ("random-fixed-order", {"seed": 3}),
            ("kmeans-fixed-order", {"seed": 3, "max_iterations": 5}),
        ]:
            instance = ProblemInstance(answers, k=3, L=6, D=1)
            solution = instance.solve(name, **options)
            assert solution.size >= 1


class TestKernelPicksThePool:
    """``kernel`` is an input only where it picks a pool: ``ClusterPool``,
    ``ProblemInstance.solve`` and, on the wire, ``options.kernel``,
    which every algorithm accepts and whose pool it reports."""

    @pytest.mark.parametrize("kernel", ["bitset", "dense"])
    @pytest.mark.parametrize("name", sorted(PAPER_ALGORITHMS))
    def test_every_algorithm_takes_options_kernel(self, name, kernel):
        from repro.core.bitset import resolve_kernel
        from repro.service import Engine

        answers = random_answer_set(n=25, m=4, domain=3, seed=9)
        engine = Engine()
        engine.register_dataset("d", answers)
        response = engine.submit_dict({
            "schema_version": 2, "kind": "summary", "dataset": "d",
            "k": 3, "L": 5, "D": 1, "algorithm": name,
            "options": {"kernel": kernel},
        })
        assert response["kind"] == "summary_response", response
        assert response["kernel"] == resolve_kernel(kernel)
        pool, _, hit = engine.checkout_pool("d", 5, kernel=kernel)
        assert hit and pool.kernel == response["kernel"]
        direct = ProblemInstance(answers, k=3, L=5, D=1).solve(
            name, kernel=kernel
        )
        assert response["objective"] == direct.avg

    @pytest.mark.parametrize("kernel", ["python", "bogus"])
    def test_unknown_kernel_rejected_where_it_is_an_input(self, kernel):
        from repro.service import Engine

        answers = random_answer_set(n=25, m=4, domain=3, seed=9)
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            ClusterPool(answers, L=5, kernel=kernel)
        instance = ProblemInstance(answers, k=3, L=5, D=1)
        for name in ("hybrid", "lower-bound"):
            with pytest.raises(InvalidParameterError,
                               match="unknown kernel"):
                instance.solve(name, kernel=kernel)
        engine = Engine()
        engine.register_dataset("d", answers)
        response = engine.submit_dict({
            "schema_version": 2, "kind": "summary", "dataset": "d",
            "k": 3, "L": 5, "D": 1, "algorithm": "lower-bound",
            "options": {"kernel": kernel},
        })
        assert response["error_type"] == "InvalidParameterError"
        assert engine.stats().pools.size == 0

    def test_kernel_is_not_an_algorithm_option(self):
        """``kernel`` passed as a runner option (not the pool's keyword)
        is unsupported, and the message no longer lists it."""
        with pytest.raises(InvalidParameterError) as excinfo:
            validate_algorithm_kwargs("hybrid", {"kernel": "bitset"})
        assert str(excinfo.value) == (
            "algorithm 'hybrid' got unsupported option(s) ['kernel']; "
            "supported: ['argmax', 'pool_factor', 'use_delta']"
        )


class TestProblemInstanceDefaults:
    def test_k_none_defaults_to_n(self):
        answers = random_answer_set(n=15, m=3, domain=3, seed=1)
        instance = ProblemInstance(answers, k=None, L=4, D=0)
        assert instance.k == answers.n

    def test_L_none_defaults_to_k(self):
        answers = random_answer_set(n=15, m=3, domain=3, seed=1)
        instance = ProblemInstance(answers, k=5, L=None, D=0)
        assert instance.L == 5

    def test_both_none_cover_everything(self):
        answers = random_answer_set(n=15, m=3, domain=3, seed=1)
        instance = ProblemInstance(answers, D=0)
        assert (instance.k, instance.L) == (answers.n, answers.n)

    def test_L_zero_still_normalized_to_one(self):
        answers = random_answer_set(n=15, m=3, domain=3, seed=1)
        instance = ProblemInstance(answers, k=3, L=0, D=1)
        assert instance.L == 1

    def test_validation_still_rejects_bad_values(self):
        answers = random_answer_set(n=15, m=3, domain=3, seed=1)
        with pytest.raises(InvalidParameterError):
            ProblemInstance(answers, k=0, L=4, D=0)
        with pytest.raises(InvalidParameterError):
            ProblemInstance(answers, k=3, L=-1, D=0)
        with pytest.raises(InvalidParameterError):
            ProblemInstance(answers, k=3, L=4, D=answers.m + 1)

    def test_defaults_solve_end_to_end(self):
        answers = random_answer_set(n=15, m=3, domain=3, seed=1)
        solution = ProblemInstance(answers, k=4).solve("hybrid")
        assert solution.size <= 4
