"""Property tests for the lazy upper-bound heap argmax.

The tentpole contract: ``argmax="heap"`` and ``argmax="scan"`` produce
*bit-identical* solutions.  On dyadic-rational values every partial sum is
exact in binary floating point, so the tests can demand exact equality of
patterns and objectives — any unsound bound (a pruned group that could
still have won or tied) shows up as a different merge trajectory.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.common.errors import InvalidParameterError
from repro.core import reference
from repro.core.answers import AnswerSet
from repro.core.bottom_up import bottom_up, bottom_up_level_start
from repro.core.fixed_order import fixed_order
from repro.core.hybrid import hybrid
from repro.core.problem import ProblemInstance
from repro.core.merge import (
    ARGMAX_MODES,
    HEAP_ARGMAX,
    MergeEngine,
    SCAN_ARGMAX,
    resolve_argmax,
)
from repro.core.semilattice import ClusterPool
from repro.interactive.precompute import SolutionStore
from tests.conftest import random_answer_set
from tests.test_algorithm_properties import dyadic_instances


@settings(max_examples=60, deadline=None)
@given(dyadic_instances())
def test_heap_and_scan_bit_identical_bottom_up(instance):
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    by_heap = bottom_up(pool, k, D, argmax="heap")
    by_scan = bottom_up(pool, k, D, argmax="scan")
    assert by_heap.patterns() == by_scan.patterns()
    assert by_heap.avg == by_scan.avg
    assert by_heap.stats["argmax_heap"] == 1.0
    assert by_scan.stats["argmax_heap"] == 0.0


@settings(max_examples=40, deadline=None)
@given(dyadic_instances())
def test_heap_and_scan_bit_identical_hybrid_and_variants(instance):
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    for runner in (
        lambda am: hybrid(pool, k, D, argmax=am),
        lambda am: bottom_up_level_start(pool, k, D, argmax=am),
        lambda am: fixed_order(pool, k, D, argmax=am),
        lambda am: bottom_up(pool, k, D, use_delta=False, argmax=am),
    ):
        by_heap = runner("heap")
        by_scan = runner("scan")
        assert by_heap.patterns() == by_scan.patterns()
        assert by_heap.avg == by_scan.avg


@settings(max_examples=30, deadline=None)
@given(dyadic_instances())
def test_heap_matches_python_kernel_scan(instance):
    """Transitively: heap (bitset) == scan (bitset) == the literal
    reference engine, which replaced the python kernel as the baseline."""
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    by_heap = bottom_up(pool, k, D, argmax="heap")
    by_reference = reference.bottom_up(pool, k, D)
    assert by_heap.patterns() == by_reference.patterns()


@settings(max_examples=20, deadline=None)
@given(dyadic_instances())
def test_heap_and_scan_identical_precompute_sweeps(instance):
    """The (k, D)-sweep — many argmax rounds from one cloned engine per D —
    retrieves identical solutions and objective tables in both modes."""
    answers, k, L, D = instance
    pool = ClusterPool(answers, L=L)
    k_range = (1, max(2, min(k, 5)))
    d_values = tuple(sorted({0, D}))
    by_heap = SolutionStore(pool, k_range, d_values, argmax="heap")
    by_scan = SolutionStore(pool, k_range, d_values, argmax="scan")
    for d_value in d_values:
        for k_value in range(k_range[0], k_range[1] + 1):
            assert (
                by_heap.objective(k_value, d_value)
                == by_scan.objective(k_value, d_value)
            )
            assert (
                by_heap.retrieve(k_value, d_value).patterns()
                == by_scan.retrieve(k_value, d_value).patterns()
            )


class TestArgmaxResolution:
    def test_auto_resolves_to_heap_on_bitset_nonnegative(self):
        answers = random_answer_set(n=20, m=3, domain=3, seed=1)
        assert resolve_argmax(None, answers) == HEAP_ARGMAX
        assert resolve_argmax("auto", answers) == HEAP_ARGMAX

    def test_auto_falls_back_to_scan_on_python_kernel(self):
        """The python kernel is gone (4.0.0), and an engine takes no
        kernel (5.0.0): it runs on its pool's, and a pool asked for the
        python kernel raises instead of falling back to the scan."""
        answers = random_answer_set(n=20, m=3, domain=3, seed=1)
        engine = MergeEngine(ClusterPool(answers, 4), ())
        assert engine.pool.kernel == "bitset"
        assert engine.argmax == HEAP_ARGMAX
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            ClusterPool(answers, 4, kernel="python")

    def test_auto_falls_back_to_scan_on_negative_values(self):
        answers = AnswerSet(
            [(0, 0), (0, 1), (1, 0)], [2.0, -1.0, 1.0]
        )
        assert resolve_argmax(None, answers) == SCAN_ARGMAX
        pool = ClusterPool(answers, L=2)
        engine = MergeEngine(pool, (pool.singleton(i) for i in range(2)))
        assert engine.argmax == SCAN_ARGMAX

    def test_explicit_heap_rejected_on_python_kernel(self):
        """Above the pool, ``ProblemInstance.solve`` takes the kernel that
        picks the pool, and rejects the python kernel before any run."""
        answers = random_answer_set(n=20, m=3, domain=3, seed=1)
        instance = ProblemInstance(answers, k=2, L=4, D=1)
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            instance.solve("bottom-up", kernel="python", argmax="heap")

    def test_explicit_heap_rejected_on_negative_values(self):
        answers = AnswerSet([(0, 0), (0, 1)], [2.0, -1.0])
        with pytest.raises(InvalidParameterError, match="non-negative"):
            resolve_argmax("heap", answers)

    def test_unknown_mode_rejected(self):
        answers = random_answer_set(n=20, m=3, domain=3, seed=1)
        with pytest.raises(InvalidParameterError, match="argmax"):
            resolve_argmax("bogus", answers)
        assert set(ARGMAX_MODES) == {"auto", "heap", "scan"}


class TestArgmaxStats:
    def test_heap_evaluates_fewer_groups_than_scan(self):
        answers = random_answer_set(n=400, m=4, domain=6, seed=9)
        pool = ClusterPool(answers, L=40)
        by_heap = bottom_up(pool, 5, 2, argmax="heap")
        by_scan = bottom_up(pool, 5, 2, argmax="scan")
        assert by_heap.patterns() == by_scan.patterns()
        # The scan evaluates every candidate group it reports; the heap
        # must do strictly less work on a non-trivial instance.
        assert by_scan.stats["argmax_evals"] == by_scan.stats["argmax_groups"]
        assert by_heap.stats["argmax_evals"] < by_scan.stats["argmax_evals"]

    def test_seeded_build_evaluates_only_its_frontier(self):
        """A heap build seeds every group with a bound and evaluates
        nothing, so its first round evaluates fewer groups than the heap
        holds, and picks the scan's pair."""
        from tests.test_merge_target import _structured_answers

        pool = ClusterPool(_structured_answers(), L=100)
        engines = {
            mode: MergeEngine(
                pool, (pool.singleton(i) for i in range(pool.L)),
                argmax=mode,
            )
            for mode in (HEAP_ARGMAX, SCAN_ARGMAX)
        }
        picks = {mode: engine.best_any_pair()
                 for mode, engine in engines.items()}
        assert picks[HEAP_ARGMAX] == picks[SCAN_ARGMAX]
        stats = engines[HEAP_ARGMAX].stats
        held = len(engines[HEAP_ARGMAX]._heaps[None].meta)
        assert stats["argmax_groups"] == held > 1
        assert 1 <= stats["argmax_evals"] < held
        # Only evaluations create delta states: the build made none.
        assert len(engines[HEAP_ARGMAX]._delta_cache) < held

    def test_service_reports_argmax_counters(self):
        from repro.service import Engine, SummaryRequest

        answers = random_answer_set(n=60, m=4, domain=4, seed=2)
        engine = Engine()
        engine.register_dataset("d", answers)
        response = engine.submit(SummaryRequest(
            dataset="d", k=4, L=10, D=1, algorithm="bottom-up",
            options={"argmax": "scan"},
        ))
        assert response.phase_seconds["argmax_heap"] == 0.0
        assert response.phase_seconds["argmax_rounds"] >= 1.0
        warm = engine.submit(SummaryRequest(
            dataset="d", k=4, L=10, D=1, algorithm="bottom-up",
        ))
        assert warm.phase_seconds["argmax_heap"] == 1.0
        assert warm.objective == response.objective
