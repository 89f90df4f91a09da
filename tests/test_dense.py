"""Tests for the dense packed-array kernel: :mod:`repro.core.dense`
primitives, the AnswerSet value table, dense ClusterPool construction,
the auto kernel policy (and ``dense``/``auto`` running bitset without
numpy), engine/pool representation matching, and the frontier-width
argmax counters.  Tests of the kernel itself skip when numpy is absent."""

from __future__ import annotations

import random

import pytest

from repro.common.errors import InvalidParameterError
from repro.core import dense, reference
from repro.core.answers import AnswerSet
from repro.core.bitset import (
    BITSET_KERNEL,
    DENSE_AUTO_THRESHOLD,
    DENSE_KERNEL,
    KERNEL_CHOICES,
    KERNELS,
    bitset_of,
    mask_value_sum,
    resolve_kernel,
)
from repro.core.bottom_up import bottom_up
from repro.core.brute_force import brute_force
from repro.core.merge import MergeEngine
from repro.core.semilattice import ClusterPool
from tests.conftest import random_answer_set

#: Marks tests of the dense kernel itself, which exists only with numpy.
needs_numpy = pytest.mark.skipif(
    not dense.HAVE_NUMPY, reason="the dense kernel needs numpy"
)

#: The one mask backend; kept as a parameter so the test ids name it.
BACKENDS = ("numpy",)


def _blocks(ids, nbits: int) -> "dense.BitBlocks":
    """The dense mask of element *ids* over *nbits* elements."""
    return dense.int_to_blocks(bitset_of(ids), nbits)


@needs_numpy
@pytest.mark.parametrize("backend", BACKENDS)
class TestBitBlocksPrimitives:
    def test_roundtrip_and_popcount(self, backend):
        for nbits, indices in (
            (1, []),
            (8, [0]),
            (64, [0, 63]),
            (65, [0, 63, 64]),
            (1000, [0, 1, 63, 64, 65, 999]),
            (300, list(range(0, 300, 3))),
        ):
            mask = _blocks(indices, nbits)
            assert list(mask.indices()) == sorted(indices)
            assert mask.bit_count() == len(indices)
            assert bool(mask) == bool(indices)
            assert mask._as_int() == bitset_of(indices)

    def test_operators_match_int_masks(self, backend):
        rng = random.Random(11)
        nbits = 500
        a_ids = rng.sample(range(nbits), 120)
        b_ids = rng.sample(range(nbits), 200)
        ia, ib = bitset_of(a_ids), bitset_of(b_ids)
        ba = _blocks(a_ids, nbits)
        bb = _blocks(b_ids, nbits)
        for op in ("__and__", "__or__", "__xor__"):
            expected = getattr(ia, op)(ib)
            got = getattr(ba, op)(bb)
            assert list(got.indices()) == list(dense.mask_indices(expected))
        andnot = ba & ~bb
        assert list(andnot.indices()) == list(dense.mask_indices(ia & ~ib))
        assert (~ba).bit_count() == nbits - len(a_ids)

    def test_test_and_lowest_bit(self, backend):
        """Membership and the lowest set bit as the merge engine and the
        brute-force search read them: ``mask_has_bit`` (on either
        representation) or an AND with a one-bit mask, and the first of
        ``indices()``; a first-n mask is ``int_to_blocks``."""
        mask = _blocks([3, 70, 128], 200)

        def bit(index):
            return dense.int_to_blocks(1 << index, 200)

        assert mask & bit(3) and mask & bit(70) and mask & bit(128)
        assert not mask & bit(0) and not mask & bit(199)
        for index in range(200):
            expected = index in (3, 70, 128)
            assert dense.mask_has_bit(mask, index) is expected
            assert dense.mask_has_bit(mask._as_int(), index) is expected
        assert next(mask.indices()) == 3
        assert list(dense.int_to_blocks(0, 200).indices()) == []
        assert dense.int_to_blocks((1 << 5) - 1, 200).bit_count() == 5

    def test_bit_length_matches_int(self, backend):
        """``bit_length()`` is ``int.bit_length()`` of the packed view:
        the empty mask, a bit in the last (partial) block, and random
        masks over universes that end mid-block and on a block edge."""
        rng = random.Random(17)
        assert dense.int_to_blocks(0, 200).bit_length() == 0
        assert _blocks([199], 200).bit_length() == 200
        assert _blocks([0], 1).bit_length() == 1
        for nbits in (1, 63, 64, 65, 200, 4096):
            for count in (0, 1, 2, 17):
                ids = rng.sample(range(nbits), min(count, nbits))
                mask = _blocks(ids, nbits)
                assert mask.bit_length() == bitset_of(ids).bit_length()

    def test_value_sum_bit_identical_to_bitset(self, backend):
        """Sparse and vectorized paths produce the exact floats of the
        bitset kernel's ascending-order scalar sum."""
        rng = random.Random(5)
        nbits = 4000
        values = [rng.uniform(0.0, 9.0) for _ in range(nbits)]
        table = dense.ValueTable(values)
        for count in (0, 1, 30, 500, 3500):
            ids = sorted(rng.sample(range(nbits), count))
            int_sum = mask_value_sum(values, bitset_of(ids))
            blocks_sum = _blocks(ids, nbits).value_sum(table)
            assert blocks_sum == int_sum  # exact, not approx

    def test_value_sum_monotone_under_superset(self, backend):
        """Ascending sequential summation keeps subset sums dominated by
        superset sums for non-negative values — the heap argmax's
        soundness precondition."""
        rng = random.Random(13)
        nbits = 2500
        values = [rng.uniform(0.0, 1.0) for _ in range(nbits)]
        table = dense.ValueTable(values)
        subset = sorted(rng.sample(range(nbits), 700))
        superset = sorted(set(subset) | set(rng.sample(range(nbits), 1200)))
        assert _blocks(subset, nbits).value_sum(
            table
        ) <= _blocks(superset, nbits).value_sum(table)


class TestValueTable:
    @needs_numpy
    def test_np_view_is_zero_copy(self):
        import numpy as np

        table = dense.ValueTable([1.0, 2.0])
        assert table.np_view.dtype == np.float64
        assert table.np_view.tolist() == [1.0, 2.0]
        assert table.np_view is table.np_view  # built once

    def test_answer_set_value_table_cached(self):
        answers = random_answer_set(n=10, m=3, domain=4, seed=1)
        assert answers.value_table is answers.value_table
        assert answers.value_table.values == answers.values
        assert len(answers.value_table) == answers.n

    @needs_numpy
    def test_answer_set_mask_value_sum_dispatch(self):
        answers = random_answer_set(n=32, m=3, domain=4, seed=2)
        ids = [1, 5, 17, 31]
        expected = sum(answers.values[i] for i in ids)
        assert answers.mask_value_sum(bitset_of(ids)) == pytest.approx(
            expected
        )
        assert answers.mask_value_sum(
            _blocks(ids, answers.n)
        ) == pytest.approx(expected)


class TestKernelResolution:
    def test_kernel_names(self):
        assert DENSE_KERNEL in KERNELS
        assert "auto" in KERNEL_CHOICES
        assert "auto" not in KERNELS

    @needs_numpy
    def test_explicit_names_pass_through(self):
        for name in KERNELS:
            assert resolve_kernel(name) == name
            assert resolve_kernel(name, n=10**7) == name

    @needs_numpy
    def test_auto_stays_on_bitset_at_1e5_rows(self):
        """On the served path bitset is the faster kernel at n=10^5."""
        assert resolve_kernel("auto", n=100_000) == BITSET_KERNEL

    def test_pool_kernel_names_the_mask_representation(self, tiny_answers):
        """A pool reports the representation it holds: int masks read
        ``"bitset"`` whichever request resolved to them, and a kernel
        name that is not one (``"python"`` before 4.0.0) raises."""
        for kernel in (None, "bitset", "auto"):
            pool = ClusterPool(tiny_answers, L=3, kernel=kernel)
            assert pool.kernel == BITSET_KERNEL
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            ClusterPool(tiny_answers, L=3, kernel="python")

    @needs_numpy
    def test_auto_policy(self):
        small = resolve_kernel("auto", n=DENSE_AUTO_THRESHOLD - 1)
        assert small == BITSET_KERNEL
        large = resolve_kernel("auto", n=DENSE_AUTO_THRESHOLD)
        assert large == DENSE_KERNEL
        # Unknown size: stay on the default rather than guessing.
        assert resolve_kernel("auto") == BITSET_KERNEL

    def test_dense_and_auto_run_bitset_without_numpy(
        self, monkeypatch, small_answers
    ):
        """Without numpy, ``dense`` and ``auto`` resolve to bitset, and a
        served summary and explore asking for ``dense`` report and
        return the bitset answer.  Patching the flag stands in for a
        process without numpy; without numpy it patches nothing."""
        from repro.service import Engine
        from repro.service.api import ExploreRequest, SummaryRequest

        monkeypatch.setattr(dense, "HAVE_NUMPY", False)
        assert resolve_kernel("dense") == BITSET_KERNEL
        assert resolve_kernel("dense", n=10**7) == BITSET_KERNEL
        assert (
            resolve_kernel("auto", n=DENSE_AUTO_THRESHOLD) == BITSET_KERNEL
        )
        engine = Engine()
        engine.register_dataset("ds", small_answers)

        def submit(make, kernel):
            response = engine.submit(make(kernel)).to_dict()
            for key in ("cache_hit", "init_seconds", "algo_seconds",
                        "total_seconds", "phase_seconds"):
                response.pop(key)
            return response

        def summary(kernel):
            return SummaryRequest(dataset="ds", k=3, L=8, D=1,
                                  algorithm="bottom-up",
                                  options={"kernel": kernel})

        def explore(kernel):
            return ExploreRequest(dataset="ds", k=3, L=8, D=1,
                                  k_range=(2, 5), d_values=(0, 1),
                                  kernel=kernel)

        for make in (summary, explore):
            asked_dense = submit(make, "dense")
            assert asked_dense["kernel"] == BITSET_KERNEL
            assert asked_dense == submit(make, "bitset")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            resolve_kernel("numpy")


@needs_numpy
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", ["eager", "naive", "lazy"])
class TestDensePools:
    def test_masks_match_bitset_pool(self, backend, strategy):
        answers = random_answer_set(n=40, m=4, domain=3, seed=6)
        if strategy == "lazy":  # the eager mapping's alias before 5.0.0
            with pytest.raises(InvalidParameterError, match="unknown mapping"):
                ClusterPool(answers, L=6, strategy=strategy, kernel="dense")
            return
        reference = ClusterPool(answers, L=6, strategy=strategy)
        pool = ClusterPool(answers, L=6, strategy=strategy, kernel="dense")
        assert pool.kernel == DENSE_KERNEL
        for pattern in pool.patterns():
            mask = pool.mask(pattern)
            assert isinstance(mask, dense.BitBlocks)
            assert frozenset(mask.indices()) == reference.coverage(pattern)
            assert pool.coverage(pattern) == reference.coverage(pattern)
            cluster = pool.cluster(pattern)
            assert cluster.mask is mask or cluster.mask == mask
            assert cluster.value_sum == pytest.approx(
                sum(answers.values[i] for i in cluster.covered)
            )


@needs_numpy
class TestEnginePoolMatching:
    def test_dense_engine_rejects_int_pool(self, tiny_answers):
        """An engine takes no kernel: over an int pool it runs bitset."""
        pool = ClusterPool(tiny_answers, L=4)
        engine = MergeEngine(pool, (pool.singleton(0),))
        assert engine.pool.kernel == BITSET_KERNEL
        assert isinstance(engine.snapshot().mask, int)

    def test_bitset_engine_rejects_dense_pool(self, tiny_answers):
        """... and over a dense pool it runs on packed blocks."""
        pool = ClusterPool(tiny_answers, L=4, kernel="dense")
        engine = MergeEngine(pool, (pool.singleton(0),))
        assert engine.pool.kernel == DENSE_KERNEL
        assert isinstance(engine.snapshot().mask, dense.BitBlocks)

    def test_python_kernel_tolerates_dense_pool(self, tiny_answers):
        """The reference engine, which replaced the python kernel as the
        ablation baseline, reads coverage sets, so it runs on a pool of
        either representation; ``kernel="python"`` itself is gone."""
        dense_pool = ClusterPool(tiny_answers, L=4, kernel="dense")
        int_pool = ClusterPool(tiny_answers, L=4)
        on_dense = reference.bottom_up(dense_pool, 2, 1)
        on_int = reference.bottom_up(int_pool, 2, 1)
        assert on_dense.patterns() == on_int.patterns()
        assert on_int.patterns() == bottom_up(int_pool, 2, 1).patterns()
        assert on_int.patterns() == bottom_up(dense_pool, 2, 1).patterns()
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            ClusterPool(tiny_answers, L=4, kernel="python")

    def test_brute_force_requires_matching_pool(self, tiny_answers):
        """Brute force runs on its pool's representation and finds the
        same optimum on both."""
        int_pool = ClusterPool(tiny_answers, L=3)
        dense_pool = ClusterPool(tiny_answers, L=3, kernel="dense")
        on_int = brute_force(int_pool, 2, 1)
        on_dense = brute_force(dense_pool, 2, 1)
        assert isinstance(on_int.mask, int)
        assert isinstance(on_dense.mask, dense.BitBlocks)
        assert on_dense.patterns() == on_int.patterns()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_accessors_on_dense_masks(self, tiny_answers, backend):
        """The engine's mask-facing read API (is_covered, covered_count,
        covered_indices, is_fully_covered) works on packed-block masks —
        regression test: is_covered used the int-only shift expression."""
        pool = ClusterPool(tiny_answers, L=4, kernel="dense")
        engine = MergeEngine(pool, (pool.singleton(i) for i in range(4)))
        int_pool = ClusterPool(tiny_answers, L=4)
        reference = MergeEngine(
            int_pool, (int_pool.singleton(i) for i in range(4))
        )
        for index in range(tiny_answers.n):
            assert engine.is_covered(index) == reference.is_covered(index)
        assert engine.covered_count == reference.covered_count
        assert engine.covered_indices() == reference.covered_indices()
        assert engine.is_fully_covered(pool.singleton(0))

    def test_heap_argmax_allowed_on_dense(self, tiny_answers):
        pool = ClusterPool(tiny_answers, L=4, kernel="dense")
        engine = MergeEngine(
            pool, (pool.singleton(i) for i in range(4)), argmax="heap"
        )
        assert engine.argmax == "heap"
        assert engine.pool.kernel == DENSE_KERNEL


@needs_numpy
class TestProblemInstancePools:
    def test_pool_for_caches_per_representation(self, small_answers):
        from repro.core.problem import ProblemInstance

        instance = ProblemInstance(small_answers, k=4, L=8, D=1)
        int_pool = instance.pool_for("bitset")
        dense_pool = instance.pool_for("dense")
        assert int_pool.kernel != DENSE_KERNEL
        assert dense_pool.kernel == DENSE_KERNEL
        assert instance.pool_for("bitset") is int_pool
        assert instance.pool_for("dense") is dense_pool
        # "auto" below the threshold resolves to the int-mask pool.
        assert instance.pool_for("auto") is int_pool
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            instance.pool_for("python")

    def test_solve_with_dense_kernel(self, small_answers):
        from repro.core.problem import ProblemInstance

        instance = ProblemInstance(small_answers, k=4, L=8, D=1)
        fast = instance.solve("bottom-up", kernel="dense")
        slow = instance.solve("bottom-up", kernel="bitset")
        assert fast.patterns() == slow.patterns()


class TestFrontierWidthCounters:
    def test_heap_records_pops(self, small_answers):
        pool = ClusterPool(small_answers, L=10)
        solution = bottom_up(pool, 3, 1, argmax="heap")
        stats = solution.stats
        # Build rounds evaluate without popping, so pops and evals are
        # not ordered in general; the counters just have to move.
        assert stats["argmax_pops"] > 0.0
        assert stats["argmax_pops_max"] >= 1.0
        assert stats["argmax_pops"] >= stats["argmax_pops_max"]
        assert stats["argmax_pops_mean"] == pytest.approx(
            stats["argmax_pops"] / stats["argmax_rounds"]
        )

    def test_scan_records_zero_pops(self, small_answers):
        pool = ClusterPool(small_answers, L=10)
        solution = bottom_up(pool, 3, 1, argmax="scan")
        assert solution.stats["argmax_pops"] == 0.0
        assert solution.stats["argmax_pops_max"] == 0.0
        assert solution.stats["argmax_pops_mean"] == 0.0

    def test_counters_ride_the_wire_format(self, small_answers):
        from repro.service import Engine
        from repro.service.api import SummaryRequest

        engine = Engine()
        engine.register_dataset("ds", small_answers)
        response = engine.submit(
            SummaryRequest(dataset="ds", k=3, L=8, D=1,
                           algorithm="bottom-up")
        )
        for key in ("argmax_pops", "argmax_pops_max", "argmax_pops_mean"):
            assert key in response.phase_seconds


class TestServiceDenseKernel:
    @needs_numpy
    def test_summary_reports_dense_and_splits_pool_cache(self, small_answers):
        from repro.service import Engine
        from repro.service.api import SummaryRequest

        engine = Engine()
        engine.register_dataset("ds", small_answers)
        base = dict(dataset="ds", k=3, L=8, D=1, algorithm="bottom-up")
        bitset = engine.submit(SummaryRequest(**base))
        dense_response = engine.submit(
            SummaryRequest(**base, options={"kernel": "dense"})
        )
        assert bitset.kernel == "bitset"
        assert dense_response.kernel == "dense"
        assert dense_response.cache_hit is False  # dense pool is its own
        assert dense_response.objective == pytest.approx(bitset.objective)

    def test_auto_kernel_resolves_on_the_wire(self, small_answers):
        from repro.service import Engine
        from repro.service.api import SummaryRequest

        engine = Engine()
        engine.register_dataset("ds", small_answers)
        response = engine.submit(
            SummaryRequest(dataset="ds", k=3, L=8, D=1,
                           algorithm="bottom-up",
                           options={"kernel": "auto"})
        )
        # Small n: the policy lands on the default kernel.
        assert response.kernel == BITSET_KERNEL

    @needs_numpy
    def test_explore_accepts_dense(self, small_answers):
        from repro.service import Engine
        from repro.service.api import ExploreRequest

        engine = Engine()
        engine.register_dataset("ds", small_answers)
        response = engine.submit(
            ExploreRequest(dataset="ds", k=3, L=8, D=1, k_range=(2, 5),
                           d_values=(0, 1), kernel="dense")
        )
        assert response.kernel == "dense"
