"""Tests for ClusterPool: generation, the three mapping strategies."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.common.errors import InvalidParameterError
from repro.common.interning import STAR
from repro.core import dense
from repro.core.bitset import bitset_of
from repro.core.cluster import covers, generalizations, lca
from repro.core.semilattice import ClusterPool
from tests.conftest import random_answer_set


class TestGeneration:
    def test_pool_contains_exactly_topl_generalizations(self, small_answers):
        pool = ClusterPool(small_answers, L=5)
        expected = set()
        for i in range(5):
            expected.update(generalizations(small_answers.elements[i]))
        assert set(pool.patterns()) == expected

    def test_pool_contains_root_and_singletons(self, small_answers):
        pool = ClusterPool(small_answers, L=3)
        assert tuple([STAR] * small_answers.m) in pool
        for i in range(3):
            assert small_answers.elements[i] in pool

    def test_lca_closure(self, small_answers):
        # The LCA of any two pool patterns is a pool pattern.
        pool = ClusterPool(small_answers, L=4)
        patterns = list(pool.patterns())
        for p in patterns[:20]:
            for q in patterns[:20]:
                assert lca(p, q) in pool

    def test_invalid_L_rejected(self, small_answers):
        with pytest.raises(InvalidParameterError):
            ClusterPool(small_answers, L=0)
        with pytest.raises(InvalidParameterError):
            ClusterPool(small_answers, L=small_answers.n + 1)

    def test_unknown_strategy_rejected(self, small_answers):
        with pytest.raises(InvalidParameterError):
            ClusterPool(small_answers, L=3, strategy="bogus")


class TestCoverageMapping:
    @pytest.mark.parametrize("strategy", ["eager", "naive", "lazy"])
    def test_coverage_matches_definition(self, small_answers, strategy):
        pool = ClusterPool(small_answers, L=5, strategy=strategy)
        for pattern in pool.patterns():
            expected = frozenset(
                i
                for i, element in enumerate(small_answers.elements)
                if covers(pattern, element)
            )
            assert pool.coverage(pattern) == expected

    def test_strategies_agree(self):
        answers = random_answer_set(n=40, m=4, domain=3, seed=11)
        eager = ClusterPool(answers, L=6, strategy="eager")
        naive = ClusterPool(answers, L=6, strategy="naive")
        lazy = ClusterPool(answers, L=6, strategy="lazy")
        for pattern in eager.patterns():
            assert eager.coverage(pattern) == naive.coverage(pattern)
            assert eager.coverage(pattern) == lazy.coverage(pattern)

    @pytest.mark.parametrize("kernel", [None, "dense"])
    def test_racing_first_reads_derive_correct_masks(self, kernel):
        """Four threads read a fresh pool, each in its own pattern order,
        released together by a barrier: every mask and cluster mask equals
        a direct covers() scan, and every pattern ends up derived."""
        if kernel == "dense" and not dense.HAVE_NUMPY:
            pytest.skip("the dense kernel needs numpy")
        answers = random_answer_set(n=120, m=4, domain=4, seed=21)
        pool = ClusterPool(answers, L=16, kernel=kernel)
        expected = {
            pattern: bitset_of(
                index for index, element in enumerate(answers.elements)
                if covers(pattern, element)
            )
            for pattern in pool.patterns()
        }
        as_int = (lambda mask: mask._as_int()) if kernel else (lambda m: m)
        barrier = threading.Barrier(4)
        mismatches = []

        def reader(seed):
            order = list(expected)
            random.Random(seed).shuffle(order)
            barrier.wait(10)
            for pattern in order:
                if as_int(pool.mask(pattern)) != expected[pattern]:
                    mismatches.append(("mask", pattern))
                if as_int(pool.cluster(pattern).mask) != expected[pattern]:
                    mismatches.append(("cluster", pattern))

        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(pool._masks) == len(pool)

    def test_root_covers_all(self, small_answers):
        pool = ClusterPool(small_answers, L=3)
        assert pool.root().covered == frozenset(range(small_answers.n))

    def test_singleton_covers_itself_only(self, small_answers):
        pool = ClusterPool(small_answers, L=3)
        assert pool.singleton(0).covered == frozenset({0})

    def test_out_of_pool_pattern_falls_back_to_scan(self, small_answers):
        pool = ClusterPool(small_answers, L=2)
        # Build a pattern unlikely to be in the pool: last element's tuple.
        pattern = small_answers.elements[-1]
        expected = frozenset(
            i
            for i, element in enumerate(small_answers.elements)
            if covers(pattern, element)
        )
        assert pool.coverage(pattern) == expected


class TestClusterMaterialization:
    def test_cluster_value_sum(self, small_answers):
        pool = ClusterPool(small_answers, L=4)
        root = pool.root()
        assert root.value_sum == pytest.approx(sum(small_answers.values))
        assert root.avg == pytest.approx(small_answers.avg_all())

    def test_cluster_cache_returns_same_object(self, small_answers):
        pool = ClusterPool(small_answers, L=4)
        p = next(iter(pool.patterns()))
        assert pool.cluster(p) is pool.cluster(p)

    def test_pool_len_and_repr(self, small_answers):
        pool = ClusterPool(small_answers, L=2)
        assert len(pool) == len(list(pool.patterns()))
        assert "ClusterPool" in repr(pool)
