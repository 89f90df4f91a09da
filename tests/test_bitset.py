"""Tests for the bitset kernel primitives and their integration points:
:mod:`repro.core.bitset`, the AnswerSet prefix sums/mask helpers, the
Cluster mask, and the ClusterPool mask table + bounded fallback cache."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError
from repro.core import dense, semilattice
from repro.core.answers import AnswerSet
from repro.core.bitset import (
    BITSET_KERNEL,
    DEFAULT_KERNEL,
    DENSE_KERNEL,
    bitset_of,
    iter_bits,
    mask_value_sum,
    resolve_kernel,
)
from repro.core.cluster import Cluster, covers
from repro.core.semilattice import ClusterPool
from tests.conftest import random_answer_set


class TestBitsetPrimitives:
    def test_bitset_roundtrip(self):
        for indices in ([], [0], [5], [0, 1, 63, 64, 65, 1000], list(range(200))):
            mask = bitset_of(indices)
            assert list(iter_bits(mask)) == sorted(indices)
            assert mask.bit_count() == len(indices)

    def test_bitset_of_accepts_any_iterable(self):
        assert bitset_of(frozenset({3, 1})) == 0b1010
        assert bitset_of(i for i in (2, 0)) == 0b101

    def test_mask_value_sum_sparse_and_dense(self):
        rng = random.Random(7)
        values = [rng.uniform(0.0, 5.0) for _ in range(1500)]
        # Sparse path: few set bits.
        sparse = sorted(rng.sample(range(1500), 20))
        mask = bitset_of(sparse)
        assert mask_value_sum(values, mask) == pytest.approx(
            sum(values[i] for i in sparse)
        )
        # Dense path: enough bits to trip the byte-walk branch.
        dense = sorted(rng.sample(range(1500), 900))
        mask = bitset_of(dense)
        assert mask_value_sum(values, mask) == pytest.approx(
            sum(values[i] for i in dense)
        )
        assert mask_value_sum(values, 0) == 0.0

    def test_resolve_kernel(self):
        assert resolve_kernel(None) == DEFAULT_KERNEL == BITSET_KERNEL
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            resolve_kernel("numpy")
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            resolve_kernel("python")  # removed in 4.0.0

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.sets(st.integers(0, 5000), max_size=40),
        st.sets(st.integers(0, 2000), min_size=150, max_size=300),
        st.sets(st.integers(0, 3000), min_size=96, max_size=97),
    ))
    def test_iter_bits_matches_low_bit_loop(self, indices):
        """Both paths of iter_bits (sparse, and the byte walk above
        popcount 96) list the bits the plain low-bit loop does."""
        mask = bitset_of(indices)
        expected = []
        rest = mask
        while rest:
            low = rest & -rest
            expected.append(low.bit_length() - 1)
            rest ^= low
        assert list(iter_bits(mask)) == expected


class TestAnswerSetKernelSupport:
    def test_prefix_sums_and_ranges(self):
        answers = AnswerSet(
            [(0,), (1,), (2,), (3,)], [4.0, 3.0, 2.0, 1.0]
        )
        assert answers.value_prefix_sums == [0.0, 4.0, 7.0, 9.0, 10.0]
        assert answers.value_sum_range(1, 3) == pytest.approx(5.0)
        assert answers.value_sum_range(0, 4) == pytest.approx(10.0)

    def test_avg_all_cached_and_correct(self):
        answers = random_answer_set(n=30, m=3, domain=4, seed=9)
        expected = sum(answers.values) / answers.n
        assert answers.avg_all() == pytest.approx(expected)
        assert answers.avg_all() is answers.avg_all() or True  # cached value
        assert answers._avg_all is not None

    def test_avg_of_contiguous_uses_prefix(self):
        answers = random_answer_set(n=20, m=3, domain=4, seed=2)
        top = list(range(7))
        assert answers.avg_of(top) == pytest.approx(
            sum(answers.values[:7]) / 7
        )
        scattered = [0, 2, 5]
        assert answers.avg_of(scattered) == pytest.approx(
            sum(answers.values[i] for i in scattered) / 3
        )

    def test_mask_value_sum_delegation(self):
        answers = random_answer_set(n=16, m=3, domain=4, seed=4)
        mask = bitset_of([1, 3, 8])
        assert answers.mask_value_sum(mask) == pytest.approx(
            answers.values[1] + answers.values[3] + answers.values[8]
        )


@st.composite
def _values_and_mask(draw):
    """Arbitrary non-negative values over n in 1..300 and a mask over them
    with popcount 0-20 (either side of the numpy crossover) or dense.

    Values stay below 1e6 so that sums round: unbounded draws mostly
    overflow to inf, where every summation order agrees."""
    n = draw(st.integers(min_value=1, max_value=300))
    values = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=n, max_size=n
    ))
    if draw(st.booleans()):
        indices = draw(st.sets(
            st.integers(min_value=0, max_value=n - 1),
            max_size=min(n, 20),
        ))
    else:
        indices = [
            i for i, keep in enumerate(draw(st.lists(
                st.booleans(), min_size=n, max_size=n
            ))) if keep
        ]
    return values, bitset_of(indices)


@pytest.mark.skipif(not dense.HAVE_NUMPY, reason="compares numpy sums")
@settings(max_examples=150, deadline=None)
@given(_values_and_mask())
def test_value_sums_agree_bit_for_bit(case):
    """The stdlib bitset.mask_value_sum, the vectorized
    dense.int_mask_value_sum and the BitBlocks sum of the same bits
    return the same float, and AnswerSet.mask_value_sum returns it for
    either mask."""
    values, mask = case
    answers = AnswerSet([(i,) for i in range(len(values))], values)
    # AnswerSet sorts by value; sum the same rank-ordered values.
    ranked = answers.values
    table = answers.value_table
    blocks = dense.int_to_blocks(mask, len(ranked))
    expected = mask_value_sum(ranked, mask)
    assert dense.int_mask_value_sum(table, mask) == expected
    assert blocks.value_sum(table) == expected
    assert answers.mask_value_sum(mask) == expected
    assert answers.mask_value_sum(blocks) == expected


class TestClusterMask:
    def test_mask_matches_covered(self):
        cluster = Cluster(
            pattern=(1, -1), covered=frozenset({0, 3, 70}), value_sum=3.0
        )
        assert cluster.mask == bitset_of([0, 3, 70])
        # A cluster built from the mask derives the same covered set.
        assert Cluster((1, -1), cluster.mask, 3.0).covered == cluster.covered


class TestPoolMasksAndFallback:
    @pytest.mark.parametrize("strategy", ["eager", "naive", "lazy"])
    def test_pool_masks_match_coverage(self, strategy):
        """Every pattern's mask equals a direct covers() scan, on int and
        dense pools, before and after extended().  ``"lazy"`` named the
        eager mapping before 5.0.0; now the pool rejects it."""
        full = random_answer_set(n=56, m=4, domain=3, seed=6)
        rows = [full.decode(element) for element in full.elements]
        # Interleaved halves: the append lands rows inside the top-6.
        answers = AnswerSet.from_rows(rows[0::2], full.values[0::2])
        if strategy == "lazy":
            with pytest.raises(InvalidParameterError, match="unknown mapping"):
                ClusterPool(answers, L=6, strategy=strategy)
            return
        grown, delta = answers.extended(rows[1::2], full.values[1::2])
        for kernel in (None, "dense"):
            pool = ClusterPool(answers, L=6, strategy=strategy, kernel=kernel)
            carried = pool.extended(grown, delta)
            for built in (pool, carried):
                elements = built.answers.elements
                for pattern in built.patterns():
                    expected = bitset_of(
                        index for index, element in enumerate(elements)
                        if covers(pattern, element)
                    )
                    mask = built.mask(pattern)
                    # Key on the kernel the pool resolved: without numpy
                    # a "dense" pool holds int masks.
                    if built.kernel == DENSE_KERNEL:
                        assert mask.nbits == len(elements)
                        mask = mask._as_int()
                    assert mask == expected, (kernel, pattern)
                    # The cluster derives its element set from the
                    # mask on first access: the same scan's indices.
                    assert built.cluster(pattern).covered == frozenset(
                        iter_bits(expected)
                    ), (kernel, pattern)

    def test_value_masks_past_255_codes(self):
        """An attribute with more than 255 distinct codes among the top-L
        packs its value masks in more than one slot group."""
        rows = [("r%d" % i, "c%d" % (i % 3)) for i in range(400)]
        answers = AnswerSet.from_rows(rows, [400.0 - i for i in range(400)])
        pool = ClusterPool(answers, L=300)
        for pattern in pool.patterns():
            assert pool.mask(pattern) == bitset_of(
                index for index, element in enumerate(answers.elements)
                if covers(pattern, element)
            ), pattern

    def test_pool_cluster_carries_mask(self):
        answers = random_answer_set(n=30, m=4, domain=3, seed=6)
        pool = ClusterPool(answers, L=5)
        for pattern in list(pool.patterns())[:10]:
            cluster = pool.cluster(pattern)
            assert cluster.mask == pool.mask(pattern)

    def test_out_of_pool_fallback_is_bounded(self, monkeypatch):
        monkeypatch.setattr(semilattice, "FALLBACK_CACHE_SIZE", 8)
        answers = random_answer_set(n=30, m=4, domain=4, seed=8)
        pool = ClusterPool(answers, L=4)
        probed = []
        # Probe many patterns that are not generalizations of the top-4.
        for code_a in range(4):
            for code_b in range(4):
                pattern = (code_a, code_b, -1, -1)
                if pattern in pool:
                    continue
                probed.append(pattern)
                expected = frozenset(
                    i
                    for i, element in enumerate(answers.elements)
                    if all(
                        p == -1 or p == e
                        for p, e in zip(pattern, element)
                    )
                )
                assert pool.coverage(pattern) == expected
        assert len(probed) > 8
        assert len(pool._fallback) <= 8
        # Pool-internal caches must not have absorbed out-of-pool patterns.
        for pattern in probed:
            assert pattern not in pool._coverage
            assert pattern not in pool._cluster_cache

    def test_fallback_results_stay_correct_after_eviction(self, monkeypatch):
        monkeypatch.setattr(semilattice, "FALLBACK_CACHE_SIZE", 2)
        answers = random_answer_set(n=25, m=3, domain=3, seed=5)
        pool = ClusterPool(answers, L=3)
        pattern = next(
            p
            for a in range(3)
            for b in range(3)
            for p in ((a, b, -1),)
            if p not in pool
        )
        first = pool.coverage(pattern)
        # Evict it by probing other patterns, then re-ask.
        pool.coverage((1, -1, -1))
        pool.coverage((2, -1, -1))
        assert pool.coverage(pattern) == first


class TestKernelWiring:
    def test_merge_engine_rejects_unknown_kernel(self):
        """The engine takes no kernel: it runs on its pool's.  An unknown
        name is rejected where a kernel is still an input, the pool."""
        from repro.core.merge import MergeEngine

        answers = random_answer_set(n=12, m=3, domain=3, seed=2)
        for kernel in ("bitset", "dense"):
            pool = ClusterPool(answers, L=3, kernel=kernel)
            engine = MergeEngine(pool, (pool.singleton(0),))
            assert engine.pool.kernel == resolve_kernel(kernel)
            assert type(engine.snapshot().mask) is type(pool.as_mask(0))
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            ClusterPool(answers, L=3, kernel="bogus")

    def test_service_reports_kernel_and_phases(self):
        from repro.service import Engine, SummaryRequest

        answers = random_answer_set(n=30, m=4, domain=3, seed=3)
        engine = Engine()
        engine.register_dataset("d", answers)
        fast = engine.submit(SummaryRequest(dataset="d", k=3, L=6, D=1))
        assert fast.kernel == "bitset"
        assert set(fast.phase_seconds) >= {
            "pool_build", "merge_loop", "serialize",
        }
        # The merge engine's argmax counters ride along in the same open
        # float dict (counts, not seconds).
        assert fast.phase_seconds["argmax_heap"] == 1.0
        assert fast.phase_seconds["argmax_evals"] >= 1.0
        other = engine.submit(SummaryRequest(
            dataset="d", k=3, L=6, D=1, algorithm="bottom-up",
            options={"kernel": "dense"},
        ))
        assert other.kernel == resolve_kernel("dense")
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            engine.submit(SummaryRequest(
                dataset="d", k=3, L=6, D=1, algorithm="bottom-up",
                options={"kernel": "python"},
            ))

    def test_explore_kernel_choice_splits_store_cache(self):
        from repro.service import Engine, ExploreRequest

        answers = random_answer_set(n=30, m=4, domain=3, seed=3)
        engine = Engine()
        engine.register_dataset("d", answers)
        request = dict(dataset="d", k=3, L=6, D=1, k_range=(2, 4),
                       d_values=(1,))
        fast = engine.submit(ExploreRequest(**request, kernel="bitset"))
        slow = engine.submit(ExploreRequest(**request, kernel="dense"))
        assert fast.kernel == "bitset"
        assert slow.kernel == resolve_kernel("dense")
        # Different kernel, different store (without numpy, "dense"
        # resolves to bitset and shares the first store).
        assert slow.cache_hit is (slow.kernel == "bitset")
        assert fast.objective == pytest.approx(slow.objective)
        assert [c.pattern for c in fast.clusters] == [
            c.pattern for c in slow.clusters
        ]
