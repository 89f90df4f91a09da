"""Property tests for mask-only cluster pools.

Pools build no per-pattern frozensets at initialization and answer the
frozenset API from the bitmasks on demand; ``mask_only=True`` also leaves
the derived frozensets uncached.  These tests pin the contract: pools in
either mode are observationally identical — same coverage, same masks,
same clusters, same summaries under both kernels and both argmax modes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.bottom_up import bottom_up
from repro.core.hybrid import hybrid
from repro.core.semilattice import ClusterPool
from tests.conftest import random_answer_set
from tests.test_algorithm_properties import dyadic_instances

STRATEGIES = ("eager", "naive", "lazy")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pool_contents_identical(strategy):
    answers = random_answer_set(n=80, m=4, domain=4, seed=11)
    default = ClusterPool(answers, L=12, strategy=strategy)
    masked = ClusterPool(answers, L=12, strategy=strategy, mask_only=True)
    assert sorted(default.patterns()) == sorted(masked.patterns())
    for pattern in default.patterns():
        assert default.coverage(pattern) == masked.coverage(pattern)
        assert default.mask(pattern) == masked.mask(pattern)
        lhs, rhs = default.cluster(pattern), masked.cluster(pattern)
        assert lhs.covered == rhs.covered
        assert lhs.value_sum == rhs.value_sum
        assert lhs.mask == rhs.mask


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_out_of_pool_fallback_identical(strategy):
    answers = random_answer_set(n=40, m=3, domain=4, seed=5)
    default = ClusterPool(answers, L=4, strategy=strategy)
    masked = ClusterPool(answers, L=4, strategy=strategy, mask_only=True)
    # A pattern outside the pool (constructed from a non-top element).
    outside = answers.elements[-1]
    if outside in default:
        pytest.skip("random instance put every element in the pool")
    assert default.coverage(outside) == masked.coverage(outside)
    assert default.cluster(outside).covered == masked.cluster(outside).covered


@settings(max_examples=25, deadline=None)
@given(dyadic_instances())
def test_mask_only_summaries_identical_across_strategies_and_kernels(instance):
    """The acceptance property: mask-only and default pools produce
    identical summaries for every mapping strategy and both kernels."""
    answers, k, L, D = instance
    for strategy in STRATEGIES:
        default = ClusterPool(answers, L=L, strategy=strategy)
        masked = ClusterPool(
            answers, L=L, strategy=strategy, mask_only=True
        )
        for kernel in ("bitset", "python"):
            lhs = bottom_up(default, k, D, kernel=kernel)
            rhs = bottom_up(masked, k, D, kernel=kernel)
            assert lhs.patterns() == rhs.patterns()
            assert lhs.avg == rhs.avg
        lhs = hybrid(default, k, D)
        rhs = hybrid(masked, k, D)
        assert lhs.patterns() == rhs.patterns()


def test_mask_only_skips_frozenset_materialization():
    answers = random_answer_set(n=80, m=4, domain=4, seed=11)
    masked = ClusterPool(answers, L=12, mask_only=True)
    default = ClusterPool(answers, L=12)
    # The memory claim in observable terms: no per-pattern frozensets are
    # held after init, and the mask table holds only the root until
    # patterns are read.
    assert len(masked._coverage) == 0
    assert list(masked._masks) == [masked.root().pattern]
    for pattern in masked.patterns():
        masked.mask(pattern)
    assert len(masked._masks) == len(masked)
    assert len(default._coverage) == 0
    assert masked.mask_only and not default.mask_only
    assert "mask_only" in repr(masked)


def test_engine_mask_only_responses_identical():
    from repro.service import Engine, SummaryRequest

    answers = random_answer_set(n=60, m=4, domain=4, seed=3)
    request = SummaryRequest(dataset="d", k=4, L=10, D=1)
    default, masked = Engine(), Engine(mask_only=True)
    for engine in (default, masked):
        engine.register_dataset("d", answers)
    lhs = default.submit(request)
    rhs = masked.submit(request)
    assert lhs.objective == rhs.objective
    assert [c.pattern for c in lhs.clusters] == [
        c.pattern for c in rhs.clusters
    ]


def test_problem_instance_threads_mask_only():
    from repro.core.problem import ProblemInstance

    answers = random_answer_set(n=40, m=3, domain=4, seed=5)
    instance = ProblemInstance(answers, k=3, L=6, D=1, mask_only=True)
    assert instance.pool.mask_only
    solution = instance.solve("bottom-up")
    baseline = ProblemInstance(answers, k=3, L=6, D=1).solve("bottom-up")
    assert solution.patterns() == baseline.patterns()


def test_served_requests_derive_no_element_sets(monkeypatch):
    """The served path runs on masks, popcounts and value sums alone:
    after a summary without include_elements and an explore, no cached
    cluster and no returned solution has derived its frozenset."""
    from repro.core.problem import ProblemInstance
    from repro.interactive.precompute import SolutionStore
    from repro.service import Engine, ExploreRequest, SummaryRequest

    solutions = []

    def spy(method):
        def wrapper(*args, **kwargs):
            solution = method(*args, **kwargs)
            solutions.append(solution)
            return solution

        return wrapper

    monkeypatch.setattr(ProblemInstance, "solve", spy(ProblemInstance.solve))
    monkeypatch.setattr(
        SolutionStore, "retrieve", spy(SolutionStore.retrieve)
    )
    engine = Engine()
    engine.register_dataset("d", random_answer_set(n=60, m=4, domain=4,
                                                   seed=3))
    engine.submit(SummaryRequest(dataset="d", k=4, L=10, D=1))
    engine.submit(ExploreRequest(dataset="d", k=3, L=10, D=1,
                                 k_range=(2, 5), d_values=(0, 1)))
    assert len(solutions) == 2
    pools = [pool for _, pool in engine._pools.snapshot_items()]
    assert pools
    for pool in pools:
        assert not pool._coverage
        for cluster in pool._cluster_cache.values():
            assert "covered" not in vars(cluster), cluster
    for solution in solutions:
        assert "covered" not in vars(solution)
        for cluster in solution.clusters:
            assert "covered" not in vars(cluster), cluster


def test_served_requests_derive_only_the_masks_they_read():
    """A summary and an explore leave every cached pool holding fewer
    derived masks than patterns, and answer exactly as an engine whose
    pools had every mask derived before the requests."""
    from repro.service import Engine
    from repro.service.serve import Dispatcher
    from tests.conftest import zero_timings

    answers = random_answer_set(n=60, m=4, domain=4, seed=3)
    payloads = [
        {"schema_version": 2, "kind": "summary", "dataset": "d",
         "k": 4, "L": 10, "D": 1},
        {"schema_version": 2, "kind": "explore", "dataset": "d",
         "k": 3, "L": 10, "D": 1, "k_range": [2, 5], "d_values": [0, 1]},
    ]
    on_demand, derived = Engine(), Engine()
    for engine in (on_demand, derived):
        engine.register_dataset("d", answers)
    pool, _, _ = derived.checkout_pool("d", 10)
    for pattern in pool.patterns():
        pool.mask(pattern)
    responses = []
    for engine in (on_demand, derived):
        dispatcher = Dispatcher(engine)
        served = []
        for payload in payloads:
            response = zero_timings(
                dispatcher.dispatch_payload(dict(payload)).response
            )
            response.pop("cache_hit")
            served.append(response)
        responses.append(served)
    assert responses[0] == responses[1]
    pools = [pool for _, pool in on_demand._pools.snapshot_items()]
    assert pools
    for pool in pools:
        assert 1 <= len(pool._masks) < len(pool), (len(pool._masks), pool)
