"""What a cluster pool holds in memory, and what serving makes it hold.

A pool builds no per-pattern frozensets at initialization and derives a
pattern's mask on its first read.  These tests pin that down for a bare
pool and for the served path: a summary and an explore derive no element
sets and only the masks they read, and answer exactly as pools with every
mask derived up front.
"""

from __future__ import annotations

from repro.core.semilattice import ClusterPool
from tests.conftest import random_answer_set


def test_pool_skips_frozenset_materialization():
    answers = random_answer_set(n=80, m=4, domain=4, seed=11)
    pool = ClusterPool(answers, L=12)
    # The memory claim in observable terms: no per-pattern frozensets are
    # held after init, and the mask table holds only the root until
    # patterns are read.
    assert len(pool._coverage) == 0
    root = pool.root().pattern
    assert list(pool._masks) == [root]
    for pattern in pool.patterns():
        pool.mask(pattern)
    assert len(pool._masks) == len(pool)
    assert len(pool._coverage) == 0
    # coverage() derives a frozenset on first call and caches it.
    assert pool.coverage(root) is pool.coverage(root)
    assert list(pool._coverage) == [root]


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
