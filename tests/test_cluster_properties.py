"""Property-based tests (hypothesis) for the pattern algebra.

These pin down the structural facts the paper's algorithms rely on: the
distance function is a metric and monotone under generalization
(Proposition 4.2), LCA is the semilattice join, and coverage is a partial
order.  The packed-int keys the merge engine runs on agree with the tuple
functions, order included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.interning import STAR
from repro.core.cluster import (
    Packing,
    covers,
    distance,
    generalizations,
    lca,
    level,
    strictly_covers,
)

M = 5
values = st.integers(min_value=0, max_value=3)
position = st.one_of(st.just(STAR), values)
patterns = st.tuples(*([position] * M))
elements = st.tuples(*([values] * M))


@given(patterns, patterns)
def test_distance_symmetric(p, q):
    assert distance(p, q) == distance(q, p)


@given(patterns)
def test_distance_to_self_counts_stars(p):
    # d(C, C) equals the number of * positions: each is a position where
    # "at least one of the values is *" (Definition 3.1).
    assert distance(p, p) == level(p)


@given(elements, elements)
def test_distance_on_elements_is_hamming(p, q):
    hamming = sum(1 for a, b in zip(p, q) if a != b)
    assert distance(p, q) == hamming


@given(patterns, patterns, patterns)
def test_distance_triangle_inequality(p, q, r):
    assert distance(p, r) <= distance(p, q) + distance(q, r)


@given(elements, elements)
def test_elements_identity_of_indiscernibles(p, q):
    assert (distance(p, q) == 0) == (p == q)


@given(patterns, patterns)
def test_lca_covers_both(p, q):
    joined = lca(p, q)
    assert covers(joined, p)
    assert covers(joined, q)


@given(patterns, patterns)
def test_lca_commutative(p, q):
    assert lca(p, q) == lca(q, p)


@given(patterns, patterns, patterns)
def test_lca_associative(p, q, r):
    assert lca(lca(p, q), r) == lca(p, lca(q, r))


@given(patterns, patterns, patterns)
def test_lca_is_least_upper_bound(p, q, r):
    # Any common ancestor r of p and q covers lca(p, q).
    if covers(r, p) and covers(r, q):
        assert covers(r, lca(p, q))


@given(patterns, patterns)
def test_coverage_antisymmetric(p, q):
    if covers(p, q) and covers(q, p):
        assert p == q


@given(patterns, patterns, patterns)
def test_coverage_transitive(p, q, r):
    if covers(p, q) and covers(q, r):
        assert covers(p, r)


@settings(max_examples=60)
@given(elements)
def test_generalizations_exactly_the_ancestors(element):
    # The generalizations of an element are exactly the patterns covering it.
    gens = set(generalizations(element))
    assert len(gens) == 2 ** M
    for pattern in gens:
        assert covers(pattern, element)


@given(patterns, patterns, patterns)
def test_proposition_4_2_monotonicity(c1, c2_seed, other):
    """Replacing a cluster with an ancestor never reduces its distance to a
    third cluster — the merge-safety property (Proposition 4.2)."""
    ancestor = lca(c1, c2_seed)  # some ancestor of c1
    assert distance(ancestor, other) >= distance(c1, other)


@given(patterns, patterns)
def test_merged_cluster_keeps_distance_to_others(p, q):
    # d(LCA(p,q), r) >= max(d(p,r), d(q,r)) follows from monotonicity twice.
    joined = lca(p, q)
    r = (0, 1, STAR, 2, 3)
    assert distance(joined, r) >= max(distance(p, r), distance(q, r))


@st.composite
def packed_patterns(draw):
    """``(packing, p, q, ancestor)``: m from 1 to 10, a top code on
    either side of a power-of-two boundary of ``code + 1`` (so some
    draws fill a field and keys reach 130 bits), and three patterns over
    codes up to it, the last one a generalization of ``p``."""
    m = draw(st.integers(min_value=1, max_value=10))
    bits = draw(st.integers(min_value=1, max_value=12))
    top_code = draw(st.one_of(
        st.sampled_from((2 ** bits - 1, 2 ** bits - 2)),
        st.integers(min_value=0, max_value=2 ** bits - 1),
    ))
    code = st.one_of(
        st.just(STAR), st.just(top_code),
        st.integers(min_value=0, max_value=top_code),
    )
    p, q = (draw(st.tuples(*[code] * m)) for _ in range(2))
    starred = draw(st.tuples(*[st.booleans()] * m))
    ancestor = tuple(STAR if star else v for v, star in zip(p, starred))
    return Packing(m, top_code), p, q, ancestor


@settings(max_examples=300)
@given(packed_patterns())
def test_packing_agrees_with_tuple_algebra(drawn):
    packing, p, q, ancestor = drawn
    kp, kq, ka = (packing.pack(x) for x in (p, q, ancestor))
    for pattern, key in ((p, kp), (q, kq), (ancestor, ka)):
        assert packing.unpack(key) == pattern
        assert packing.level(key) == level(pattern)
    assert (kp < kq) == (p < q)
    assert (kq < ka) == (q < ancestor)
    assert packing.unpack(packing.lca(kp, kq)) == lca(p, q)
    assert packing.distance(kp, kq) == distance(p, q)
    assert packing.distance(ka, kq) == distance(ancestor, q)
    for a, d, ka_, kd in ((p, q, kp, kq), (q, p, kq, kp),
                          (ancestor, p, ka, kp), (p, ancestor, kp, ka)):
        assert packing.covers(ka_, kd) == covers(a, d)
    pairs = [(p, kp), (q, kq), (ancestor, ka), (p, kp)]
    for a, key in pairs[:3]:
        assert packing.strictly_covered(key, [k for _, k in pairs]) == [
            k for d, k in pairs if strictly_covers(a, d)
        ]


@given(packed_patterns(), st.data())
def test_pack_rejects_codes_that_do_not_fit(drawn, data):
    packing, p, _, _ = drawn
    attr = data.draw(st.integers(min_value=0, max_value=packing.m - 1))
    for code in (2 ** packing.width - 1, STAR - 1):
        bad = p[:attr] + (code,) + p[attr + 1:]
        with pytest.raises(ValueError, match="does not fit"):
            packing.pack(bad)
    with pytest.raises(ValueError, match="arity"):
        packing.pack(p + (STAR,))
