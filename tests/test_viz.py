"""Tests for the comparison visualization (Appendix A.7)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError
from repro.core.semilattice import ClusterPool
from repro.core.hybrid import hybrid
from tests.conftest import HAVE_VIZ, random_answer_set

if not HAVE_VIZ:
    pytest.skip("needs the viz extra (numpy, scipy)", allow_module_level=True)

from repro.viz.comparison import build_comparison, overlap_matrix  # noqa: E402
from repro.viz.placement import (  # noqa: E402
    brute_force_ordering,
    count_crossings,
    default_ordering,
    optimal_ordering,
    position_cost_matrix,
    total_distance,
)


class TestPlacementObjective:
    def test_total_distance_definition(self):
        overlap = [[2, 0], [0, 3]]
        # Identity orderings: both bands are horizontal -> distance 0.
        assert total_distance(overlap, [0, 1], [0, 1]) == 0
        # Swapping the right side: band weights times displacement 1.
        assert total_distance(overlap, [0, 1], [1, 0]) == 5

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            total_distance([], [0], [0])
        with pytest.raises(InvalidParameterError):
            total_distance([[1, 2], [3]], [0, 1], [0, 1])
        with pytest.raises(InvalidParameterError):
            total_distance([[1]], [1], [0])
        with pytest.raises(InvalidParameterError):
            total_distance([[1]], [0], [1])

    def test_cost_matrix_columns(self):
        overlap = [[4]]
        cost = position_cost_matrix(overlap, [0])
        assert cost.shape == (1, 1)
        assert cost[0][0] == 0


class TestOptimalOrdering:
    def test_matches_brute_force_small(self):
        overlap = [[3, 0, 1], [0, 2, 0], [1, 1, 4]]
        pa = [0, 1, 2]
        optimal = optimal_ordering(overlap, pa)
        brute = brute_force_ordering(overlap, pa)
        assert total_distance(overlap, pa, optimal) == total_distance(
            overlap, pa, brute
        )

    def test_never_worse_than_default(self):
        overlap = [[0, 5], [4, 0]]
        pa = [0, 1]
        optimal = optimal_ordering(overlap, pa)
        assert total_distance(overlap, pa, optimal) <= total_distance(
            overlap, pa, default_ordering(2)
        )

    def test_brute_force_size_guard(self):
        overlap = [[1] * 11 for _ in range(11)]
        with pytest.raises(InvalidParameterError):
            brute_force_ordering(overlap, list(range(11)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_hungarian_is_optimal_property(n_old, n_new, data):
    overlap = [
        [
            data.draw(st.integers(min_value=0, max_value=6))
            for _ in range(n_new)
        ]
        for _ in range(n_old)
    ]
    pa = data.draw(st.permutations(list(range(n_old))))
    optimal = optimal_ordering(overlap, pa)
    brute = brute_force_ordering(overlap, pa)
    assert total_distance(overlap, pa, optimal) == total_distance(
        overlap, pa, brute
    )


class TestCrossings:
    def test_no_crossings_on_identity_diagonal(self):
        overlap = [[1, 0], [0, 1]]
        assert count_crossings(overlap, [0, 1], [0, 1]) == 0

    def test_cross_pair_detected(self):
        overlap = [[0, 1], [1, 0]]
        assert count_crossings(overlap, [0, 1], [0, 1]) == 1
        assert count_crossings(overlap, [0, 1], [1, 0]) == 0

    def test_shared_endpoint_does_not_cross(self):
        overlap = [[1, 1]]
        assert count_crossings(overlap, [0], [0, 1]) == 0


class TestComparisonView:
    @pytest.fixture(scope="class")
    def comparison(self):
        answers = random_answer_set(n=60, m=4, domain=4, seed=12)
        pool = ClusterPool(answers, L=10)
        old = hybrid(pool, 6, 2)
        new = hybrid(pool, 3, 2)
        return answers, old, new, build_comparison(old, new, answers, L=10)

    def test_overlap_matrix_shape(self, comparison):
        answers, old, new, view = comparison
        matrix = overlap_matrix(old, new)
        assert len(matrix) == old.size
        assert all(len(row) == new.size for row in matrix)

    def test_overlap_counts_shared_tuples(self, comparison):
        answers, old, new, view = comparison
        for i, c_old in enumerate(old.clusters):
            for j, c_new in enumerate(new.clusters):
                assert view.overlap[i][j] == len(
                    c_old.covered & c_new.covered
                )

    def test_bands_match_positive_overlaps(self, comparison):
        answers, old, new, view = comparison
        band_keys = {(b.old_index, b.new_index) for b in view.bands}
        expected = {
            (i, j)
            for i in range(old.size)
            for j in range(new.size)
            if view.overlap[i][j] > 0
        }
        assert band_keys == expected

    def test_matched_never_worse_than_default(self, comparison):
        _, _, _, view = comparison
        assert view.matched_distance <= view.default_distance

    def test_box_positions_are_permutations(self, comparison):
        _, old, new, view = comparison
        assert sorted(b.position for b in view.old_boxes) == list(
            range(old.size)
        )
        assert sorted(b.position for b in view.new_boxes) == list(
            range(new.size)
        )

    def test_top_counts_bounded_by_size(self, comparison):
        _, _, _, view = comparison
        for box in view.old_boxes + view.new_boxes:
            assert 0 <= box.top_count <= box.size

    def test_render_ascii(self, comparison):
        _, _, _, view = comparison
        art = view.render_ascii()
        assert "old clusters" in art
        assert "bands" in art
