"""Tests for the user-study simulation (Section 8)."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.problem import ProblemInstance
from repro.datasets.loader import synthetic_answer_set
from repro.userstudy.metrics import (
    HIGH,
    LOW,
    TOP,
    categorize,
    mean_std,
    t_accuracy,
    th_accuracy,
)
from repro.userstudy.patterns import from_solution
from repro.userstudy.simulator import (
    SECTIONS,
    StudyArm,
    run_task_group,
    simulate_preferences,
)
from repro.userstudy.study import format_table, run_study


@pytest.fixture(scope="module")
def study_answers():
    # domain_size=4 keeps top elements similar enough that the distance
    # constraint binds, so the D=1 and D=3 arms genuinely differ.
    return synthetic_answer_set(300, m=5, domain_size=4, seed=3)


class TestMetrics:
    def test_categorize_boundaries(self, study_answers):
        labels = categorize(study_answers, L=20)
        average = study_answers.avg_all()
        assert labels[:20] == [TOP] * 20
        for rank in range(20, study_answers.n):
            expected = HIGH if study_answers.values[rank] >= average else LOW
            assert labels[rank] == expected

    def test_t_accuracy(self):
        truths = [TOP, TOP, HIGH, LOW]
        predictions = [TOP, HIGH, LOW, LOW]
        # positives: TOP.  TP=1 FN=1 TN=2 FP=0 -> 3/4.
        assert t_accuracy(truths, predictions) == pytest.approx(0.75)

    def test_th_accuracy(self):
        truths = [TOP, HIGH, LOW, LOW]
        predictions = [HIGH, LOW, LOW, TOP]
        # positives: TOP|HIGH.  TP=1 FN=1 TN=1 FP=1 -> 2/4.
        assert th_accuracy(truths, predictions) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            t_accuracy([TOP], [])

    def test_mean_std(self):
        mean, std = mean_std([2.0, 4.0])
        assert mean == pytest.approx(3.0)
        assert std == pytest.approx(1.0)


class TestTaskGroup:
    @pytest.fixture(scope="class")
    def arm(self, study_answers):
        solution = ProblemInstance(study_answers, k=8, L=30, D=1).solve()
        return StudyArm(
            name="ours",
            patterns=tuple(from_solution(solution, study_answers, 30)),
        )

    def test_all_sections_reported(self, study_answers, arm):
        result = run_task_group(study_answers, 30, arm, n_subjects=8, seed=5)
        assert set(result.sections) == set(SECTIONS)

    def test_deterministic_given_seed(self, study_answers, arm):
        a = run_task_group(study_answers, 30, arm, n_subjects=6, seed=9)
        b = run_task_group(study_answers, 30, arm, n_subjects=6, seed=9)
        for section in SECTIONS:
            assert a.sections[section] == b.sections[section]

    def test_members_section_most_accurate(self, study_answers, arm):
        result = run_task_group(study_answers, 30, arm, n_subjects=12, seed=5)
        members = result.sections["patterns+members"]
        patterns_only = result.sections["patterns-only"]
        assert members.t_accuracy_mean >= patterns_only.t_accuracy_mean - 0.05
        assert members.t_accuracy_mean > 0.85

    def test_memory_section_fastest(self, study_answers, arm):
        result = run_task_group(study_answers, 30, arm, n_subjects=12, seed=5)
        assert (
            result.sections["memory-only"].time_mean
            < result.sections["patterns-only"].time_mean
        )
        assert (
            result.sections["memory-only"].time_mean
            < result.sections["patterns+members"].time_mean
        )

    def test_learning_multiplier_scales_time(self, study_answers, arm):
        slow = run_task_group(
            study_answers, 30, arm, n_subjects=8, seed=5, time_multiplier=1.5
        )
        fast = run_task_group(
            study_answers, 30, arm, n_subjects=8, seed=5, time_multiplier=1.0
        )
        for section in SECTIONS:
            assert (
                slow.sections[section].time_mean
                > fast.sections[section].time_mean
            )

    def test_preferences_sum_to_subjects(self, study_answers, arm):
        a = run_task_group(study_answers, 30, arm, n_subjects=10, seed=1)
        b = run_task_group(study_answers, 30, arm, n_subjects=10, seed=2)
        left, right = simulate_preferences(a, b, n_subjects=10, seed=3)
        assert left + right == 10
        assert a.preferred_by == left
        assert b.preferred_by == right


class TestFullStudy:
    @pytest.fixture(scope="class")
    def study(self, study_answers):
        return run_study(study_answers, n_subjects=12, seed=2)

    def test_three_groups(self, study):
        names = [g.name for g in study.groups()]
        assert names == ["varying-method", "varying-k", "varying-D"]

    def test_our_method_beats_tree_on_th_accuracy(self, study):
        """The paper's headline: simple patterns separate high from low
        better than decision-tree predicates (patterns-only section)."""
        tree = study.varying_method.left.sections["patterns-only"]
        ours = study.varying_method.right.sections["patterns-only"]
        assert ours.th_accuracy_mean > tree.th_accuracy_mean

    def test_our_method_preferred_over_tree(self, study):
        assert (
            study.varying_method.right.preferred_by
            > study.varying_method.left.preferred_by
        )

    def test_bigger_k_slower_with_patterns(self, study):
        k5 = study.varying_k.left.sections["patterns-only"]
        k10 = study.varying_k.right.sections["patterns-only"]
        assert k10.time_mean > k5.time_mean

    def test_bigger_d_faster_patterns_only(self, study):
        d1 = study.varying_d.left.sections["patterns-only"]
        d3 = study.varying_d.right.sections["patterns-only"]
        assert d3.time_mean <= d1.time_mean * 1.1

    def test_format_table_layout(self, study):
        table = format_table(study, n_subjects=12)
        assert "patterns-only" in table
        assert "preferred" in table
        assert "decision-tree" in table

    def test_learning_sequence_variant_runs(self, study_answers):
        study = run_study(
            study_answers, n_subjects=6, seed=4, learning_sequence=True
        )
        assert study.varying_method.right.sections["patterns-only"].time_mean > 0
