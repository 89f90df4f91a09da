"""Tests for the JSON assembly layer (repro.viz.export)."""

from __future__ import annotations

import json

import pytest

from repro.core.problem import ProblemInstance
from repro.core.semilattice import ClusterPool
from repro.interactive.guidance import build_guidance_view
from repro.interactive.precompute import SolutionStore
from repro.viz.export import (
    comparison_payload,
    guidance_payload,
    solution_payload,
    to_json,
)
from tests.conftest import needs_viz, random_answer_set


@pytest.fixture(scope="module")
def setup():
    answers = random_answer_set(n=50, m=4, domain=4, seed=51)
    solution = ProblemInstance(answers, k=4, L=8, D=2).solve()
    return answers, solution


class TestSolutionPayload:
    def test_layers_present(self, setup):
        answers, solution = setup
        payload = solution_payload(solution, answers)
        assert payload["objective"] == pytest.approx(solution.avg)
        assert len(payload["clusters"]) == solution.size
        for entry in payload["clusters"]:
            assert len(entry["members"]) == entry["size"]
            assert all(m["rank"] >= 1 for m in entry["members"])

    def test_members_optional(self, setup):
        answers, solution = setup
        payload = solution_payload(solution, answers, include_members=False)
        assert all("members" not in c for c in payload["clusters"])

    def test_star_rendering(self, setup):
        answers, solution = setup
        payload = solution_payload(solution, answers)
        stars = [
            v
            for cluster in payload["clusters"]
            for v in cluster["pattern"]
            if v == "*"
        ]
        levels = sum(c["level"] for c in payload["clusters"])
        assert len(stars) == levels

    def test_json_round_trip(self, setup):
        answers, solution = setup
        text = to_json(solution_payload(solution, answers), indent=2)
        parsed = json.loads(text)
        assert parsed["covered"] == len(solution.covered)


class TestGuidancePayload:
    def test_series_shape(self):
        answers = random_answer_set(n=60, m=4, domain=4, seed=52)
        pool = ClusterPool(answers, L=8)
        store = SolutionStore(pool, (2, 8), [1, 2])
        payload = guidance_payload(build_guidance_view(store))
        assert payload["L"] == 8
        assert [s["D"] for s in payload["series"]] == [1, 2]
        for series in payload["series"]:
            assert [p["k"] for p in series["points"]] == list(range(2, 9))
        assert sorted(d for b in payload["bundles"] for d in b) == [1, 2]
        json.loads(to_json(payload))


@needs_viz
class TestComparisonPayload:
    def test_bands_and_metrics(self):
        from repro.viz.comparison import build_comparison

        answers = random_answer_set(n=60, m=4, domain=4, seed=53)
        old = ProblemInstance(answers, k=5, L=8, D=1).solve()
        new = ProblemInstance(answers, k=3, L=10, D=1).solve()
        view = build_comparison(old, new, answers, L=10)
        payload = comparison_payload(view)
        assert len(payload["old"]) == old.size
        assert len(payload["new"]) == new.size
        assert payload["metrics"]["matched_distance"] <= payload[
            "metrics"
        ]["default_distance"]
        for band in payload["bands"]:
            assert band["shared"] > 0
        json.loads(to_json(payload))
