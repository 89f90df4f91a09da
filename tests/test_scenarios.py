"""Scenario harness tests: spec surface, trace determinism, smoke runs.

Marked ``scenario`` (see ``pyproject.toml``): the CI scenarios job
selects them with ``-m scenario``.  Everything here is smoke-sized —
the full matrix lives in ``benchmarks/bench_scenarios.py`` and its
committed ``BENCH_scenarios.json`` (floors re-checked by
``tests/test_docs.py``).
"""

from __future__ import annotations

from random import Random

import pytest

from repro.common.errors import InvalidParameterError
from repro.datasets.loader import synthetic_answer_set
from repro.scenarios import (
    AppendSpec,
    DatasetSpec,
    ScenarioSpec,
    compile_trace,
    evaluate_floors,
    run_scenario,
    summarize,
)
from repro.scenarios.matrix import full_matrix, smoke_matrix
from repro.scenarios.runner import check_append_identity, normalize_response
from repro.scenarios.trace import _append_events, _pick_kind
from repro.service.api import SCHEMA_VERSION

pytestmark = pytest.mark.scenario


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="tiny",
        dataset=DatasetSpec("synthetic", {"n": 32, "m": 4, "seed": 5}),
        shape="drill-down-heavy", clients=2, steps=3, seed=9,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecSurface:
    def test_every_matrix_spec_round_trips_through_dicts(self):
        for spec in full_matrix() + smoke_matrix():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_shape_transport_and_source_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(shape="zigzag")
        with pytest.raises(InvalidParameterError):
            tiny_spec(transport="carrier-pigeon")
        with pytest.raises(InvalidParameterError):
            DatasetSpec("imagenet", {})

    def test_degenerate_clients_steps_and_mixture_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(clients=0)
        with pytest.raises(InvalidParameterError):
            tiny_spec(steps=0)
        with pytest.raises(InvalidParameterError):
            tiny_spec(mixture={"summary": -1.0})
        with pytest.raises(InvalidParameterError):
            tiny_spec(mixture={"teleport": 1.0})

    def test_append_spec_adds_epochs(self):
        assert tiny_spec().epochs == 1
        spec = tiny_spec(append=AppendSpec(batches=3, rows_per_batch=2))
        assert spec.epochs == 4

    def test_pick_kind_honours_degenerate_mixture(self):
        rng = Random(0)
        kinds = {
            _pick_kind(rng, {"guidance": 1.0}) for _ in range(32)
        }
        assert kinds == {"guidance"}


class TestTraceCompilation:
    @pytest.fixture(scope="class")
    def answers(self):
        return synthetic_answer_set(n=32, m=4, seed=5)

    @pytest.mark.parametrize(
        "shape", ["drill-down-heavy", "revisit-heavy", "cold-churn"]
    )
    def test_traces_are_deterministic_and_schema_versioned(
        self, answers, shape
    ):
        spec = tiny_spec(shape=shape)
        trace = compile_trace(spec, answers)
        again = compile_trace(spec, answers)
        assert [e.requests for e in trace.epochs] == [
            e.requests for e in again.epochs
        ]
        assert trace.total_requests == spec.clients * spec.steps
        for _, _, request in trace.flat_requests():
            assert request["schema_version"] == SCHEMA_VERSION
            assert request["dataset"] == spec.name
            assert request["kind"] in {"summary", "explore", "guidance"}

    def test_append_epochs_carry_events_in_order(self, answers):
        spec = tiny_spec(append=AppendSpec(batches=2, rows_per_batch=3))
        trace = compile_trace(spec, answers)
        assert [e.append is not None for e in trace.epochs] == [
            False, True, True,
        ]
        seen = set()
        for epoch in trace.epochs[1:]:
            event = epoch.append
            assert len(event.rows) == len(event.values) == 3
            payload = event.payload(spec.name)
            assert payload["kind"] == "append_rows"
            assert payload["dataset"] == spec.name
            seen.update(event.rows)
        # Every appended row is globally fresh — never a duplicate of an
        # existing tuple (which the engine would reject) or of another
        # appended row.
        assert len(seen) == 6
        assert seen.isdisjoint(set(answers.elements))


class TestAppendIdentity:
    def test_maintained_pool_matches_rebuild_on_all_kernels(self):
        answers = synthetic_answer_set(n=28, m=4, seed=13)
        spec = tiny_spec(append=AppendSpec(batches=3, rows_per_batch=4))
        events = _append_events(spec, answers)
        verdict = check_append_identity(answers, events, L=3)
        assert verdict["identical"] is True
        assert verdict["kernels"] == {"bitset": True, "dense": True}
        assert verdict["batches"] == 3
        assert verdict["rows_appended"] == 12


class TestNormalization:
    def test_tuples_volatile_keys_and_timings_are_canonicalized(self):
        raw = {
            "pattern": ("a", "*"),
            "cache_hit": True,
            "init_seconds": 0.123,
            "phase_seconds": {"merge": 0.5},
            "nested": [("x",), {"total_seconds": 1.0}],
        }
        assert normalize_response(raw) == {
            "pattern": ["a", "*"],
            "init_seconds": 0.0,
            "phase_seconds": {"merge": 0.0},
            "nested": [["x"], {"total_seconds": 0.0}],
        }


class TestSmokeRuns:
    """End-to-end over a real TCP server — the same specs CI's
    ``bench_scenarios.py --smoke`` runs."""

    @pytest.fixture(scope="class")
    def smoke_reports(self):
        return {
            spec.name: run_scenario(spec) for spec in smoke_matrix()
        }

    def test_revisit_smoke_is_differentially_identical(self, smoke_reports):
        report = smoke_reports["smoke-revisit"]
        assert report["differential"]["identical"] is True
        assert report["errors"]["total"] == 0
        assert report["requests"] == report["responses"]
        assert evaluate_floors(report) == []

    def test_append_smoke_maintains_pools_identically(self, smoke_reports):
        report = smoke_reports["smoke-append"]
        assert report["append_check"]["identical"] is True
        assert set(report["append_check"]["kernels"]) == {"bitset", "dense"}
        assert report["differential"]["identical"] is True
        assert evaluate_floors(report) == []

    def test_summarize_rolls_up_floor_verdicts(self, smoke_reports):
        summary = summarize(list(smoke_reports.values()))
        assert summary["scenario_count"] == 2
        assert summary["all_floors_hold"] is True
        for scenario in summary["scenarios"]:
            assert scenario["floor_violations"] == []

    def test_violated_floors_are_reported_not_silently_passed(
        self, smoke_reports
    ):
        import copy

        report = copy.deepcopy(smoke_reports["smoke-revisit"])
        report["spec"]["floors"] = {
            "min_requests": 10_000, "max_error_rate": 0.0,
        }
        violations = evaluate_floors(report)
        assert len(violations) == 1
        assert "floor is 10000" in violations[0]
        with pytest.raises(ValueError):
            evaluate_floors(
                {"spec": {"floors": {"min_unicorns": 1}}}
            )
