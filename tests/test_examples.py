"""Every example script must run and produce its key output markers."""

from __future__ import annotations

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tests.conftest import needs_viz

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    argv = sys.argv
    sys.argv = [name]
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return buffer.getvalue()


def test_quickstart():
    output = run_example("quickstart.py")
    assert "aggregate query returned" in output
    assert "objective avg(O)" in output
    assert "rank" in output  # second layer shown


@needs_viz
def test_movielens_exploration():
    output = run_example("movielens_exploration.py")
    assert "Figure 1b" in output
    assert "Figure 1c" in output
    assert "Figure 13" in output
    assert "knee points" in output


def test_interactive_session():
    output = run_example("interactive_session.py")
    assert "retrievals are interactive" in output
    assert "interval-tree storage" in output
    assert "flat k-regions" in output
    assert "cache_hit=True" in output  # the shared engine is warm


def test_service_api():
    output = run_example("service_api.py")
    assert "summary request" in output
    assert "kind=summary_response" in output
    assert "cache_hit=True" in output
    assert '"kind": "error"' in output
    assert "served 3 responses" in output


def test_baselines_comparison():
    output = run_example("baselines_comparison.py")
    for marker in (
        "our framework", "smart drill-down", "diversified top-k",
        "DisC diversity", "MMR",
    ):
        assert marker in output


def test_hierarchy_ranges():
    output = run_example("hierarchy_ranges.py")
    assert "generalized clusters" in output
    assert "join(1991, 1993) = 1990-1994" in output


@pytest.mark.slow
def test_tpcds_scalability():
    output = run_example("tpcds_scalability.py")
    assert "scalability" in output
    assert "precompute" in output


def test_user_study_example():
    output = run_example("user_study.py")
    assert "Table 1" in output
    assert "preferred" in output
