"""Shared fixtures: small deterministic answer sets used across tests."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.answers import AnswerSet

try:  # the viz extra: repro.viz's placement solves with numpy and scipy
    import scipy.optimize  # noqa: F401
except ImportError:
    HAVE_VIZ = False
else:
    HAVE_VIZ = True

#: Skips a test that runs repro.viz code where the viz extra is missing.
needs_viz = pytest.mark.skipif(
    not HAVE_VIZ, reason="needs the viz extra (numpy, scipy)"
)

#: Wall-clock-dependent response fields, zeroed before any byte
#: comparison — the golden-file convention shared by the service tests,
#: the server transport-parity tests, and benchmarks/bench_server_load.py.
VOLATILE_RESPONSE_KEYS = ("init_seconds", "algo_seconds", "total_seconds")


def zero_timings(response: dict) -> dict:
    """A deep copy of a wire response with every volatile field zeroed
    (including all values of the open ``phase_seconds`` map)."""
    response = json.loads(json.dumps(response))
    for key in VOLATILE_RESPONSE_KEYS:
        if key in response:
            response[key] = 0.0
    for key in response.get("phase_seconds", {}):
        response["phase_seconds"][key] = 0.0
    return response


def paper_like_answers() -> AnswerSet:
    """The deterministic 8-row set behind tests/golden/summary_response.json."""
    rows = [
        ("1970s", "student"), ("1970s", "educator"), ("1980s", "student"),
        ("1980s", "engineer"), ("1990s", "student"), ("1990s", "writer"),
        ("1990s", "artist"), ("1980s", "artist"),
    ]
    values = [4.5, 4.2, 4.0, 3.9, 2.5, 2.2, 2.0, 3.0]
    return AnswerSet.from_rows(rows, values, attributes=("era", "group"))


def random_answer_set(
    n: int = 50,
    m: int = 4,
    domain: int = 4,
    seed: int = 0,
    value_range: tuple[float, float] = (1.0, 5.0),
) -> AnswerSet:
    """A random answer set with distinct elements (test helper)."""
    rng = random.Random(seed)
    if domain ** m < n:
        raise ValueError("domain too small for n distinct elements")
    seen: set[tuple[int, ...]] = set()
    rows = []
    values = []
    low, high = value_range
    while len(rows) < n:
        element = tuple(rng.randrange(domain) for _ in range(m))
        if element in seen:
            continue
        seen.add(element)
        rows.append(tuple("v%d_%d" % (i, v) for i, v in enumerate(element)))
        values.append(round(rng.uniform(low, high), 4))
    return AnswerSet.from_rows(rows, values)


@pytest.fixture
def small_answers() -> AnswerSet:
    """50 elements, 4 attributes, domain 4 — the workhorse fixture."""
    return random_answer_set(n=50, m=4, domain=4, seed=7)


@pytest.fixture
def tiny_answers() -> AnswerSet:
    """12 elements, 3 attributes — small enough for exhaustive checks."""
    return random_answer_set(n=12, m=3, domain=3, seed=3)


@pytest.fixture
def paper_example_answers() -> AnswerSet:
    """A hand-built answer set shaped like Figure 1a (rank structure)."""
    rows = [
        (1975, "20s", "M", "student"),
        (1980, "20s", "M", "programmer"),
        (1980, "10s", "M", "student"),
        (1980, "20s", "M", "student"),
        (1985, "20s", "M", "programmer"),
        (1980, "20s", "M", "engineer"),
        (1985, "10s", "M", "student"),
        (1985, "20s", "M", "student"),
        (1990, "30s", "M", "educator"),
        (1990, "20s", "F", "student"),
        (1995, "30s", "M", "marketing"),
        (1995, "20s", "M", "technician"),
        (1995, "30s", "M", "entertainment"),
        (1995, "20s", "M", "executive"),
        (1995, "30s", "F", "librarian"),
        (1995, "30s", "M", "student"),
        (1995, "20s", "M", "writer"),
        (1995, "20s", "F", "healthcare"),
    ]
    values = [
        4.24, 4.13, 3.96, 3.91, 3.86, 3.83, 3.77, 3.76,
        3.40, 3.30, 3.02, 2.92, 2.91, 2.91, 2.84, 2.81, 2.51, 1.98,
    ]
    return AnswerSet.from_rows(
        rows, values, attributes=("hdec", "agegrp", "gender", "occupation")
    )
