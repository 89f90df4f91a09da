"""Byte-level golden for summary responses at a realistic size.

``tests/golden/summary_response.json`` pins the wire format on 8 rows,
too few for most tie-breaks, delta refreshes or heap pops to happen.
This file pins whole responses (clusters, objective and the solver
counters in ``phase_seconds``; timings zeroed) on a seeded set with
n=2000 and m=6: Hybrid over a grid of (L, k, D), plus one Bottom-Up,
one Fixed-Order and one scan-argmax cell.  Values are dyadic, so every
value sum is exact and the responses are the same on any host.

The six domains alternate 16 and 15 values, so their largest codes sit
on either side of a power-of-two boundary of ``code + 1``.

Regenerate only when a change is meant to alter responses::

    PYTHONPATH=src python tests/test_golden_cells.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core.answers import AnswerSet
from repro.service.engine import Engine

GOLDEN = Path(__file__).parent / "golden" / "summary_cells.json"

#: Domain size per attribute: codes up to 15 (``code + 1`` = 16) and 14.
DOMAINS = (16, 15, 16, 15, 16, 15)

#: Response fields and ``phase_seconds`` entries that are wall-clock
#: times; the solver counters next to them are kept.
TIMINGS = ("init_seconds", "algo_seconds", "total_seconds")
PHASE_TIMINGS = ("pool_build", "merge_loop", "serialize")


def golden_answers(n: int = 2000, seed: int = 1919) -> AnswerSet:
    """n distinct rows over :data:`DOMAINS` with skewed codes and dyadic
    values: a per-value effect per attribute plus noise, in 1/16ths."""
    rng = random.Random(seed)
    effects = [
        [rng.randrange(scale) for _ in range(size)]
        for scale, size in zip((512, 256, 64, 16, 8, 4), DOMAINS)
    ]
    weights = [[1.0 / (code + 1) for code in range(size)] for size in DOMAINS]
    seen: set[tuple[int, ...]] = set()
    # Every code occurs at least once, so each domain has its full size.
    rows = [
        tuple(code % size for size in DOMAINS) for code in range(max(DOMAINS))
    ]
    seen.update(rows)
    while len(rows) < n:
        row = tuple(
            rng.choices(range(size), weights=weights[attr])[0]
            for attr, size in enumerate(DOMAINS)
        )
        if row not in seen:
            seen.add(row)
            rows.append(row)
    values = [
        (sum(effects[attr][code] for attr, code in enumerate(row))
         + rng.randrange(32)) / 16
        for row in rows
    ]
    raw = [
        tuple("a%dv%d" % (attr, code) for attr, code in enumerate(row))
        for row in rows
    ]
    return AnswerSet.from_rows(
        raw, values, attributes=["a%d" % attr for attr in range(len(DOMAINS))]
    )


def golden_requests() -> list[dict]:
    """The pinned cells, in submission order (one engine serves all)."""
    cells = [
        {"algorithm": "hybrid", "L": L, "k": k, "D": D}
        for L in (100, 400)
        for k in (5, 15, 30)
        for D in (0, 2)
    ]
    cells.append({"algorithm": "bottom-up", "L": 100, "k": 15, "D": 2})
    cells.append({"algorithm": "fixed-order", "L": 400, "k": 15, "D": 2})
    cells.append({"algorithm": "hybrid", "L": 400, "k": 15, "D": 2,
                  "options": {"argmax": "scan"}})
    return [
        dict({"schema_version": 2, "kind": "summary", "dataset": "cells"},
             **cell)
        for cell in cells
    ]


def zero_timed(response: dict) -> dict:
    """*response* with its wall-clock fields zeroed."""
    for key in TIMINGS:
        response[key] = 0.0
    for key in PHASE_TIMINGS:
        response["phase_seconds"][key] = 0.0
    return response


def render() -> str:
    """The golden file's text for the current code."""
    engine = Engine()
    engine.register_dataset("cells", golden_answers())
    responses = [
        zero_timed(engine.submit_dict(request))
        for request in golden_requests()
    ]
    return json.dumps(responses, indent=1, sort_keys=True) + "\n"


def test_summary_cells_match_golden_bytes():
    """Every cell answers with the committed bytes: clusters, objective,
    tie-breaks and solver counters."""
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
