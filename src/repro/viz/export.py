"""JSON assembly of results (Appendix A.3, step three of the action flow).

The paper's prototype "assembles the result as a JSON string and sends it
back to the browser".  This module provides the same serialization layer
for library users building UIs: solutions (both display layers), guidance
views, and comparison views all flatten to plain JSON-compatible dicts with
stable field names, plus round-trip helpers for the solution payload.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.core.answers import AnswerSet
from repro.core.solution import Solution
from repro.interactive.guidance import GuidanceView

if TYPE_CHECKING:  # the comparison view needs the viz extra; payloads do not
    from repro.viz.comparison import ComparisonView


def _decoded(answers: AnswerSet, pattern: tuple[int, ...]) -> list[Any]:
    if answers.codec is not None:
        return list(answers.decode(pattern))
    return ["*" if code == -1 else code for code in pattern]


def solution_payload(
    solution: Solution,
    answers: AnswerSet,
    include_members: bool = True,
) -> dict[str, Any]:
    """The two-layer result payload (Figure 1b/1c as data)."""
    clusters = []
    for cluster in solution.clusters:
        entry: dict[str, Any] = {
            "pattern": _decoded(answers, cluster.pattern),
            "avg": cluster.avg,
            "size": cluster.size,
            "level": cluster.level,
        }
        if include_members:
            entry["members"] = [
                {
                    "rank": index + 1,
                    "values": _decoded(answers, answers.elements[index]),
                    "val": answers.values[index],
                }
                for index in sorted(cluster.covered)
            ]
        clusters.append(entry)
    return {
        "attributes": list(
            answers.codec.attributes
            if answers.codec is not None
            else ["A%d" % (i + 1) for i in range(answers.m)]
        ),
        "objective": solution.avg,
        "covered": solution.covered_count,
        "clusters": clusters,
    }


def guidance_payload(view: GuidanceView) -> dict[str, Any]:
    """The Figure 2 plot as data: one series per D."""
    return {
        "L": view.L,
        "series": [
            {
                "D": series.D,
                "points": [
                    {"k": k, "avg": avg} for k, avg in series.as_pairs()
                ],
            }
            for series in view.series
        ],
        "bundles": [list(bundle) for bundle in
                    view.overlapping_distance_bundles()],
    }


def comparison_payload(view: ComparisonView) -> dict[str, Any]:
    """The Appendix A.7 view as data: boxes, bands, clutter metrics."""

    def box(b) -> dict[str, Any]:
        return {
            "side": b.side,
            "index": b.index,
            "position": b.position,
            "label": b.label,
            "size": b.size,
            "top_count": b.top_count,
            "avg": b.avg,
        }

    return {
        "old": [box(b) for b in view.old_boxes],
        "new": [box(b) for b in view.new_boxes],
        "bands": [
            {"old": band.old_index, "new": band.new_index,
             "shared": band.shared}
            for band in view.bands
        ],
        "metrics": {
            "matched_distance": view.matched_distance,
            "default_distance": view.default_distance,
            "matched_crossings": view.matched_crossings,
            "default_crossings": view.default_crossings,
        },
    }


def to_json(payload: dict[str, Any], indent: int | None = None) -> str:
    """Serialize a payload (stable key order for diff-able output)."""
    return json.dumps(payload, indent=indent, sort_keys=True)
