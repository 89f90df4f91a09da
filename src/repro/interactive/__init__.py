"""Interactive layer (Section 6): precomputation, guidance, sessions."""

from repro.interactive.interval_tree import Interval, IntervalTree
from repro.interactive.precompute import PrecomputeTimings, SolutionStore
from repro.interactive.guidance import (
    GuidanceSeries,
    GuidanceView,
    build_guidance_view,
)
from repro.interactive.session import (
    ExpandedRow,
    ExplorationSession,
    TimedSolution,
)

__all__ = [
    "Interval",
    "IntervalTree",
    "PrecomputeTimings",
    "SolutionStore",
    "GuidanceSeries",
    "GuidanceView",
    "build_guidance_view",
    "ExpandedRow",
    "ExplorationSession",
    "TimedSolution",
]
