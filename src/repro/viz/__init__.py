"""Comparison visualization of successive solutions (Appendix A.7).

The submodules load on first use of one of their names (PEP 562), so
``repro.viz.export`` imports without the viz extra: only ``comparison``
and ``placement`` need numpy and scipy.
"""

from importlib import import_module

_MODULE_OF = {
    "comparison_payload": "export",
    "guidance_payload": "export",
    "solution_payload": "export",
    "to_json": "export",
    "Band": "comparison",
    "ClusterBox": "comparison",
    "ComparisonView": "comparison",
    "build_comparison": "comparison",
    "overlap_matrix": "comparison",
    "brute_force_ordering": "placement",
    "count_crossings": "placement",
    "default_ordering": "placement",
    "optimal_ordering": "placement",
    "position_cost_matrix": "placement",
    "total_distance": "placement",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("repro.viz." + module), name)
