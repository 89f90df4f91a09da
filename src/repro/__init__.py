"""repro — reproduction of "Interactive Summarization and Exploration of
Top Aggregate Query Answers" (Wen, Zhu, Roy, Yang; VLDB 2018).

The package summarizes the high-valued answers of an aggregate query as at
most ``k`` clusters (patterns with don't-care ``*`` values) that cover the
top-``L`` original answers and are pairwise at distance >= ``D``, maximizing
the average value of everything the clusters cover (Max-Avg).

Quickstart (service API)::

    from repro import AnswerSet, Engine, SummaryRequest

    engine = Engine()
    engine.register_dataset(
        "answers", AnswerSet.from_rows(rows, values, attributes=names))
    response = engine.submit(
        SummaryRequest(dataset="answers", k=4, L=8, D=2))
    print(response.objective, response.cache_hit)

The engine caches initialization per (dataset, L), so resubmitting with
tweaked parameters is answered at interactive speed — the paper's Section 6
serving model.  Every request/response round-trips through JSON
(``to_dict``/``from_dict``), which is also what ``repro-summarize --json``
and ``repro-serve`` emit.  For a single uncached run,
``ProblemInstance(answers, k=4, L=8, D=2).solve("hybrid")`` returns the
:class:`Solution` directly.

Subpackages
-----------
``repro.core``
    Pattern algebra, problem model, the pluggable algorithm registry,
    greedy + exact algorithms (Sections 3-5).
``repro.service``
    Typed request/response wire format, the shared cached engine, and the
    JSON-lines serving loop behind ``repro-serve``.
``repro.server``
    The concurrent TCP serving tier: sharded worker pools, single-flight
    coalescing of identical in-flight requests, bounded-queue admission
    control, and latency/coalesce metrics (``repro-serve --tcp``).
``repro.interactive``
    Incremental precomputation, interval-tree solution store, parameter
    guidance view, exploration sessions (Section 6).
``repro.viz``
    Successive-solution comparison layout optimization (Appendix A.7).
``repro.query``
    In-memory relational substrate and restricted SQL parser.
``repro.datasets``
    Synthetic MovieLens-like and TPC-DS-like generators (Section 7).
``repro.baselines``
    Smart drill-down, diversified top-k, DisC, MMR, decision tree, k-modes.
``repro.hierarchy``
    Concept-hierarchy / range-value extension (Appendix A.6).
``repro.userstudy``
    Simulated user-study harness regenerating Table 1 / Table 2 (Section 8).
"""

from repro.core import (
    AlgorithmInfo,
    AnswerSet,
    Cluster,
    ClusterPool,
    ProblemInstance,
    Solution,
    algorithm_infos,
    algorithm_names,
    check_feasibility,
    get_algorithm,
    is_feasible,
    register_algorithm,
)
from repro.service import (
    Engine,
    ExploreRequest,
    GuidanceRequest,
    SummaryRequest,
    SummaryResponse,
)

__version__ = "6.0.0"

__all__ = [
    "AlgorithmInfo",
    "AnswerSet",
    "Cluster",
    "ClusterPool",
    "Engine",
    "ExploreRequest",
    "GuidanceRequest",
    "ProblemInstance",
    "Solution",
    "SummaryRequest",
    "SummaryResponse",
    "algorithm_infos",
    "algorithm_names",
    "check_feasibility",
    "get_algorithm",
    "is_feasible",
    "register_algorithm",
    "__version__",
]
