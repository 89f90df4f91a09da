"""Core of the reproduction: the paper's summarization framework.

Exports the pattern algebra (Section 3), the problem/solution model
(Section 4), and the greedy + exact algorithms (Section 5).
"""

from repro.core.answers import AnswerSet
from repro.core.cluster import (
    Cluster,
    Pattern,
    covers,
    distance,
    format_pattern,
    generalizations,
    lca,
    lca_many,
    level,
)
from repro.core.registry import (
    AlgorithmInfo,
    algorithm_infos,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
    validate_algorithm_kwargs,
)
from repro.core.semilattice import ClusterPool
from repro.core.solution import Solution, check_feasibility, is_feasible
from repro.core.problem import ProblemInstance
from repro.core.bottom_up import (
    bottom_up,
    bottom_up_level_start,
    bottom_up_pairwise_avg,
)
from repro.core.fixed_order import (
    fixed_order,
    kmeans_fixed_order,
    random_fixed_order,
)
from repro.core.hybrid import hybrid
from repro.core.brute_force import brute_force, lower_bound
from repro.core.merge import MergeEngine
from repro.core.objectives import max_avg, min_size, min_size_greedy

__all__ = [
    "AnswerSet",
    "Cluster",
    "Pattern",
    "ClusterPool",
    "Solution",
    "ProblemInstance",
    "MergeEngine",
    "AlgorithmInfo",
    "algorithm_infos",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "unregister_algorithm",
    "validate_algorithm_kwargs",
    "covers",
    "distance",
    "lca",
    "lca_many",
    "level",
    "generalizations",
    "format_pattern",
    "check_feasibility",
    "is_feasible",
    "bottom_up",
    "bottom_up_level_start",
    "bottom_up_pairwise_avg",
    "fixed_order",
    "random_fixed_order",
    "kmeans_fixed_order",
    "hybrid",
    "brute_force",
    "lower_bound",
    "max_avg",
    "min_size",
    "min_size_greedy",
]
