"""Pluggable algorithm registry with per-algorithm metadata.

A name -> runner map is not enough for the service layer
(:mod:`repro.service`): it validates request kwargs before running
anything, reports exactness and complexity in the guidance view, and lets
extensions (hierarchy variants, baseline adapters, experimental kernels)
plug in without editing core modules.  This module provides that: a
process-wide registry populated by the :func:`register_algorithm`
decorator, carrying an :class:`AlgorithmInfo` record per algorithm.

Registering is declarative: the decorated function is the runner, and
it takes the cluster pool for (S, L), then k and D, then its options::

    @register_algorithm(
        "my-greedy", cost="greedy", complexity="O(k L^2)",
        kwargs=("use_delta",), summary="my greedy variant",
    )
    def my_greedy(pool, k, D, use_delta=True):
        ...

The paper's nine algorithms are registered this way in their own modules
(:mod:`repro.core.bottom_up`, :mod:`~repro.core.fixed_order`,
:mod:`~repro.core.hybrid`, :mod:`~repro.core.brute_force`), which
``repro.core.problem`` imports; ``get_algorithm(name).runner(pool, k,
D, ...)`` runs one directly, on the pool's mask representation, and
:meth:`~repro.core.problem.ProblemInstance.solve` does the same after
validating the options and picking the pool for its ``kernel`` keyword.
A runner takes no kernel: its pool is the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.common.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solution import Solution

#: Exactness classes an algorithm may declare.
COST_CLASSES = ("exact", "greedy", "heuristic", "bound")


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata the registry keeps for one algorithm.

    ``runner`` is called as ``runner(pool, k, D, **options)`` — the
    :class:`~repro.core.semilattice.ClusterPool` for (S, L), the size and
    distance parameters, and the algorithm's keyword options — and
    returns a :class:`~repro.core.solution.Solution`.  ``kwargs`` is the
    exhaustive tuple of keyword option names the runner accepts, each a
    named parameter of it — the service layer rejects requests carrying
    anything else *before* any work happens.
    """

    name: str
    runner: Callable[..., "Solution"] = field(repr=False)
    cost: str = "greedy"
    complexity: str = ""
    kwargs: tuple[str, ...] = ()
    summary: str = ""

    def describe(self) -> dict[str, object]:
        """JSON-friendly metadata (everything but the runner)."""
        return {
            "name": self.name,
            "cost": self.cost,
            "complexity": self.complexity,
            "kwargs": list(self.kwargs),
            "summary": self.summary,
        }


_REGISTRY: dict[str, AlgorithmInfo] = {}


def register_algorithm(
    name: str,
    *,
    cost: str = "greedy",
    complexity: str = "",
    kwargs: tuple[str, ...] | Sequence[str] = (),
    summary: str = "",
    replace: bool = False,
):
    """Class the decorated runner under *name* in the global registry.

    Raises :class:`InvalidParameterError` on duplicate names (unless
    *replace* is true) and on unknown *cost* classes, so registration
    mistakes surface at import time, not at request time.
    """
    if cost not in COST_CLASSES:
        raise InvalidParameterError(
            "cost=%r not in %s" % (cost, list(COST_CLASSES))
        )

    def decorator(runner: Callable[..., "Solution"]):
        if not replace and name in _REGISTRY:
            raise InvalidParameterError(
                "algorithm %r is already registered; pass replace=True to "
                "override" % name
            )
        _REGISTRY[name] = AlgorithmInfo(
            name=name,
            runner=runner,
            cost=cost,
            complexity=complexity,
            kwargs=tuple(kwargs),
            summary=summary,
        )
        return runner

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove *name* from the registry (no-op if absent).

    Exists for tests and short-lived experimental plugins; the nine paper
    algorithms are re-registered only on interpreter restart.
    """
    _REGISTRY.pop(name, None)


def get_algorithm(name: str) -> AlgorithmInfo:
    """The :class:`AlgorithmInfo` for *name*, or a helpful error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            "unknown algorithm %r; expected one of %s"
            % (name, algorithm_names())
        ) from None


def algorithm_names() -> list[str]:
    """Sorted names of every registered algorithm."""
    return sorted(_REGISTRY)


def algorithm_infos() -> list[AlgorithmInfo]:
    """All registry records, sorted by name."""
    return [_REGISTRY[name] for name in algorithm_names()]


def validate_algorithm_kwargs(name: str, options: Mapping[str, object]) -> AlgorithmInfo:
    """Check *options* against the algorithm's declared kwargs.

    Returns the :class:`AlgorithmInfo` so callers can go straight to the
    runner.  Unknown option names raise :class:`InvalidParameterError`
    listing what the algorithm does accept — the error a typo'd JSON
    request gets back instead of a Python ``TypeError`` mid-run.
    """
    info = get_algorithm(name)
    unknown = sorted(set(options) - set(info.kwargs))
    if unknown:
        raise InvalidParameterError(
            "algorithm %r got unsupported option(s) %s; supported: %s"
            % (name, unknown, sorted(info.kwargs) or "none")
        )
    return info
