"""Typed request/response contracts and their JSON wire format.

Every message is a flat JSON object carrying ``schema_version`` and
``kind``; the remaining keys are the dataclass fields.  ``from_dict`` is
strict: wrong schema version, unknown kind, missing required keys, and
unrecognized keys are all :class:`~repro.common.errors.SchemaError`s — a
typo'd request fails loudly at the boundary instead of deep inside an
algorithm.

Requests
--------
``summary``   one algorithm invocation for (k, L, D)      -> ``summary_response``
``explore``   retrieval from the precomputed (k, D) store -> ``summary_response``
``guidance``  the Figure 2 parameter-selection curves     -> ``guidance_response``

Every response reports ``cache_hit`` (did the engine reuse an initialized
pool/store?) plus the ``init_seconds``/``algo_seconds`` phase split the
paper's figures use, so clients can reproduce Figure 7-style accounting
without instrumenting the engine.

The full field-by-field specification, the strictness/versioning policy
(why *adding* fields is breaking but adding keys inside the open
``phase_seconds``/``options`` maps is not), and JSON-lines serve-loop
examples live in ``docs/WIRE_PROTOCOL.md``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Any, Mapping, Sequence

from repro.common.errors import SchemaError
from repro.core.bitset import DEFAULT_KERNEL, KERNEL_CHOICES

#: Version stamp carried by every wire message; bump on breaking changes.
#: Because parsing is strict (unknown keys rejected), *adding* response
#: fields is breaking too.  v2: summary_response gained ``kernel`` +
#: ``phase_seconds``; explore/guidance requests accept ``kernel``.
SCHEMA_VERSION = 2


def _check_envelope(payload: Mapping[str, Any], kind: str) -> None:
    if not isinstance(payload, Mapping):
        raise SchemaError("wire payload must be a JSON object, got %s"
                          % type(payload).__name__)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            "unsupported schema_version %r (this build speaks %d)"
            % (version, SCHEMA_VERSION)
        )
    if payload.get("kind") != kind:
        raise SchemaError(
            "expected kind=%r, got %r" % (kind, payload.get("kind"))
        )


def _take_fields(cls, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Extract the dataclass fields of *cls* from *payload*, strictly."""
    spec = [f for f in fields(cls) if f.init]
    names = {f.name for f in spec}
    extra = sorted(set(payload) - names - {"schema_version", "kind"})
    if extra:
        raise SchemaError(
            "%s does not accept key(s) %s; accepted: %s"
            % (payload.get("kind"), extra, sorted(names))
        )
    missing = sorted(
        f.name for f in spec
        if f.name not in payload
        and f.default is MISSING
        and f.default_factory is MISSING
    )
    if missing:
        raise SchemaError(
            "%s is missing required key(s) %s"
            % (payload.get("kind"), missing)
        )
    return {name: payload[name] for name in names if name in payload}


#: The wire's scalar types: immutable, so the walk shares them.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _plain(value: Any) -> Any:
    """*value* as ``dataclasses.asdict`` renders a field, copying only
    containers: a dataclass becomes a dict of its fields, and lists,
    tuples and dicts are rebuilt with their type kept.  Any other value
    is shared, where ``asdict`` would deep-copy it."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if is_dataclass(value):
        return {
            spec.name: _plain(getattr(value, spec.name))
            for spec in fields(value)
        }
    return value


class _WireMessage:
    """Shared to_dict/to_json/from_dict/from_json plumbing."""

    kind: str = ""

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
        }
        payload.update(_plain(self))
        return payload

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        _check_envelope(payload, cls.kind)
        return cls(**_take_fields(cls, payload))

    @classmethod
    def from_json(cls, text: str):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SchemaError("invalid JSON: %s" % error) from None
        return cls.from_dict(payload)


# -- requests ----------------------------------------------------------------


def _require_int(name: str, value: Any, optional: bool = False) -> None:
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(
            "%s must be an integer, got %r" % (name, value)
        )


def _require_str(name: str, value: Any) -> None:
    if not isinstance(value, str):
        raise SchemaError("%s must be a string, got %r" % (name, value))


def _require_kernel(value: Any) -> None:
    if value not in KERNEL_CHOICES:
        raise SchemaError(
            "kernel must be one of %r, got %r"
            % (list(KERNEL_CHOICES), value)
        )


def _require_int_pair(name: str, value: Any) -> None:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(
            "%s must be a [low, high] pair, got %r" % (name, value)
        )
    for item in value:
        _require_int("%s entries" % name, item)


def _require_ints(name: str, value: Any) -> None:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(
            "%s must be an array of integers, got %r" % (name, value)
        )
    for item in value:
        _require_int("%s entries" % name, item)


@dataclass(frozen=True)
class SummaryRequest(_WireMessage):
    """One algorithm invocation for (k, L, D) on a named dataset.

    ``k``/``L`` follow the optional-parameter semantics of Section 4.1:
    ``k=None`` means n (no size limit), ``L=None`` means k.  ``options``
    are algorithm keyword options, validated against the registry's
    declared kwargs before anything runs.  ``include_elements`` asks for
    the second display layer (Figure 1c) inline in the response.
    """

    kind = "summary"

    dataset: str
    k: int | None = None
    L: int | None = None
    D: int = 0
    algorithm: str = "hybrid"
    mapping: str = "eager"
    options: dict[str, Any] = field(default_factory=dict)
    include_elements: bool = False

    def __post_init__(self) -> None:
        _require_str("dataset", self.dataset)
        _require_int("k", self.k, optional=True)
        _require_int("L", self.L, optional=True)
        _require_int("D", self.D)
        _require_str("algorithm", self.algorithm)
        if not isinstance(self.options, dict):
            raise SchemaError(
                "options must be an object, got %r" % (self.options,)
            )


@dataclass(frozen=True)
class ExploreRequest(_WireMessage):
    """Serve (k, D) from the precomputed store for ``(L, k_range, d_values)``.

    The first explore against a given store pays the sweep cost (Section
    6.2); every later one is a retrieval.  Responds with a
    :class:`SummaryResponse` whose ``algorithm`` is ``"precomputed"``.
    """

    kind = "explore"

    dataset: str
    k: int
    L: int
    D: int
    k_range: tuple[int, int] = (1, 1)
    d_values: tuple[int, ...] = (0,)
    mapping: str = "eager"
    kernel: str = DEFAULT_KERNEL
    include_elements: bool = False

    def __post_init__(self) -> None:
        _require_str("dataset", self.dataset)
        for name in ("k", "L", "D"):
            _require_int(name, getattr(self, name))
        _require_int_pair("k_range", self.k_range)
        _require_ints("d_values", self.d_values)
        _require_kernel(self.kernel)
        object.__setattr__(self, "k_range", tuple(self.k_range))
        object.__setattr__(self, "d_values", tuple(self.d_values))


@dataclass(frozen=True)
class GuidanceRequest(_WireMessage):
    """The Figure 2 parameter-selection view for one L."""

    kind = "guidance"

    dataset: str
    L: int
    k_range: tuple[int, int]
    d_values: tuple[int, ...]
    mapping: str = "eager"
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        _require_str("dataset", self.dataset)
        _require_int("L", self.L)
        _require_int_pair("k_range", self.k_range)
        _require_ints("d_values", self.d_values)
        _require_kernel(self.kernel)
        object.__setattr__(self, "k_range", tuple(self.k_range))
        object.__setattr__(self, "d_values", tuple(self.d_values))


# -- responses ---------------------------------------------------------------


@dataclass(frozen=True)
class ExpandedElementDTO:
    """One second-layer row: an original element with rank and value."""

    rank: int
    values: tuple[Any, ...]
    value: float


@dataclass(frozen=True)
class ClusterDTO:
    """One cluster of a solution, decoded for display.

    ``pattern`` holds raw attribute values with ``"*"`` for don't-care
    positions; ``elements`` is only populated when the request asked for
    ``include_elements``.
    """

    pattern: tuple[Any, ...]
    avg: float
    size: int
    elements: tuple[ExpandedElementDTO, ...] = ()


@dataclass(frozen=True)
class SummaryResponse(_WireMessage):
    """Solution plus the paper's timing split and engine cache metadata.

    ``kernel`` names the evaluation substrate that produced the solution
    (``"bitset"`` or ``"dense"``; ``"none"`` for algorithms
    with no kernelized path, e.g. lower-bound); ``phase_seconds`` is an
    *open* float map: a finer-grained breakdown of where *this request's*
    wall clock went (e.g. ``pool_build`` vs ``merge_loop`` vs ``serialize``;
    cached phases report 0.0) plus the merge engine's ``argmax_*``
    counters (counts, not seconds: rounds, candidate groups, marginal
    evaluations, refined-bound skips, and the heap-mode 0/1 flag) — so
    kernel, cache, or argmax regressions are all visible directly from
    the wire format.  Adding keys here is explicitly non-breaking; see
    ``docs/WIRE_PROTOCOL.md``.
    """

    kind = "summary_response"

    dataset: str
    k: int
    L: int
    D: int
    algorithm: str
    objective: float
    solution_size: int
    covered_count: int
    clusters: tuple[ClusterDTO, ...]
    cache_hit: bool
    init_seconds: float
    algo_seconds: float
    kernel: str = DEFAULT_KERNEL
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + self.algo_seconds

    def to_dict(self) -> dict[str, Any]:
        payload = super().to_dict()
        payload["total_seconds"] = self.total_seconds
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SummaryResponse":
        payload = dict(payload)
        payload.pop("total_seconds", None)  # derived, not a field
        _check_envelope(payload, cls.kind)
        data = _take_fields(cls, payload)
        if "phase_seconds" in data:
            data["phase_seconds"] = dict(data["phase_seconds"])
        data["clusters"] = tuple(
            ClusterDTO(
                pattern=tuple(c["pattern"]),
                avg=c["avg"],
                size=c["size"],
                elements=tuple(
                    ExpandedElementDTO(
                        rank=e["rank"],
                        values=tuple(e["values"]),
                        value=e["value"],
                    )
                    for e in c.get("elements", ())
                ),
            )
            for c in data.get("clusters", ())
        )
        return cls(**data)


@dataclass(frozen=True)
class GuidanceSeriesDTO:
    """One curve of the guidance view, with the analysis artifacts."""

    D: int
    k_values: tuple[int, ...]
    averages: tuple[float, ...]
    knee_points: tuple[int, ...] = ()
    flat_regions: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class GuidanceResponse(_WireMessage):
    kind = "guidance_response"

    dataset: str
    L: int
    k_range: tuple[int, int]
    d_values: tuple[int, ...]
    series: tuple[GuidanceSeriesDTO, ...]
    cache_hit: bool
    init_seconds: float
    algo_seconds: float

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GuidanceResponse":
        _check_envelope(payload, cls.kind)
        data = _take_fields(cls, payload)
        data["k_range"] = tuple(data["k_range"])
        data["d_values"] = tuple(data["d_values"])
        data["series"] = tuple(
            GuidanceSeriesDTO(
                D=s["D"],
                k_values=tuple(s["k_values"]),
                averages=tuple(s["averages"]),
                knee_points=tuple(s.get("knee_points", ())),
                flat_regions=tuple(
                    tuple(r) for r in s.get("flat_regions", ())
                ),
            )
            for s in data.get("series", ())
        )
        return cls(**data)


@dataclass(frozen=True)
class ErrorResponse(_WireMessage):
    """What a failed request gets back instead of a stack trace."""

    kind = "error"

    error_type: str
    message: str


def error_payload(error: Exception) -> dict[str, Any]:
    """The wire payload of an :class:`ErrorResponse` reporting *error*:
    its class name and message."""
    return ErrorResponse(
        error_type=type(error).__name__, message=str(error)
    ).to_dict()


# -- dispatch ----------------------------------------------------------------

_REQUEST_KINDS = {
    cls.kind: cls for cls in (SummaryRequest, ExploreRequest, GuidanceRequest)
}
_RESPONSE_KINDS = {
    cls.kind: cls
    for cls in (SummaryResponse, GuidanceResponse, ErrorResponse)
}


def parse_request(payload: Mapping[str, Any]):
    """Dispatch a wire dict to the matching request dataclass."""
    kind = payload.get("kind") if isinstance(payload, Mapping) else None
    try:
        cls = _REQUEST_KINDS[kind]
    except KeyError:
        raise SchemaError(
            "unknown request kind %r; expected one of %s"
            % (kind, sorted(_REQUEST_KINDS))
        ) from None
    return cls.from_dict(payload)


def parse_response(payload: Mapping[str, Any]):
    """Dispatch a wire dict to the matching response dataclass."""
    kind = payload.get("kind") if isinstance(payload, Mapping) else None
    try:
        cls = _RESPONSE_KINDS[kind]
    except KeyError:
        raise SchemaError(
            "unknown response kind %r; expected one of %s"
            % (kind, sorted(_RESPONSE_KINDS))
        ) from None
    return cls.from_dict(payload)
