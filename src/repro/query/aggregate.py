"""Group-by aggregation: the query shape the whole paper is built on.

Executes queries of the form (Section 3 / Appendix A.8)::

    SELECT <grouping attributes>, aggr(<column>) AS val
    FROM R
    [WHERE ...]
    GROUP BY <grouping attributes>
    [HAVING count(*) > threshold]
    ORDER BY val DESC
    [LIMIT n]

and returns both a plain :class:`~repro.query.relation.Relation` (for
display) and an :class:`~repro.core.answers.AnswerSet` (for the
summarization framework).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.common.errors import QueryError, SchemaError
from repro.core.answers import AnswerSet
from repro.query.relation import Relation

AggregateFn = Callable[[Sequence[float]], float]


def _avg(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Aggregate functions accepted in queries.  ``count`` ignores its column.
AGGREGATES: dict[str, AggregateFn] = {
    "avg": _avg,
    "sum": math.fsum,
    "min": min,
    "max": max,
    "count": len,
    "median": _median,
}


@dataclass(frozen=True)
class AggregateQuery:
    """A declarative aggregate query over one relation.

    ``where`` is a list of (column, operator, literal) triples combined with
    AND; supported operators are =, !=, <, <=, >, >=.
    """

    group_by: tuple[str, ...]
    aggregate: str = "avg"
    target: str | None = None
    where: tuple[tuple[str, str, Any], ...] = ()
    having_count_gt: int = 0
    descending: bool = True
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.group_by:
            raise QueryError("GROUP BY needs at least one attribute")
        if self.aggregate not in AGGREGATES:
            raise QueryError(
                "unknown aggregate %r; supported: %s"
                % (self.aggregate, sorted(AGGREGATES))
            )
        if self.aggregate != "count" and self.target is None:
            raise QueryError(
                "aggregate %r needs a target column" % self.aggregate
            )


_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _matches(row: Mapping[str, Any], where: Sequence[tuple[str, str, Any]]) -> bool:
    for column, operator, literal in where:
        try:
            op = _OPERATORS[operator]
        except KeyError:
            raise QueryError("unsupported operator %r" % operator) from None
        if not op(row[column], literal):
            return False
    return True


def _target_value(column: str, value: Any) -> float:
    """One field of the aggregate's target *column* as a float: text, an
    empty field or an int past the float range is a :class:`SchemaError`
    naming the column and the value."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(
            "aggregate target column %r must be numeric; got %s"
            % (column, reprlib.repr(value))
        ) from None


@dataclass
class QueryResult:
    """Output of :func:`run_aggregate`: groups, values, and conversions."""

    query: AggregateQuery
    attributes: tuple[str, ...]
    groups: list[tuple[Any, ...]]
    values: list[float]
    group_sizes: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.groups)

    def to_relation(self, name: str = "result") -> Relation:
        columns = self.attributes + ("val",)
        rows = [g + (v,) for g, v in zip(self.groups, self.values)]
        return Relation(name, columns, rows)

    def to_answer_set(self) -> AnswerSet:
        return AnswerSet.from_rows(
            self.groups, self.values, attributes=self.attributes
        )


def run_aggregate(relation: Relation, query: AggregateQuery) -> QueryResult:
    """Execute *query* against *relation*.

    Grouping is a single hash pass; HAVING filters on group cardinality;
    the result is sorted by value (descending by default, ties broken by the
    group tuple for determinism) and truncated to LIMIT if given.
    """
    for column, _, _ in query.where:
        relation.column_index(column)  # raises SchemaError for unknowns
    group_indices = [relation.column_index(c) for c in query.group_by]
    target_index = (
        relation.column_index(query.target) if query.target is not None else None
    )
    groups: dict[tuple[Any, ...], list[float]] = {}
    if query.where:
        columns = relation.columns
        rows = (
            row
            for row in relation.rows
            if _matches(dict(zip(columns, row)), query.where)
        )
    else:
        rows = iter(relation.rows)
    for row in rows:
        key = tuple(row[i] for i in group_indices)
        value = (
            _target_value(query.target, row[target_index])
            if target_index is not None else 0.0
        )
        groups.setdefault(key, []).append(value)
    aggregate = AGGREGATES[query.aggregate]
    kept: list[tuple[tuple[Any, ...], float, int]] = []
    for key, values in groups.items():
        if len(values) <= query.having_count_gt:
            continue
        try:
            value = float(aggregate(values))
        except OverflowError:  # fsum's intermediate overflow
            raise SchemaError(
                "%s(%s) of group %r is past the float range"
                % (query.aggregate, query.target, key)
            ) from None
        kept.append((key, value, len(values)))
    kept.sort(
        key=lambda item: (
            -item[1] if query.descending else item[1],
            tuple(repr(v) for v in item[0]),
        )
    )
    if query.limit is not None:
        kept = kept[: query.limit]
    return QueryResult(
        query=query,
        attributes=tuple(query.group_by),
        groups=[item[0] for item in kept],
        values=[item[1] for item in kept],
        group_sizes=[item[2] for item in kept],
    )
