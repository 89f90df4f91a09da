"""The answer set S: output of an aggregate query, ranked by value.

The summarization framework (Section 3 of the paper) operates on the result
``S`` of a query of the form::

    SELECT A_groupby, aggr AS val FROM R GROUP BY A_groupby ORDER BY val DESC

Each tuple of ``S`` is an *original element*: a tuple over the ``m`` grouping
attributes plus a real-valued score ``val``.  :class:`AnswerSet` stores the
elements encoded as integer-code tuples (see :mod:`repro.common.interning`),
sorted by descending value, which is the representation every algorithm in
:mod:`repro.core` consumes.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.common.errors import InvalidParameterError, SchemaError
from repro.common.interning import AttributeCodec
from repro.core.bitset import mask_value_sum
from repro.core.dense import HAVE_NUMPY, ValueTable, int_mask_value_sum


class AnswerSet:
    """A ranked aggregate query answer set.

    Parameters
    ----------
    elements:
        Encoded element tuples (``m`` int codes each), one per answer tuple.
    values:
        The aggregate value of each element (same order as *elements*).
    codec:
        The :class:`AttributeCodec` used to encode elements; optional but
        required to decode patterns back to raw attribute values.

    Elements are re-sorted by descending value on construction (stable, with
    the element tuple as tie-break so the ranking is deterministic).
    """

    def __init__(
        self,
        elements: Sequence[tuple[int, ...]],
        values: Sequence[float],
        codec: AttributeCodec | None = None,
    ) -> None:
        if len(elements) != len(values):
            raise SchemaError(
                "got %d elements but %d values" % (len(elements), len(values))
            )
        if not elements:
            raise SchemaError("an AnswerSet needs at least one element")
        arity = len(elements[0])
        for element in elements:
            if len(element) != arity:
                raise SchemaError("ragged element tuples in AnswerSet")
        if codec is not None and codec.arity != arity:
            raise SchemaError(
                "codec arity %d != element arity %d" % (codec.arity, arity)
            )
        if len(set(elements)) != len(elements):
            raise SchemaError(
                "duplicate elements in AnswerSet; group-by output tuples "
                "must be distinct"
            )
        order = sorted(
            range(len(elements)), key=lambda i: (-values[i], elements[i])
        )
        self.elements: list[tuple[int, ...]] = [elements[i] for i in order]
        self.values: list[float] = [float(values[i]) for i in order]
        self.codec = codec
        self._prefix_sums: list[float] | None = None
        self._avg_all: float | None = None
        self._min_value: float | None = None
        self._value_table = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of original elements, |S|."""
        return len(self.elements)

    @property
    def m(self) -> int:
        """Number of grouping attributes."""
        return len(self.elements[0])

    def value_of(self, index: int) -> float:
        """Value of the element at rank *index* (0-based)."""
        return self.values[index]

    @property
    def min_value(self) -> float:
        """The smallest element value (= ``values[-1]``; rank order).

        Cached; the merge engine consults it to decide whether the lazy
        upper-bound heap argmax is sound — marginal value sums are only
        monotone non-increasing under merges when no value is negative
        (see :mod:`repro.core.merge`).
        """
        if self._min_value is None:
            # Elements are sorted by descending value, so the minimum is
            # the last entry; keep the explicit attribute for clarity.
            self._min_value = self.values[-1]
        return self._min_value

    def top(self, L: int) -> list[int]:
        """Indices of the top-L elements (0..L-1 after the sort)."""
        if not 0 <= L <= self.n:
            raise InvalidParameterError(
                "L=%d out of range [0, %d]" % (L, self.n)
            )
        return list(range(L))

    @property
    def value_prefix_sums(self) -> list[float]:
        """``prefix[i] = sum(values[:i])`` (length n+1), built once.

        Because elements are stored in rank order, the value sum of any
        top-L prefix (or any contiguous rank range) is two lookups.
        """
        prefix = self._prefix_sums
        if prefix is None:
            prefix = [0.0] * (self.n + 1)
            total = 0.0
            for i, value in enumerate(self.values):
                total += value
                prefix[i + 1] = total
            self._prefix_sums = prefix
        return prefix

    def value_sum_range(self, start: int, stop: int) -> float:
        """Sum of values over the contiguous rank range [start, stop)."""
        prefix = self.value_prefix_sums
        return prefix[stop] - prefix[start]

    def avg_all(self) -> float:
        """Average value over all of S (value of the trivial solution)."""
        if self._avg_all is None:
            self._avg_all = self.value_prefix_sums[self.n] / self.n
        return self._avg_all

    def avg_of(self, indices: Iterable[int]) -> float:
        """Average value over a set of element indices.

        Contiguous ascending runs (e.g. ``top(L)``) are answered from the
        prefix sums; arbitrary index sets fall back to a direct sum.
        """
        indices = list(indices)
        if not indices:
            raise InvalidParameterError("avg_of() on an empty index set")
        first, last = indices[0], indices[-1]
        if last - first + 1 == len(indices) and all(
            indices[i + 1] - indices[i] == 1
            for i in range(len(indices) - 1)
        ):
            return self.value_sum_range(first, last + 1) / len(indices)
        return sum(self.values[i] for i in indices) / len(indices)

    # -- mask kernel support -------------------------------------------------

    @property
    def value_table(self):
        """The values for the mask kernels' vectorized value sums.

        Built once on first access; it builds its float64 array on first
        vectorized use.  See :class:`repro.core.dense.ValueTable`.
        """
        table = self._value_table
        if table is None:
            table = ValueTable(self.values)
            self._value_table = table
        return table

    def mask_value_sum(self, mask) -> float:
        """Sum of values over the set bits of *mask*, in ascending order.

        *mask* is either an int bitmask (:mod:`repro.core.bitset`) or a
        packed :class:`~repro.core.dense.BitBlocks` mask (the dense
        kernel); both sum identically (same floats) for the same bits.
        With numpy importable, int masks of more than a few set bits share
        the dense kernel's vectorized reduction
        (:func:`repro.core.dense.int_mask_value_sum`).
        """
        if isinstance(mask, int):
            if HAVE_NUMPY:
                return int_mask_value_sum(self.value_table, mask)
            return mask_value_sum(self.values, mask)
        return mask.value_sum(self.value_table)

    def decode(self, pattern: Sequence[int]) -> tuple[Any, ...]:
        """Decode an int-code pattern back to raw attribute values."""
        if self.codec is None:
            raise SchemaError("AnswerSet has no codec; cannot decode")
        return self.codec.decode(pattern)

    # -- constructors --------------------------------------------------------

    def extended(
        self,
        rows: Iterable[Sequence[Any]],
        values: Sequence[float],
    ) -> tuple["AnswerSet", list[int]]:
        """A new AnswerSet with *rows* appended — ``(bigger, delta)``.

        *rows* are raw attribute tuples when the set has a codec (they are
        interned through it — interning is append-only, so every existing
        code keeps its meaning and this set is untouched) or already-encoded
        int tuples otherwise.  The returned *delta* lists the rank positions
        the appended elements occupy in the new set, ascending: the
        constructor re-sorts by ``(-value, element)``, so an appended row
        can land anywhere in the ranking, and every existing element's rank
        shifts up by the number of new rows inserted before it.  Pool
        maintenance (:meth:`repro.core.semilattice.ClusterPool.extended`)
        checks the growth against *delta*.

        Duplicate elements — within *rows* or against the existing set —
        are rejected like everywhere else (group-by outputs are distinct);
        an update stream that re-aggregates a group must replace the
        dataset instead of appending.
        """
        rows = [tuple(row) for row in rows]
        if len(rows) != len(values):
            raise SchemaError(
                "got %d rows but %d values" % (len(rows), len(values))
            )
        if not rows:
            raise SchemaError("extended() needs at least one row")
        if self.codec is not None:
            encoded = self.codec.encode_many(rows)
        else:
            encoded = rows
        bigger = AnswerSet(
            self.elements + encoded,
            self.values + [float(value) for value in values],
            self.codec,
        )
        fresh = set(encoded)
        delta = [
            index
            for index, element in enumerate(bigger.elements)
            if element in fresh
        ]
        return bigger, delta

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[Any]],
        values: Sequence[float],
        attributes: Sequence[str] | None = None,
    ) -> "AnswerSet":
        """Build an AnswerSet from raw (un-encoded) rows.

        *attributes* names the grouping columns; if omitted, positional names
        ``A1..Am`` are generated.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            raise SchemaError("from_rows() needs at least one row")
        if attributes is None:
            attributes = ["A%d" % (i + 1) for i in range(len(rows[0]))]
        codec = AttributeCodec(attributes)
        encoded = codec.encode_many(rows)
        return cls(encoded, values, codec)

    def __repr__(self) -> str:
        return "AnswerSet(n=%d, m=%d)" % (self.n, self.m)
