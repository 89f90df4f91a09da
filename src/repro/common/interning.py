"""Value interning: the paper's "hash values for fields" optimization.

Section 6.3 of the paper observes that attribute values are often text, and
that comparing/storing raw strings inside the tight cluster-manipulation
loops is slow.  The fix is to maintain, per attribute, a bidirectional map
between raw values and small integer codes, and to run all cluster algebra
on integer tuples (the paper reports a ~50x speedup from this).

:class:`ValueInterner` interns the values of a single attribute;
:class:`AttributeCodec` bundles one interner per attribute and converts whole
tuples.  Code ``STAR`` (-1) is reserved for the don't-care value and is never
assigned to a real value.  The merge engine goes one step further and packs
a whole code tuple into one int (:class:`repro.core.cluster.Packing`).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro.common.errors import SchemaError

#: Integer code reserved for the don't-care value ``*`` in cluster patterns.
STAR = -1


class ValueInterner:
    """Bidirectional mapping between raw attribute values and int codes.

    Codes are assigned densely starting from 0 in first-seen order, which
    makes encodings deterministic for a fixed input order.
    """

    __slots__ = ("_code_of", "_value_of")

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self._code_of: dict[Hashable, int] = {}
        self._value_of: list[Hashable] = []
        for value in values:
            self.intern(value)

    def __len__(self) -> int:
        return len(self._value_of)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._code_of

    def intern(self, value: Hashable) -> int:
        """Return the code for *value*, assigning a fresh one if unseen."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._value_of)
            self._code_of[value] = code
            self._value_of.append(value)
        return code

    def code(self, value: Hashable) -> int:
        """Return the code for an already-interned *value*.

        Raises ``KeyError`` for unseen values; use :meth:`intern` to assign.
        """
        return self._code_of[value]

    def value(self, code: int) -> Hashable:
        """Return the raw value for *code* (``"*"`` for :data:`STAR`)."""
        if code == STAR:
            return "*"
        return self._value_of[code]

    def domain(self) -> tuple[Hashable, ...]:
        """All interned values in code order (the active domain)."""
        return tuple(self._value_of)


class AttributeCodec:
    """Encodes/decodes tuples over *m* named attributes to int tuples.

    The codec is what lets the summarization core work purely on integers
    while the query layer and the presentation layer speak raw values.
    """

    def __init__(self, attributes: Sequence[str]) -> None:
        if len(set(attributes)) != len(attributes):
            raise ValueError("duplicate attribute names: %r" % (attributes,))
        self.attributes: tuple[str, ...] = tuple(attributes)
        self._interners: tuple[ValueInterner, ...] = tuple(
            ValueInterner() for _ in attributes
        )

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def interner(self, index: int) -> ValueInterner:
        """The per-attribute interner at position *index*."""
        return self._interners[index]

    def domain_size(self, index: int) -> int:
        """Number of distinct values seen for attribute *index*."""
        return len(self._interners[index])

    def encode(self, row: Sequence[Any]) -> tuple[int, ...]:
        """Intern every value of *row* and return the code tuple; a row
        of another arity is a :class:`SchemaError`."""
        if len(row) != self.arity:
            raise SchemaError(
                "row arity %d != codec arity %d" % (len(row), self.arity)
            )
        return tuple(
            interner.intern(value)
            for interner, value in zip(self._interners, row)
        )

    def encode_many(self, rows: Iterable[Sequence[Any]]) -> list[tuple[int, ...]]:
        """Encode an iterable of rows (first-seen code assignment order)."""
        return [self.encode(row) for row in rows]

    def decode(self, codes: Sequence[int]) -> tuple[Any, ...]:
        """Map a code tuple (possibly containing :data:`STAR`) back to values."""
        if len(codes) != self.arity:
            raise ValueError(
                "pattern arity %d != codec arity %d" % (len(codes), self.arity)
            )
        return tuple(
            interner.value(code)
            for interner, code in zip(self._interners, codes)
        )
