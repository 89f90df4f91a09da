"""CSV import/export for relations (the library's on-disk interchange).

The paper's prototype previews tables from PostgreSQL; a library user's
equivalent is loading a CSV.  Values are type-inferred per column: a column
whose every non-empty value parses as int becomes int, else float, else
string — the same inference a careful analyst would apply before grouping.

Two paths read a CSV.  :func:`read_csv` materializes a typed
:class:`Relation` (the SQL path, and :func:`answer_set_from_relation` on
top of it).  :func:`load_answer_set` reads an answer-set CSV straight
into integer codes (Section 6.3's interning), a block of
:data:`BLOCK_ROWS` rows at a time: between blocks it keeps only one code
column per grouping attribute, the values, and each column's distinct
texts.  Only those distinct texts are type-converted, so the codes,
ranking, domains and errors equal the two-step path's while no typed
row is ever built.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from itertools import count, islice
from pathlib import Path
from typing import Any, Iterable

from repro.common.errors import SchemaError
from repro.query.relation import Relation

#: Rows :class:`CodeColumns` parses per block; no block of raw rows
#: outlives its iteration.
BLOCK_ROWS = 4096


def _parse_int(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _parse_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def infer_column_type(values: Iterable[str]) -> str:
    """'int', 'float', or 'str' for a column of raw strings."""
    saw_any = False
    all_int = True
    all_float = True
    for text in values:
        if text == "":
            continue
        saw_any = True
        if all_int and _parse_int(text) is None:
            all_int = False
        if all_float and _parse_float(text) is None:
            all_float = False
        if not all_float:
            break
    if not saw_any:
        return "str"
    if all_int:
        return "int"
    if all_float:
        return "float"
    return "str"


def _convert(text: str, kind: str) -> Any:
    if text == "":
        return None
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def read_csv(
    source: str | Path | io.TextIOBase,
    name: str | None = None,
    delimiter: str = ",",
) -> Relation:
    """Load a CSV (header row required) into a typed Relation."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open(newline="") as handle:
            return read_csv(handle, name=name or path.stem,
                            delimiter=delimiter)
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV has no header row") from None
    raw_rows = [row for row in reader]
    for index, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise SchemaError(
                "CSV row %d has %d fields, header has %d"
                % (index + 2, len(row), len(header))
            )
    kinds = [
        infer_column_type(row[i] for row in raw_rows)
        for i in range(len(header))
    ]
    rows = [
        tuple(_convert(row[i], kinds[i]) for i in range(len(header)))
        for row in raw_rows
    ]
    return Relation(name or "csv", header, rows)


def answer_set_from_relation(relation: Relation):
    """Treat *relation* as an answer set: last column is the value, every
    other column a grouping attribute.

    :func:`load_answer_set` gives the same set from a CSV without the
    relation; this two-step path is its oracle.  Schema problems (too few
    columns, a non-numeric value column) surface as :class:`SchemaError`
    so front ends can map them to their error contract instead of
    leaking a ``ValueError``.
    """
    from repro.core.answers import AnswerSet

    if len(relation.columns) < 2:
        raise SchemaError(
            "relation %r needs grouping columns plus a value column"
            % relation.name
        )
    groups = [row[:-1] for row in relation.rows]
    values = []
    for row in relation.rows:
        try:
            values.append(float(row[-1]))
        except OverflowError:
            # An int past the float range reads as infinite, as ``float``
            # reads its text in the loader; the answer set rejects both.
            values.append(math.copysign(math.inf, row[-1]))
        except (TypeError, ValueError):
            raise SchemaError(
                "value column %r must be numeric; got %r"
                % (relation.columns[-1], row[-1])
            ) from None
    return AnswerSet.from_rows(
        groups, values, attributes=relation.columns[:-1]
    )


class CodeColumns:
    """An answer-set CSV read a block of rows at a time into code columns.

    The last column is the value, every other column a grouping
    attribute.  Each grouping column's raw text is interned in first-seen
    order; each value text is parsed with ``float``.  Checks run once the
    whole file is read, in :func:`read_csv`'s order and with its errors:
    a ragged row, then the header (:class:`Relation`'s duplicate-name and
    empty-schema checks).  :meth:`answer_set` then applies
    :func:`answer_set_from_relation`'s checks and builds the set.

    *name* defaults to the file stem, as :func:`read_csv` names the
    relation.
    """

    def __init__(self, source: str | Path, name: str | None = None) -> None:
        path = Path(source)
        self.name = name or path.stem or "csv"
        texts: list[defaultdict[str, int]] = []
        codes: list[list[int]] = []
        values: list[float] = []
        bad_value = None
        ragged = None
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError("CSV has no header row") from None
            width = len(header)
            if width >= 2:
                texts = [defaultdict(count().__next__) for _ in header[1:]]
                codes = [[] for _ in texts]
            row = 2
            while block := list(islice(reader, BLOCK_ROWS)):
                if ragged is None and set(map(len, block)) != {width}:
                    ragged = next(
                        (row + offset, len(fields))
                        for offset, fields in enumerate(block)
                        if len(fields) != width
                    )
                row += len(block)
                if ragged is None and width >= 2:
                    bad = _take_block(block, texts, codes, values)
                    if bad_value is None:
                        bad_value = bad
                del block  # freed before the next block is read
        if ragged is not None:
            raise SchemaError(
                "CSV row %d has %d fields, header has %d"
                % (ragged[0], ragged[1], width)
            )
        Relation(self.name, header)  # its header checks and messages
        self.columns = tuple(header)
        self._texts = texts
        self._codes = codes
        self._values = values
        self._bad_value = bad_value

    def answer_set(self):
        """The :class:`~repro.core.answers.AnswerSet` of the file; call once
        (it hands the code columns over).

        Each grouping column's type is inferred from its distinct texts
        and only that domain is converted and re-interned, so codes are
        remapped where several texts convert to one value (``1`` and
        ``01`` in an int column).  A NaN is unequal to itself, so, as in
        the two-step path, every NaN row gets a code of its own.
        """
        from repro.common.interning import AttributeCodec
        from repro.core.answers import AnswerSet

        if len(self.columns) < 2:
            raise SchemaError(
                "relation %r needs grouping columns plus a value column"
                % self.name
            )
        if self._bad_value is not None:
            # read_csv types an empty field as None and keeps any other
            # text float() rejects as it is.
            raise SchemaError(
                "value column %r must be numeric; got %r"
                % (self.columns[-1], self._bad_value or None)
            )
        if not self._values:
            raise SchemaError("from_rows() needs at least one row")
        codec = AttributeCodec(self.columns[:-1])
        codes, self._codes = self._codes, []
        for index, texts in enumerate(self._texts):
            codes[index] = _recode(codec.interner(index), texts, codes[index])
        elements = list(zip(*codes))
        del codes
        return AnswerSet(elements, self._values, codec)


def _take_block(
    block: list[list[str]],
    texts: list[defaultdict[str, int]],
    codes: list[list[int]],
    values: list[float],
) -> str | None:
    """Append one block's raw-text codes and values to the columns;
    returns the block's first value text ``float`` rejects, if any."""
    *grouping, value_texts = zip(*block)
    for interned, column, column_texts in zip(texts, codes, grouping):
        column += map(interned.__getitem__, column_texts)
    try:
        values += list(map(float, value_texts))
        return None
    except ValueError:  # some text is no number: redo it text by text
        pass
    bad = None
    for text in value_texts:
        try:
            values.append(float(text))
        except ValueError:
            values.append(0.0)
            if bad is None:
                bad = text
    return bad


def _recode(interner, texts, codes: list[int]) -> list[int]:
    """*codes* (indices into *texts*, a column's distinct raw texts in
    first-seen order) as codes of *interner* over the typed values."""
    kind = infer_column_type(texts)
    typed = [_convert(text, kind) for text in texts]
    if any(value != value for value in typed):
        # NaN: convert per row, so each row interns a value of its own.
        by_code = list(texts)
        return [interner.intern(_convert(by_code[code], kind))
                for code in codes]
    remap = list(map(interner.intern, typed))
    if len(interner) == len(remap):
        return codes
    return list(map(remap.__getitem__, codes))


def load_answer_set(source: str | Path, name: str | None = None):
    """``(name, AnswerSet)`` of an answer-set CSV, read by
    :class:`CodeColumns`.

    Equal to :func:`answer_set_from_relation` over :func:`read_csv` in
    elements, values, codec domains and errors, without materializing
    the relation; this is the no-SQL path of ``repro-summarize``,
    ``repro-serve``'s CSV preload and its ``load_csv`` admin kind.
    """
    table = CodeColumns(source, name)
    return table.name, table.answer_set()


def write_csv(
    relation: Relation,
    target: str | Path | io.TextIOBase,
    delimiter: str = ",",
) -> None:
    """Write a Relation to CSV with a header row."""
    if isinstance(target, (str, Path)):
        with Path(target).open("w", newline="") as handle:
            write_csv(relation, handle, delimiter=delimiter)
            return
    writer = csv.writer(target, delimiter=delimiter)
    writer.writerow(relation.columns)
    for row in relation.rows:
        writer.writerow(["" if v is None else v for v in row])
