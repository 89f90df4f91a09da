"""The block CSV loader equals the two-step path it replaces.

:func:`repro.query.csv_io.load_answer_set` reads an answer-set CSV a
block of rows at a time into code columns.  Its oracle is
:func:`answer_set_from_relation` over :func:`read_csv`, which builds the
typed relation first: the two must agree in elements, values, every
interner's domain, ``top_code`` and every error, and
``repro-summarize`` and the ``load_csv`` admin kind must report
malformed files as they did through the two-step path.
"""

from __future__ import annotations

import csv
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_PARAM_ERROR, main
from repro.query import csv_io
from repro.query.csv_io import (
    answer_set_from_relation,
    load_answer_set,
    read_csv,
)
from repro.service import Engine
from repro.service.serve import Dispatcher

pytestmark = pytest.mark.tier1

#: Texts per grouping-column flavor: several texts per flavor convert to
#: one value (``1``/``01``/``+1``, ``1.0``/``1.00``), NaN is unequal to
#: itself, and quoting must survive commas and newlines.
FLAVORS = {
    "int": ["1", "01", "+1", "2", "-3", " 4", ""],
    "float": ["1.0", "1.00", "1", "2.5", "-0.0", "0.0", "nan", "NaN", "inf",
              ""],
    "str": ["a", "b,c", "d\ne", '"q"', "", "1", "01", "nan"],
}
VALUE_TEXTS = ["1", "2.5", "0.25", "-1", "3", "1e1", "7"]
BAD_VALUE_TEXTS = ["", "high", "nan", " 2 "]


def outcome(load):
    """Everything observable about one load: its error, or the set."""
    try:
        name, answers = load()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return ("error", type(error), str(error))
    codec = answers.codec
    return (
        "ok", name, answers.elements, repr(answers.values),
        answers.top_code, codec.attributes,
        [repr(codec.interner(i).domain()) for i in range(codec.arity)],
    )


def reference(path):
    relation = read_csv(path)
    return relation.name, answer_set_from_relation(relation)


def rarely(draw) -> bool:
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def csv_files(draw):
    """A header, rows of grouping texts plus a value text, and at times
    a key column (rows then stay distinct), bad values, one ragged row or
    one repeated header name."""
    flavors = draw(st.lists(
        st.sampled_from(["int", "float", "str", "mixed"]),
        min_size=1, max_size=3,
    ))
    pools = [
        sum(FLAVORS.values(), []) if flavor == "mixed" else FLAVORS[flavor]
        for flavor in flavors
    ]
    values = st.sampled_from(VALUE_TEXTS)
    if rarely(draw):
        values = st.sampled_from(VALUE_TEXTS + BAD_VALUE_TEXTS)
    rows = [list(row) for row in draw(st.lists(
        st.tuples(*[st.sampled_from(pool) for pool in pools], values),
        min_size=1, max_size=14,
    ))]
    header = ["g%d" % i for i in range(len(flavors))] + ["val"]
    if draw(st.booleans()):
        header.insert(0, "key")
        for index, row in enumerate(rows):
            row.insert(0, "k%d" % index)
    if rarely(draw):
        header[-1] = header[0]
    if rows and rarely(draw):
        rows[draw(st.integers(0, len(rows) - 1))].append("extra")
    return header, rows


def write(path, header, rows):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_files(), block_rows=st.sampled_from([1, 3, 4096]))
def test_loader_equals_read_csv_then_answer_set(tmp_path, monkeypatch, data,
                                                block_rows):
    header, rows = data
    path = tmp_path / "answers.csv"
    write(path, header, rows)
    monkeypatch.setattr(csv_io, "BLOCK_ROWS", block_rows)
    expected = outcome(lambda: reference(path))
    assert outcome(lambda: load_answer_set(path)) == expected


def test_nan_rows_get_codes_of_their_own(tmp_path):
    path = tmp_path / "nan.csv"
    write(path, ["g", "val"], [["nan", "3"], ["1.5", "2"], ["nan", "1"]])
    _, answers = load_answer_set(path)
    assert answers.codec.domain_size(0) == 3
    assert outcome(lambda: load_answer_set(path)) == outcome(
        lambda: reference(path)
    )


def test_texts_converting_to_one_value_share_a_code(tmp_path):
    path = tmp_path / "ones.csv"
    write(path, ["g", "h", "val"],
          [["01", "x", "1"], ["2", "y", "2"], ["+1", "y", "3"]])
    _, answers = load_answer_set(path)
    assert answers.codec.interner(0).domain() == (1, 2)
    assert outcome(lambda: load_answer_set(path)) == outcome(
        lambda: reference(path)
    )


def test_file_longer_than_one_block(tmp_path):
    n = csv_io.BLOCK_ROWS * 2 + 17
    path = tmp_path / "long.csv"
    write(path, ["a", "b", "val"],
          [["a%d" % (i % 97), "b%d" % (i // 97), "%d" % (i % 13)]
           for i in range(n)])
    got = outcome(lambda: load_answer_set(path))
    assert got[0] == "ok" and len(got[2]) == n
    assert got == outcome(lambda: reference(path))


# -- malformed files: the same errors at both front ends ----------------------


def _ragged_in_a_later_block():
    rows = ["k%d,%d" % (i, i) for i in range(csv_io.BLOCK_ROWS + 10)]
    rows[csv_io.BLOCK_ROWS + 5] += ",surplus"
    return "key,val\n" + "\n".join(rows) + "\n"


#: (file stem, content, repro-summarize's message, load_csv's message).
MALFORMED = [
    ("empty", "", "CSV has no header row", "CSV has no header row"),
    ("ragged", _ragged_in_a_later_block(),
     "CSV row %d has 3 fields, header has 2" % (csv_io.BLOCK_ROWS + 7),
     "CSV row %d has 3 fields, header has 2" % (csv_io.BLOCK_ROWS + 7)),
    ("one", "x\n1\n2\n",
     "without --sql the CSV needs grouping columns plus a value column",
     "relation 'one' needs grouping columns plus a value column"),
    ("dup", "a,a,val\nx,y,1\n",
     "duplicate column names in 'dup': ('a', 'a', 'val')",
     "duplicate column names in 'dup': ('a', 'a', 'val')"),
    ("text", "era,val\n1970s,high\n1980s,low\n",
     "value column 'val' must be numeric; got 'high'",
     "value column 'val' must be numeric; got 'high'"),
    ("blank", "era,val\n1970s,1\n1980s,\n",
     "value column 'val' must be numeric; got None",
     "value column 'val' must be numeric; got None"),
    ("header", "era,val\n",
     "from_rows() needs at least one row",
     "from_rows() needs at least one row"),
    ("twice", "era,val\n1970s,1\n1970s,2\n",
     "duplicate elements in AnswerSet; group-by output tuples must be "
     "distinct",
     "duplicate elements in AnswerSet; group-by output tuples must be "
     "distinct"),
]


@pytest.mark.parametrize("stem,content,cli_message,wire_message", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_files_keep_their_errors(tmp_path, capsys, stem, content,
                                           cli_message, wire_message):
    path = tmp_path / (stem + ".csv")
    path.write_text(content)
    # The two-step path, the loader's oracle, words the wire's message.
    with pytest.raises(Exception) as excinfo:
        reference(path)
    assert (type(excinfo.value).__name__, str(excinfo.value)) == (
        "SchemaError", wire_message
    )

    code = main([str(path), "-k", "1", "-L", "1", "-D", "0"])
    assert code == EXIT_PARAM_ERROR
    assert capsys.readouterr().err == "error: %s\n" % cli_message

    response = Dispatcher(Engine()).dispatch_payload(
        {"kind": "load_csv", "path": str(path)}
    ).response
    assert (response["kind"], response["error_type"], response["message"]) \
        == ("error", "SchemaError", wire_message)


# -- memory -------------------------------------------------------------------


def _traced_peak(load) -> int:
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loader_peak_is_at_most_half_the_reference(tmp_path):
    """At 5e4 rows of six grouping columns, the block loader's traced
    peak is at most half of read_csv + answer_set_from_relation's."""
    radices = (10, 10, 10, 10, 5, 2)
    path = tmp_path / "big.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a%d" % i for i in range(len(radices))] + ["val"])
        for i in range(50_000):
            row, rest = [], i * 7919 % 100_000
            for radix in radices:
                row.append("v%d" % (rest % radix))
                rest //= radix
            row.append("%.2f" % ((i * 37 % 400) / 4))
            writer.writerow(row)
    loader = _traced_peak(lambda: load_answer_set(path))
    two_step = _traced_peak(lambda: reference(path))
    assert loader <= two_step / 2, (loader, two_step)
