"""Tests for AnswerSet (repro.core.answers) and value interning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError, SchemaError
from repro.common.interning import STAR, AttributeCodec, ValueInterner
from repro.core.answers import AnswerSet


class TestValueInterner:
    def test_intern_assigns_dense_codes(self):
        interner = ValueInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0

    def test_value_roundtrip(self):
        interner = ValueInterner(["x", "y"])
        assert interner.value(interner.code("y")) == "y"

    def test_star_decodes_to_star_glyph(self):
        interner = ValueInterner(["x"])
        assert interner.value(STAR) == "*"

    def test_unknown_value_raises(self):
        with pytest.raises(KeyError):
            ValueInterner().code("missing")

    def test_domain_in_code_order(self):
        interner = ValueInterner(["c", "a", "b", "a"])
        assert interner.domain() == ("c", "a", "b")


class TestAttributeCodec:
    def test_encode_decode_roundtrip(self):
        codec = AttributeCodec(["x", "y"])
        codes = codec.encode(("hello", 42))
        assert codec.decode(codes) == ("hello", 42)

    def test_encode_arity_mismatch(self):
        codec = AttributeCodec(["x", "y"])
        with pytest.raises(ValueError):
            codec.encode(("only-one",))

    def test_decode_with_star(self):
        codec = AttributeCodec(["x", "y"])
        codec.encode(("a", "b"))
        assert codec.decode((0, STAR)) == ("a", "*")

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(ValueError):
            AttributeCodec(["x", "x"])

    def test_domain_sizes(self):
        codec = AttributeCodec(["x"])
        for value in ("a", "b", "a", "c"):
            codec.encode((value,))
        assert codec.domain_size(0) == 3


class TestAnswerSet:
    def test_sorted_by_descending_value(self):
        answers = AnswerSet.from_rows(
            [("a",), ("b",), ("c",)], [1.0, 3.0, 2.0]
        )
        assert answers.values == [3.0, 2.0, 1.0]

    def test_deterministic_tie_break(self):
        answers = AnswerSet.from_rows([("b",), ("a",)], [2.0, 2.0])
        # Ties broken by encoded element tuple: "b" was seen first -> code 0.
        assert answers.decode(answers.elements[0]) == ("b",)

    def test_top_returns_prefix(self, small_answers):
        assert small_answers.top(5) == [0, 1, 2, 3, 4]

    def test_top_out_of_range(self, small_answers):
        with pytest.raises(InvalidParameterError):
            small_answers.top(small_answers.n + 1)

    def test_avg_all(self):
        answers = AnswerSet.from_rows([("a",), ("b",)], [1.0, 3.0])
        assert answers.avg_all() == pytest.approx(2.0)

    def test_avg_of_subset(self):
        answers = AnswerSet.from_rows([("a",), ("b",), ("c",)], [1.0, 2.0, 6.0])
        assert answers.avg_of([0, 2]) == pytest.approx(3.5)

    def test_avg_of_empty_raises(self, small_answers):
        with pytest.raises(InvalidParameterError):
            small_answers.avg_of([])

    def test_duplicate_elements_rejected(self):
        with pytest.raises(SchemaError):
            AnswerSet.from_rows([("a",), ("a",)], [1.0, 2.0])

    def test_ragged_rows_rejected(self):
        codec = AttributeCodec(["x", "y"])
        with pytest.raises(SchemaError):
            AnswerSet([(0, 1), (0,)], [1.0, 2.0], codec)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            AnswerSet.from_rows([("a",)], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            AnswerSet([], [], None)

    def test_decode_without_codec_raises(self):
        answers = AnswerSet([(0,), (1,)], [1.0, 2.0], None)
        with pytest.raises(SchemaError):
            answers.decode((0,))

    def test_generated_attribute_names(self):
        answers = AnswerSet.from_rows([("a", "b")], [1.0])
        assert answers.codec.attributes == ("A1", "A2")


# -- AnswerSet.extended: a splice equal to a fresh build ----------------------


def rebuilt(answers, rows, values):
    """``extended`` as a rebuild: the constructor over the concatenated
    rows, and the ranks the new rows land on."""
    rows = [tuple(row) for row in rows]
    if answers.codec is not None:
        encoded = answers.codec.encode_many(rows)
    else:
        encoded = rows
    bigger = AnswerSet(
        answers.elements + encoded,
        answers.values + [float(value) for value in values],
        answers.codec,
    )
    fresh = set(encoded)
    return bigger, [
        index for index, element in enumerate(bigger.elements)
        if element in fresh
    ]


def outcome(extend):
    try:
        bigger, delta = extend()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return ("error", type(error), str(error))
    return ("ok", bigger.elements, repr(bigger.values), delta,
            bigger.top_code)


@st.composite
def extensions(draw):
    """A base set (with or without a codec, int or float values) and 1-3
    batches whose values land above, below and among runs of equal
    values; at times a batch repeats an element or is ragged, and at
    times a value is NaN."""
    m = draw(st.integers(1, 3))
    universe = draw(st.lists(
        st.tuples(*[st.integers(0, 3)] * m), min_size=2, max_size=30,
        unique=True,
    ))
    if draw(st.booleans()):
        value = st.integers(-2, 2)
    else:
        value = st.sampled_from([-1.0, 0.0, -0.0, 0.5, 0.5, 2.25, 9.0])
    values = draw(st.lists(value, min_size=len(universe),
                           max_size=len(universe)))
    if draw(st.sampled_from([False] * 9 + [True])):
        values[draw(st.integers(0, len(values) - 1))] = float("nan")
    base_n = draw(st.integers(1, len(universe) - 1))
    batches, cursor = [], base_n
    while cursor < len(universe):
        size = draw(st.integers(1, len(universe) - cursor))
        rows = universe[cursor:cursor + size]
        if draw(st.sampled_from([False] * 9 + [True])):
            rows = rows + [draw(st.sampled_from(universe[:cursor + size]))]
        elif draw(st.sampled_from([False] * 9 + [True])):
            rows = rows[:-1] + [rows[-1] + (0,)]
        batches.append((rows, values[cursor:cursor + size]
                        + [1.0] * (len(rows) - size)))
        cursor += size
    codec = draw(st.booleans())
    return universe[:base_n], values[:base_n], batches, codec


def _spelled(rows):
    return [tuple("v%d" % code for code in row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(extensions())
def test_extended_equals_a_fresh_build(case):
    """``extended`` equals a rebuild, errors included; a NaN value is
    rejected by the constructor and by ``extended`` alike."""
    rows, values, batches, with_codec = case
    build = AnswerSet.from_rows if with_codec else AnswerSet
    if with_codec:
        rows = _spelled(rows)
    if any(value != value for value in values):
        with pytest.raises(SchemaError, match="finite numbers; got nan"):
            build(rows, values)
        return
    answers = build(rows, values)
    for batch_rows, batch_values in batches:
        if with_codec:
            batch_rows = _spelled(batch_rows)
        got = outcome(lambda: answers.extended(batch_rows, batch_values))
        assert got == outcome(
            lambda: rebuilt(answers, batch_rows, batch_values)
        )
        if any(value != value for value in batch_values):
            assert got[0] == "error"  # a ragged batch fails earlier
        if got[0] == "error":
            return
        answers, _ = answers.extended(batch_rows, batch_values)


@pytest.mark.parametrize("value,delta", [
    (10.0, [0]),      # above every value: rank 0
    (-5.0, [4]),      # below every value: the end
    (2.0, [2]),       # inside the run of 2.0s, by element code
    (1.0, [3]),       # ties the last value with a smaller code
])
def test_extended_lands_where_the_constructor_ranks(value, delta):
    answers = AnswerSet([(0,), (1,), (3,), (4,)], [3.0, 2.0, 2.0, 1.0])
    bigger, got = answers.extended([(2,)], [value])
    expected, expected_delta = rebuilt(answers, [(2,)], [value])
    assert got == expected_delta == delta
    assert (bigger.elements, bigger.values) == (
        expected.elements, expected.values
    )
