"""Tests for the shared utilities (errors)."""

from __future__ import annotations

from repro.common.errors import (
    InfeasibleError,
    InvalidParameterError,
    QueryError,
    ReproError,
    SchemaError,
)


class TestErrors:
    def test_hierarchy(self):
        for error in (
            InvalidParameterError, InfeasibleError, SchemaError, QueryError
        ):
            assert issubclass(error, ReproError)

    def test_value_error_compatibility(self):
        # Parameter/schema/query errors double as ValueError so callers can
        # use standard idioms.
        assert issubclass(InvalidParameterError, ValueError)
        assert issubclass(SchemaError, ValueError)
        assert issubclass(QueryError, ValueError)
