"""Shared utilities: errors, value interning, request budgets, faults.

These modules are deliberately dependency-free so every other subpackage can
import them without cycles.
"""

from repro.common.errors import (
    ReproError,
    InfeasibleError,
    InvalidParameterError,
    SchemaError,
    QueryError,
)
from repro.common.interning import ValueInterner, AttributeCodec

__all__ = [
    "ReproError",
    "InfeasibleError",
    "InvalidParameterError",
    "SchemaError",
    "QueryError",
    "ValueInterner",
    "AttributeCodec",
]
