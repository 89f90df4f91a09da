"""Atomic dataset snapshots: the WAL's compaction target.

A snapshot is one JSON document capturing everything needed to rebuild a
registered :class:`~repro.core.answers.AnswerSet` *bit-identically*:

* the attribute names and — crucially — each attribute's interned value
  **domain in code order**.  Codes are assigned first-seen
  (:class:`~repro.common.interning.ValueInterner`), and the answer-set
  ranking tie-breaks equal values on the element *code* tuple, so a
  recovery that re-derived codes from re-encoded rows could rank ties
  differently than the engine that crashed.  Persisting the domains and
  re-interning them in order reproduces the exact codec state instead;
* the encoded elements in rank order and their values (the constructor
  re-sorts deterministically, so rank order round-trips);
* ``seq`` — the number of WAL append batches already folded into this
  snapshot.  Recovery skips WAL records at or below it, which is what
  makes the snapshot-then-truncate compaction sequence crash-safe: a
  crash between the two steps leaves already-applied records in the WAL,
  and the seq guard keeps them from being applied twice.

Writes go through :func:`repro.common.atomic.write_atomic`, as
:class:`~repro.web.sessions.SessionStore` saves do: ``tempfile.mkstemp``
in the target directory, write + fsync, ``os.replace``, fsync of the
directory.  A reader (including a recovery racing a crash) sees either
the old complete snapshot or the new complete snapshot, never a torn
one.
"""

from __future__ import annotations

import json
from typing import Any

from repro.common.atomic import write_atomic
from repro.common.errors import SchemaError
from repro.common.interning import AttributeCodec
from repro.core.answers import AnswerSet

__all__ = ["SNAPSHOT_SCHEMA", "write_snapshot", "load_snapshot"]

#: Version stamp inside every snapshot document.
SNAPSHOT_SCHEMA = 1


def snapshot_document(
    name: str, answers: AnswerSet, seq: int
) -> dict[str, Any]:
    """The JSON document for *answers* as dataset *name* at WAL *seq*."""
    codec = answers.codec
    return {
        "schema": SNAPSHOT_SCHEMA,
        "dataset": name,
        "seq": int(seq),
        "attributes": list(codec.attributes) if codec is not None else None,
        "domains": (
            [list(codec.interner(i).domain()) for i in range(codec.arity)]
            if codec is not None
            else None
        ),
        # json writes a tuple as an array: the rank-ordered element
        # list serializes as is, with no per-element copy.
        "elements": answers.elements,
        "values": answers.values,
    }


def write_snapshot(path: str, name: str, answers: AnswerSet, seq: int) -> int:
    """Atomically write the snapshot to *path*; returns bytes written."""
    document = snapshot_document(name, answers, seq)
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    write_atomic(path, body, prefix=".snapshot-")
    return len(body)


def load_snapshot(path: str) -> tuple[str, AnswerSet, int]:
    """Read a snapshot -> ``(dataset_name, answers, seq)``.

    Raises :class:`~repro.common.errors.SchemaError` for documents that
    are unreadable or structurally wrong — the caller (recovery) decides
    whether that is fatal; the atomic write discipline means it only
    happens to files something other than this module produced.
    """
    try:
        with open(path, "rb") as handle:
            document = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError, UnicodeDecodeError) as error:
        raise SchemaError("unreadable snapshot %r: %s" % (path, error))
    if not isinstance(document, dict):
        raise SchemaError("snapshot %r is not a JSON object" % path)
    if document.get("schema") != SNAPSHOT_SCHEMA:
        raise SchemaError(
            "snapshot %r has schema %r; this build reads %r"
            % (path, document.get("schema"), SNAPSHOT_SCHEMA)
        )
    try:
        name = document["dataset"]
        seq = int(document["seq"])
        attributes = document["attributes"]
        domains = document["domains"]
        elements = list(map(tuple, document["elements"]))
        values = list(map(float, document["values"]))
    except (KeyError, TypeError, ValueError) as error:
        raise SchemaError("malformed snapshot %r: %s" % (path, error))
    if not isinstance(name, str):
        raise SchemaError("snapshot %r has a non-string dataset name" % path)
    codec = None
    if attributes is not None:
        codec = AttributeCodec(attributes)
        for index, domain in enumerate(domains or []):
            interner = codec.interner(index)
            for value in domain:
                interner.intern(value)
    return name, AnswerSet(elements, values, codec), seq
