"""Atomic file replacement: the one write discipline for durable files.

:func:`write_atomic` writes the new content to a temp file in the
target's directory (so ``os.replace`` stays a same-filesystem rename),
flushes and fsyncs it, replaces the target, then fsyncs the directory so
the rename itself survives a power cut.  A reader — a recovery racing a
crash included — sees the old complete file or the new complete file,
never a torn one; on failure the temp file is removed and the old file
stays.  Dataset snapshots (:mod:`repro.durability.snapshot`) and HTTP
sessions (:mod:`repro.web.sessions`) are written this way.
"""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, data: bytes, prefix: str = ".") -> None:
    """Replace *path* with *data* atomically and durably."""
    directory = os.path.dirname(path) or "."
    fd, temp_path = tempfile.mkstemp(
        prefix=prefix, suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    """Best-effort fsync of the directory entry after an os.replace."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
