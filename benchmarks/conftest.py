"""Shared infrastructure for the paper-experiment benchmarks.

Every ``bench_*.py`` module regenerates one table or figure of the paper
(see the per-experiment index in DESIGN.md).  Conventions:

* each benchmark prints the figure/table series it reproduces *and* writes
  it to ``results/<experiment>.txt`` so EXPERIMENTS.md can cite the files;
* the pytest-benchmark fixture times a representative kernel of the
  experiment, while the full sweep is measured once (re-running a
  multi-minute sweep many times would be pointless).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


class Report:
    """Accumulates lines, prints them, and persists them to results/."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []

    def add(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, headers: list[str], rows: list[list[object]]) -> None:
        widths = [
            max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows
            else len(str(h))
            for i, h in enumerate(headers)
        ]
        self.add("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        self.add("  ".join("-" * w for w in widths))
        for row in rows:
            self.add(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
            )

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n".join(self.lines) + "\n"
        (RESULTS_DIR / ("%s.txt" % self.name)).write_text(text)
        print("\n" + text)


@pytest.fixture
def report(request):
    rep = Report(request.node.name.replace("test_", ""))
    yield rep
    rep.flush()


def measure(fn) -> tuple[object, float]:
    """(result, elapsed seconds) for a single invocation."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
