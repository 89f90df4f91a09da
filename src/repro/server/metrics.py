"""Server observability: counters and fixed-bucket latency histograms.

The serving tier's health is summarized by a handful of numbers — queue
depths, coalesce hit rate, per-kind latency quantiles — that ride in the
``stats`` admin response (under the open ``"server"`` key) so any wire
client can watch them without a separate metrics port.  The same
counters and histograms render as Prometheus text exposition via
:func:`prometheus_text` — the HTTP front door serves that at
``/metrics``, so the tier is scrapeable by standard tooling.

:class:`LatencyHistogram` uses fixed log-spaced buckets (0.5 ms … 30 s
plus an unbounded terminal bucket), the standard server-metrics trade:
O(1) memory per kind, quantiles read as the upper bound of the bucket
where the cumulative count crosses the rank, exact max tracked
separately.  All classes are thread-safe; observation is a counter bump
under a lock.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Mapping

#: Upper bounds (seconds) of the latency buckets; the last bucket is
#: unbounded and reports the exact observed max instead of a bound.
BUCKET_BOUNDS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Histogram keys are bounded to the known wire kinds plus ``"invalid"``
#: (unparseable lines) and ``"other"`` (unknown kinds).  The kind string
#: comes from the client, so keying histograms on it verbatim would let a
#: hostile client grow server memory one invented kind at a time.
#: ``session``/``healthz``/``metrics`` are the HTTP front door's own
#: routes (session CRUD, liveness, the Prometheus scrape itself).
TRACKED_KINDS = frozenset({
    "summary", "explore", "guidance",
    "ping", "load_csv", "datasets", "algorithms", "stats", "shutdown",
    "trace",
    "session", "healthz", "metrics",
    "invalid",
})


class LatencyHistogram:
    """Fixed-bucket latency distribution with count/mean/max/quantiles."""

    __slots__ = ("_lock", "_counts", "_count", "_sum", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(BUCKET_BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @staticmethod
    def _quantile_from(
        counts: list[int], count: int, maximum: float, q: float
    ) -> float:
        """Quantile from an already-snapshotted bucket state."""
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        for index, bucket in enumerate(counts):
            cumulative += bucket
            if cumulative >= rank:
                if index < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[index]
                return maximum
        return maximum

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the *q*-quantile observation.

        0.0 when nothing was observed; the exact max for the unbounded
        terminal bucket (so p99 of a one-sample histogram is that sample's
        bucket bound, never infinity).
        """
        counts, count, _total, maximum = self.export()
        return self._quantile_from(counts, count, maximum, q)

    def export(self) -> tuple[list[int], int, float, float]:
        """Consistent snapshot for exposition: per-bucket counts (the
        last entry is the unbounded terminal bucket), total count, sum
        of observations, and the exact max."""
        with self._lock:
            return list(self._counts), self._count, self._sum, self._max

    def summary(self) -> dict[str, float]:
        # One lock acquisition for every field: quantiles computed from
        # the same snapshot as count/mean/max, so a concurrent observe
        # can never tear the summary (p50 > p95 was possible when each
        # quantile re-read live state).
        counts, count, total, maximum = self.export()
        return {
            "count": count,
            "mean_seconds": total / count if count else 0.0,
            "max_seconds": maximum,
            "p50_seconds": self._quantile_from(counts, count, maximum, 0.50),
            "p95_seconds": self._quantile_from(counts, count, maximum, 0.95),
            "p99_seconds": self._quantile_from(counts, count, maximum, 0.99),
        }


class ServerMetrics:
    """Named counters plus one latency histogram per request kind."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._latency: dict[str, LatencyHistogram] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, kind: str, seconds: float) -> None:
        if kind not in TRACKED_KINDS:
            kind = "other"
        with self._lock:
            histogram = self._latency.get(kind)
            if histogram is None:
                histogram = self._latency[kind] = LatencyHistogram()
        histogram.observe(seconds)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            latency = dict(self._latency)
        return {
            "counters": counters,
            "latency": {
                kind: histogram.summary()
                for kind, histogram in sorted(latency.items())
            },
        }

    def histograms(self) -> dict[str, LatencyHistogram]:
        with self._lock:
            return dict(self._latency)


# -- Prometheus exposition -----------------------------------------------------

_METRIC_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _sanitize_metric_name(name: str) -> str:
    return "".join(c if c in _METRIC_NAME_OK else "_" for c in name)


def _escape_label(value: str) -> str:
    """Escape a label *value* per the Prometheus text exposition format:
    backslash, double quote, and line feed must be escaped or the
    exposition is unparseable (and a hostile value could inject whole
    fake sample lines)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    # Integral values print without an exponent or trailing zeros; repr
    # keeps full float precision for the rest.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    metrics: "ServerMetrics",
    extra: Mapping[str, float] | None = None,
    *,
    namespace: str = "repro",
) -> str:
    """Render counters + latency histograms in Prometheus text format.

    Counters become ``<ns>_<name>_total``; each per-kind latency
    histogram becomes one ``<ns>_request_latency_seconds`` histogram
    series labelled ``{kind="..."}`` with the standard cumulative
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` triplet.  *extra* adds
    flat gauges; it is how the HTTP front door folds in scheduler queue
    depths, quota counters, and session-store health.  A key may carry
    a ``{label="..."}`` suffix, emitted as given: every key is built by
    :meth:`~repro.obs.TelemetryRegistry.prometheus_extra` from fixed
    names and a shard index, never from client input.
    """
    lines: list[str] = []
    snapshot_counters = metrics.snapshot()["counters"]
    for name in sorted(snapshot_counters):
        metric = "%s_%s_total" % (namespace, _sanitize_metric_name(name))
        lines.append("# TYPE %s counter" % metric)
        lines.append(
            "%s %s" % (metric, _format_value(snapshot_counters[name]))
        )
    histograms = metrics.histograms()
    if histograms:
        metric = "%s_request_latency_seconds" % namespace
        lines.append("# TYPE %s histogram" % metric)
        for kind in sorted(histograms):
            label = _escape_label(kind)
            counts, count, total, _maximum = histograms[kind].export()
            cumulative = 0
            for bound, bucket in zip(BUCKET_BOUNDS, counts):
                cumulative += bucket
                lines.append(
                    '%s_bucket{kind="%s",le="%s"} %d'
                    % (metric, label, _format_value(bound), cumulative)
                )
            cumulative += counts[-1]
            lines.append(
                '%s_bucket{kind="%s",le="+Inf"} %d'
                % (metric, label, cumulative)
            )
            lines.append(
                '%s_sum{kind="%s"} %s' % (metric, label, _format_value(total))
            )
            lines.append('%s_count{kind="%s"} %d' % (metric, label, count))
    typed: set[str] = set()
    for key in sorted(extra or {}):
        name, brace, labels = key.partition("{")
        base = "%s_%s" % (namespace, _sanitize_metric_name(name))
        if base not in typed:  # one TYPE line per family, not per label
            typed.add(base)
            lines.append("# TYPE %s gauge" % base)
        lines.append(
            "%s%s%s %s" % (base, brace, labels, _format_value(extra[key]))
        )
    return "\n".join(lines) + "\n"
