"""Prometheus text-exposition conformance for :mod:`repro.server.metrics`.

The ``/metrics`` route is scraped by standard tooling, so the exposition
must hold the format's invariants, not just "look right": cumulative
buckets never decrease, ``+Inf`` equals ``_count``, ``_sum``/``_count``
agree with the observations, exactly one ``# TYPE`` line per family, and
label values survive a parse round-trip even when they contain
backslashes, quotes, or newlines (unescaped, those let one hostile label
value inject whole fake sample lines).
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.server.metrics import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    ServerMetrics,
    prometheus_text,
    _escape_label,
)

pytestmark = pytest.mark.tier1

#: One exposition sample line: name, optional {labels}, value.  Label
#: values are escaped strings, so a ``}`` inside a value never ends the
#: label section.
_SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})? (\S+)$'
)
#: One label pair inside a *well-escaped* suffix: the value may contain
#: any escaped char but no raw quote.
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse(text: str):
    """Parse an exposition into (types, samples) or fail the test."""
    types: dict[str, str] = {}
    samples = []
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.rsplit(" ", 1)
            assert name not in types, "duplicate # TYPE for %s" % name
            types[name] = kind
            continue
        match = _SAMPLE.match(line)
        assert match, "unparseable exposition line: %r" % line
        name, labels, value = match.groups()
        parsed_labels = dict(
            (k, _unescape(v))
            for k, v in _LABEL.findall(labels[1:-1] if labels else "")
        )
        samples.append((name, parsed_labels, float(value)))
    return types, samples


@pytest.fixture
def metrics() -> ServerMetrics:
    m = ServerMetrics()
    m.incr("responses", 7)
    m.incr("connections_opened", 2)
    for seconds in (0.0004, 0.003, 0.003, 0.08, 1.7, 45.0):
        m.observe("summary", seconds)
    m.observe("ping", 0.0001)
    return m


class TestExpositionConformance:
    def test_one_type_line_per_family(self, metrics):
        text = prometheus_text(metrics, {
            'shard_queue_depth{shard="0"}': 1,
            'shard_queue_depth{shard="1"}': 2,
            "scheduler_inflight": 3,
        })
        types, _ = _parse(text)  # _parse asserts TYPE uniqueness
        assert types["repro_shard_queue_depth"] == "gauge"
        assert types["repro_scheduler_inflight"] == "gauge"
        assert types["repro_request_latency_seconds"] == "histogram"
        assert types["repro_responses_total"] == "counter"

    def test_buckets_are_cumulative_and_inf_equals_count(self, metrics):
        _, samples = _parse(prometheus_text(metrics))
        for kind, expected_count in (("summary", 6), ("ping", 1)):
            buckets = [
                (labels["le"], value)
                for name, labels, value in samples
                if name == "repro_request_latency_seconds_bucket"
                and labels["kind"] == kind
            ]
            # Ordered by ascending bound, ending at +Inf.
            assert buckets[-1][0] == "+Inf"
            assert len(buckets) == len(BUCKET_BOUNDS) + 1
            counts = [value for _, value in buckets]
            assert counts == sorted(counts), "non-monotonic buckets"
            assert counts[-1] == expected_count
            count = next(
                value for name, labels, value in samples
                if name == "repro_request_latency_seconds_count"
                and labels["kind"] == kind
            )
            assert counts[-1] == count

    def test_sum_and_count_match_observations(self, metrics):
        _, samples = _parse(prometheus_text(metrics))
        total = next(
            value for name, labels, value in samples
            if name == "repro_request_latency_seconds_sum"
            and labels["kind"] == "summary"
        )
        assert total == pytest.approx(0.0004 + 0.003 + 0.003 + 0.08
                                      + 1.7 + 45.0)

    def test_counter_samples_and_naming(self, metrics):
        _, samples = _parse(prometheus_text(metrics))
        by_name = {name: value for name, _labels, value in samples
                   if not name.startswith("repro_request_latency")}
        assert by_name["repro_responses_total"] == 7
        assert by_name["repro_connections_opened_total"] == 2


class TestLabelEscaping:
    def test_escape_label_covers_the_three_escapes(self):
        assert _escape_label('a"b') == 'a\\"b'
        assert _escape_label("a\\b") == "a\\\\b"
        assert _escape_label("a\nb") == "a\\nb"
        assert _escape_label("plain") == "plain"

    def test_histogram_kind_labels_are_escaped(self):
        # TRACKED_KINDS bounds real kinds, but the escaping contract is
        # enforced at render time regardless of the key.
        metrics = ServerMetrics()
        metrics.observe("other", 0.01)
        text = prometheus_text(metrics)
        _, samples = _parse(text)
        kinds = {labels.get("kind") for _n, labels, _v in samples}
        assert kinds == {"other"}


class TestSummaryTornLockFix:
    def test_summary_quantiles_come_from_one_snapshot(self):
        """Hammer ``observe`` from a writer thread while reading
        summaries: every summary must be internally consistent
        (p50 <= p95 <= p99 <= max, count*mean == sum-ish) because all
        fields now derive from one locked export."""
        histogram = LatencyHistogram()
        stop = threading.Event()

        def writer():
            value = 0.0001
            while not stop.is_set():
                histogram.observe(value)
                value = (value * 7.9) % 20.0 + 0.0001

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(300):
                summary = histogram.summary()
                assert summary["p50_seconds"] <= summary["p95_seconds"]
                assert summary["p95_seconds"] <= summary["p99_seconds"]
                assert summary["p99_seconds"] <= max(
                    summary["max_seconds"], BUCKET_BOUNDS[-1]
                )
                if summary["count"]:
                    assert summary["mean_seconds"] > 0.0
        finally:
            stop.set()
            thread.join(timeout=10.0)

    def test_summary_of_empty_histogram(self):
        assert LatencyHistogram().summary() == {
            "count": 0, "mean_seconds": 0.0, "max_seconds": 0.0,
            "p50_seconds": 0.0, "p95_seconds": 0.0, "p99_seconds": 0.0,
        }

    def test_quantiles_use_bucket_upper_bounds(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.observe(0.003)  # falls in the (0.0025, 0.005] bucket
        summary = histogram.summary()
        assert summary["p50_seconds"] == 0.005
        assert summary["p99_seconds"] == 0.005
        histogram.observe(45.0)  # terminal unbounded bucket: exact max
        assert histogram.quantile(0.9999) == 45.0
