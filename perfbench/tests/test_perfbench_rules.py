"""The benchmark's own rules: tail percentiles, span self time, and
seed-determinism of every workload's inputs.  No server is started."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402
import streams  # noqa: E402


# -- the percentile rule -------------------------------------------------------


def test_tail_is_p95_when_ten_samples_lie_beyond_it():
    values = list(range(1, 201))  # 200 samples: rank 190 leaves 10 above
    value, percentile, count = stats.tail(values)
    assert (value, percentile, count) == (190, 95.0, 200)
    assert sum(1 for v in values if v > value) == 10


def test_tail_falls_back_to_the_highest_supported_percentile():
    values = list(range(1, 101))  # p95 would leave only 5 beyond
    value, percentile, _ = stats.tail(values)
    assert (value, percentile) == (90, 90.0)
    assert sum(1 for v in values if v > value) == 10


def test_tail_never_drops_below_the_median():
    for n in (1, 5, 6, 13, 20):
        values = [float(v) for v in range(n)]
        value, percentile, count = stats.tail(values)
        assert (value, percentile, count) == (stats.median(values), 50.0, n)


def test_tail_of_nothing_is_zero():
    assert stats.tail([]) == (0.0, 0.0, 0)


# -- span self time ------------------------------------------------------------


def _span(span_id, name, start, end, parent=None, rid="r", root=False):
    return {"id": span_id, "parent": parent, "rid": rid, "name": name,
            "start": start, "end": end, "root": root}


def test_overlapping_children_are_counted_once():
    spans = [
        _span(0, "root", 0.0, 10.0, root=True),
        _span(1, "a", 1.0, 4.0),        # parentless: belongs to the root
        _span(2, "b", 3.0, 6.0, parent=0),   # overlaps a
        _span(3, "c", 8.0, 12.0, parent=0),  # sticks out past the root
        _span(4, "d", 2.0, 3.0, parent=1),   # grandchild
    ]
    selfs = stats.self_times(spans)
    assert selfs[0] == 10.0 - (5.0 + 2.0)
    assert selfs[1] == 3.0 - 1.0
    assert selfs[2] == 3.0
    assert selfs[3] == 4.0
    assert selfs[4] == 1.0


def test_spans_of_other_requests_are_not_children():
    spans = [
        _span(0, "root", 0.0, 10.0, root=True, rid="r1"),
        _span(1, "x", 2.0, 5.0, rid="r2"),
    ]
    assert stats.self_times(spans)[0] == 10.0


def test_covered_length_merges_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 9.0), (-4.0, -1.0)]
    assert stats.covered_length(intervals, 0.5, 7.0) == 2.5 + 2.0


# -- seed determinism ------------------------------------------------------------


def test_every_stream_is_a_function_of_the_seed():
    for seed in (1, 2):
        assert (streams.dataset_rows(0, seed, 500)
                == streams.dataset_rows(0, seed, 500))
        assert streams.warm_stream(seed, 3.0) == streams.warm_stream(seed, 3.0)
        assert streams.warm_burst(seed) == streams.warm_burst(seed)
        assert (streams.append_reader_stream(seed)
                == streams.append_reader_stream(seed))
        assert (streams.append_batches(seed, 15.0)
                == streams.append_batches(seed, 15.0))
    assert streams.dataset_rows(0, 1, 500) != streams.dataset_rows(0, 2, 500)
    assert streams.warm_stream(1, 3.0) != streams.warm_stream(2, 3.0)
    assert streams.warm_burst(1) != streams.warm_burst(2)
    assert streams.append_batches(1, 15.0) != streams.append_batches(2, 15.0)


def test_warm_mix_is_exact_whatever_the_seed():
    def mix(seed):
        return sorted(str(request) for _, request in streams.warm_stream(seed, 5.0))

    assert mix(1) == mix(2)
    requests = [request for _, request in streams.warm_stream(1, 15.0)]
    kinds = [request["kind"] for request in requests]
    assert kinds.count("summary") == round(0.55 * len(kinds))
    for kind in ("summary", "explore", "guidance"):
        alpha, beta = (
            sum(1 for r in requests if r["kind"] == kind and r["dataset"] == d)
            for d in streams.WARM_DATASETS
        )
        assert abs(alpha - beta) <= 1, (kind, alpha, beta)


def test_inputs_use_wire_defaults_and_fresh_append_rows():
    requests = [request for _, request in streams.warm_stream(1, 5.0)]
    requests += streams.warm_burst(1)
    requests += streams.append_reader_stream(1)[:20]
    for request in requests:
        assert not {"mapping", "kernel", "options"} & set(request)
    rows = [tuple(row) for _, batch in streams.append_batches(1, 15.0)
            for row in batch["rows"]]
    assert len(set(rows)) == len(rows)
    base_firsts = {row[0] for row in streams.dataset_rows(2, 1, 500)[0]}
    assert not base_firsts & {row[0] for row in rows}
