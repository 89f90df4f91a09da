"""Seeded inputs: synthetic answer sets and each workload's request stream.

Everything here is a pure function of the seed, so two runs with one
seed send the same bytes; the server only ever sees the generated CSVs
and requests.  Requests omit ``mapping``, ``kernel`` and ``options`` so
the served wire defaults are what gets timed.
"""

from __future__ import annotations

import csv
import random
from typing import Any

#: Attribute domain sizes (m = 6); their product (276480) bounds n.
CARDINALITIES = (12, 10, 8, 8, 6, 6)
SCHEMA = 2

#: warm-explore: two datasets on different shards under crc32 % 4.
WARM_DATASETS = ("alpha", "beta")
WARM_N = 20_000
WARM_POOLS = (100, 400)
#: The one explore store per dataset warmed at set-up (L, k_range, D set).
WARM_STORE = (100, (2, 30), (0, 1, 2))
#: Open-loop arrival rate: about a seventh of the capacity measured on
#: the seed datasets (54-66 req/s on a 2-core host).  At 20-33 req/s the
#: queue magnified the run-to-run speed swings of a shared host (up to
#: 2x) into median swings past the benchmark's bounds.  The server holds
#: one interpreter lock, so a request that overlaps another on either
#: shard waits for it: at 10 req/s about half the explores did, which put
#: the explore median on the edge between waiting and not waiting.  At 8
#: req/s most requests run alone and latency tracks service time.
WARM_RATE = 8.0
#: Requests of the closed-loop burst after the open-loop window, 4-5 s
#: of work: the open loop completes what it offers, so the server's
#: throughput is measured here.  As many as a 30 s window sends, so the
#: burst's summaries also visit each SUMMARY_KS cell once.
WARM_BURST = 240
#: Requests each connection keeps in flight during the burst, so the
#: server never idles for a round trip.
WARM_BURST_DEPTH = 2
WARM_MIX = (("summary", 0.55), ("explore", 0.35), ("guidance", 0.1))
#: Summary cost grows with k, and faster at L = 400 from k = 15 on.  A
#: median that falls in a gap between two cost clusters moves with every
#: run's jitter.  These values are denser at k 7-15, where cost is flat
#: in k and alike at both L, so the median lies inside a band of similar
#: costs.  Eleven k x 3 D x 2 L x 2 datasets = 132 cells: a 30 s
#: window's summaries (0.55 x 8 req/s x 30 s) visit each cell once.
SUMMARY_KS = (5, 7, 8, 10, 12, 14, 15, 18, 20, 25, 30)
SUMMARY_DS = (0, 1, 2)

APPEND_DATASET = "delta"
APPEND_N = 50_000
APPEND_L = 200
APPEND_STORE = ((2, 10), (0, 1, 2))
#: Reader summary sizes: small k keeps the reader's warm requests cheap,
#: so each append's re-derivation and store rebuild stand out.  Their
#: costs are alike, so the median lies in one band (see SUMMARY_KS).
APPEND_KS = (5, 8, 10)
#: Length of the reader's stream: more than any window can read.
APPEND_READS = 2000
#: Writer schedule: BATCH rows every PERIOD seconds, first at OFFSET.
#: An append takes 2-4 s at n=5e4 and holds the interpreter lock for much
#: of it; at a 3 s period nearly every read overlapped one and the read
#: medians followed how the two interleaved.  At 10 s most reads run
#: alone, and the few that overlap an append sit in the tail.
APPEND_BATCH = 16
APPEND_PERIOD = 10.0
APPEND_OFFSET = 1.0


def dataset_rows(structure: int, seed: int, n: int
                 ) -> tuple[list[tuple[str, ...]], list[float]]:
    """*n* distinct rows over :data:`CARDINALITIES` with dyadic values
    (exact in binary, so sums never depend on summation order).

    Which rows exist and their values come from *structure*, a constant
    per dataset; *seed* renames each attribute's values.  Summary cost
    follows the structure of the top-L: in-process, the same summaries
    took 26 to 54 ms on four independent draws, which made the medians
    spread past the bound from seed to seed.  Renamed copies of one draw
    cost the same, yet every seed sends different bytes and gets
    different answers."""
    rng = random.Random(structure)
    total = 1
    for size in CARDINALITIES:
        total *= size
    coded, values = [], []
    for code in rng.sample(range(total), n):
        digits = []
        for size in CARDINALITIES:
            digits.append(code % size)
            code //= size
        coded.append(digits)
        values.append(_value(rng, digits[0], digits[1]))
    names = random.Random(seed)
    renames = [names.sample(range(size), size) for size in CARDINALITIES]
    rows = [tuple("v%d" % rename[digit] for rename, digit in zip(renames, digits))
            for digits in coded]
    return rows, values


def _value(rng: random.Random, first: int, second: int) -> float:
    # Correlate value with two attributes so the top-L has structure.
    return (16.0 * (first % 4 == 0) + 8.0 * (second % 3 == 0)
            + rng.randrange(1024) / 64.0)


def write_csv(path: str, rows: list[tuple[str, ...]], values: list[float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a%d" % (i + 1) for i in range(len(CARDINALITIES))]
                        + ["val"])
        for row, value in zip(rows, values):
            writer.writerow(list(row) + [repr(value)])


def summary(dataset: str, k: int, L: int, D: int) -> dict[str, Any]:
    return {"schema_version": SCHEMA, "kind": "summary", "dataset": dataset,
            "k": k, "L": L, "D": D}


def explore(dataset: str, k: int, L: int, D: int, k_range: tuple[int, int],
            d_values: tuple[int, ...]) -> dict[str, Any]:
    return {"schema_version": SCHEMA, "kind": "explore", "dataset": dataset,
            "k": k, "L": L, "D": D, "k_range": list(k_range),
            "d_values": list(d_values)}


def guidance(dataset: str, L: int, k_range: tuple[int, int],
             d_values: tuple[int, ...]) -> dict[str, Any]:
    return {"schema_version": SCHEMA, "kind": "guidance", "dataset": dataset,
            "L": L, "k_range": list(k_range), "d_values": list(d_values)}


def warm_setup_requests(dataset: str) -> list[dict[str, Any]]:
    """Set-up traffic that builds every pool and the store the warm
    stream touches."""
    L, k_range, d_values = WARM_STORE
    return [summary(dataset, 10, L_pool, 1) for L_pool in WARM_POOLS] + [
        explore(dataset, k_range[0], L, d_values[0], k_range, d_values)
    ]


def _stratified(rng: random.Random, choices: list[Any], count: int) -> list[Any]:
    """*count* items cycling evenly through *choices*, each cycle
    shuffled: every seed gets the same mix, in its own order, and so
    does every prefix (a closed loop reads only as far as its window
    lets it) to within one item per choice."""
    items = [choices[index % len(choices)] for index in range(count)]
    for start in range(0, count, len(choices)):
        cycle = items[start:start + len(choices)]
        rng.shuffle(cycle)
        items[start:start + len(choices)] = cycle
    return items


def warm_stream(seed: int, seconds: float) -> list[tuple[float, dict[str, Any]]]:
    """``(due offset, request)`` pairs of the open loop.

    The count is fixed at ``WARM_RATE * seconds`` and the instants are sorted
    uniform draws -- a Poisson process conditioned on its count, so the
    offered load does not drift between seeds.  The kind mix and each
    kind's parameter mix are exact (stratified), so seeds differ in data,
    order and timing, not in how much work they ask for.
    """
    rng = random.Random(seed * 7919 + 1)
    count = max(1, round(WARM_RATE * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return list(zip(dues, _warm_requests(rng, count)))


def warm_burst(seed: int) -> list[dict[str, Any]]:
    """The closed-loop burst: :data:`WARM_BURST` requests in the open
    loop's exact mix."""
    return _warm_requests(random.Random(seed * 7919 + 5), WARM_BURST)


def _warm_requests(rng: random.Random, count: int) -> list[dict[str, Any]]:
    counts = {kind: round(share * count) for kind, share in WARM_MIX}
    counts["guidance"] = count - counts["summary"] - counts["explore"]
    L, k_range, d_values = WARM_STORE
    # The dataset varies fastest, so a partial cycle through a grid
    # still splits evenly between the two shards.
    requests = _stratified(rng, [
        summary(dataset, k, L_pool, D)
        for L_pool in WARM_POOLS for k in SUMMARY_KS for D in SUMMARY_DS
        for dataset in WARM_DATASETS
    ], counts["summary"]) + _stratified(rng, [
        explore(dataset, k, L, D, k_range, d_values)
        for k in range(k_range[0], k_range[1] + 1) for D in d_values
        for dataset in WARM_DATASETS
    ], counts["explore"]) + _stratified(rng, [
        guidance(dataset, L, k_range, d_values) for dataset in WARM_DATASETS
    ], counts["guidance"])
    rng.shuffle(requests)
    return requests


def append_setup_requests() -> list[dict[str, Any]]:
    k_range, d_values = APPEND_STORE
    return [
        summary(APPEND_DATASET, 10, APPEND_L, 1),
        explore(APPEND_DATASET, k_range[0], APPEND_L, d_values[0], k_range,
                d_values),
    ]


def append_reader_stream(seed: int) -> list[dict[str, Any]]:
    """The reader's closed loop: summaries at the one fixed L (its pool
    is carried over by every append) alternating with explores (their
    store rebuilds after every version bump).  The reader stops at the
    end of its window, long before the stream runs out."""
    rng = random.Random(seed * 7919 + 3)
    k_range, d_values = APPEND_STORE
    summaries = _stratified(rng, [
        summary(APPEND_DATASET, k, APPEND_L, D)
        for k in APPEND_KS for D in SUMMARY_DS
    ], APPEND_READS // 2)
    explores = _stratified(rng, [
        explore(APPEND_DATASET, k, APPEND_L, D, k_range, d_values)
        for k in range(k_range[0], k_range[1] + 1) for D in d_values
    ], APPEND_READS // 2)
    return [request for pair in zip(summaries, explores) for request in pair]


def append_batches(seed: int, seconds: float) -> list[tuple[float, dict[str, Any]]]:
    """``(due offset, append_rows request)`` on the writer's fixed
    schedule.  Every row has a first attribute never seen before, so
    rows are distinct from the base set and from each other.  The first
    row of each batch outranks every base value (base values stay below
    40), so each append changes the top-L by exactly one element; the
    others land far below it.  Every append then costs the same kind of
    work, whatever the seed."""
    rng = random.Random(seed * 7919 + 4)
    batches = []
    due = APPEND_OFFSET
    index = 0
    while due < seconds:
        rows, values = [], []
        for row in range(APPEND_BATCH):
            rows.append(["new%d_%d" % (index, row)] + [
                "v%d" % rng.randrange(size) for size in CARDINALITIES[1:]
            ])
            top = 40.0 if row == 0 else 0.0
            values.append(top + rng.randrange(1024) / 64.0)
        batches.append((due, {
            "schema_version": SCHEMA, "kind": "append_rows",
            "dataset": APPEND_DATASET, "rows": rows, "values": values,
        }))
        due += APPEND_PERIOD
        index += 1
    return batches
