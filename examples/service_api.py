"""The service wire format: JSON requests in, JSON responses out.

Demonstrates what travels over the wire for each request kind — the same
schema-versioned payloads ``repro-summarize --json`` prints and
``repro-serve`` speaks over stdin/stdout.  A request is a plain JSON
object; the engine answers with a JSON object; errors come back as
``kind="error"`` payloads instead of exceptions.

Run:  python examples/service_api.py
"""

from __future__ import annotations

import io
import json

from repro.datasets.loader import synthetic_answer_set
from repro.service import Engine, serve


def show(title: str, payload: dict) -> None:
    print("%s (kind=%s):" % (title, payload.get("kind")))
    print("  " + json.dumps(payload, sort_keys=True)[:300])


def main() -> None:
    engine = Engine()
    engine.register_dataset(
        "synthetic", synthetic_answer_set(300, m=5, domain_size=5, seed=7)
    )

    request = {
        "schema_version": 2,
        "kind": "summary",
        "dataset": "synthetic",
        "k": 4, "L": 10, "D": 2,
        "algorithm": "hybrid",
    }
    show("summary request", request)
    response = engine.submit_dict(request)
    show("summary response (cold)", response)

    response = engine.submit_dict(request)
    print("resubmitted: cache_hit=%s, init_seconds=%.6f"
          % (response["cache_hit"], response["init_seconds"]))

    guidance = engine.submit_dict({
        "schema_version": 2,
        "kind": "guidance",
        "dataset": "synthetic",
        "L": 10, "k_range": [2, 8], "d_values": [1, 2],
    })
    print("guidance response: %d series, cache_hit=%s"
          % (len(guidance["series"]), guidance["cache_hit"]))

    error = engine.submit_dict({
        "schema_version": 2,
        "kind": "summary",
        "dataset": "synthetic",
        "k": 4, "algorithm": "no-such-algorithm",
    })
    show("error response", error)

    print("\nthe same traffic as a JSON-lines serve session:")
    lines = [
        json.dumps({"kind": "ping"}),
        json.dumps(request),
        json.dumps({"kind": "stats"}),
    ]
    stdout = io.BytesIO()
    served = serve(io.BytesIO(("\n".join(lines) + "\n").encode()), stdout,
                   engine=engine)
    for line in stdout.getvalue().decode().splitlines():
        print("  " + line[:120])
    print("served %d responses" % served)


if __name__ == "__main__":
    main()
