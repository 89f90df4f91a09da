"""Server subsystem: the concurrent network serving tier over the engine.

The paper's system is interactive and multi-user — many analysts issuing
summarize/explore requests against shared precomputed state.  This
package is that serving tier, layered strictly on top of
:mod:`repro.service` (which stays transport-free):

``repro.server.network``
    :class:`NetworkServer`: the serving stack every network transport
    shares (scheduler, dispatcher, metrics, telemetry registry, drain,
    stats, banner), plus :class:`BackgroundServer` for running any
    transport from synchronous code.
``repro.server.tcp``
    :class:`TCPServer`: asyncio framing of the schema-v2 JSON-lines
    wire protocol for many concurrent clients.
``repro.server.scheduler``
    :class:`ShardedScheduler`: per-dataset shard worker pools with
    bounded queues and ``Overloaded`` admission control.
``repro.server.singleflight``
    :class:`SingleFlight` + :func:`request_key`: identical in-flight
    requests share one computation, fanned out to all waiters.
``repro.server.metrics``
    :class:`ServerMetrics` / :class:`LatencyHistogram`: queue depths,
    coalesce hit rate, per-kind latency quantiles — exposed through the
    ``stats`` admin kind.
``repro.server.client``
    :class:`LineClient`: a minimal synchronous client for tests and the
    load harness; :class:`RetryingClient`: the resilient wrapper with
    jittered exponential backoff, reconnects, and an attempt budget.

Quickstart::

    from repro.server import BackgroundServer, LineClient, TCPServer

    with BackgroundServer(TCPServer(engine)) as handle:
        with LineClient(handle.host, handle.port) as client:
            print(client.request({"kind": "ping"}))
"""

from repro.common.errors import Overloaded, TransportError
from repro.server.client import LineClient, RetryingClient
from repro.server.metrics import LatencyHistogram, ServerMetrics
from repro.server.network import BackgroundServer, NetworkServer
from repro.server.scheduler import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SHARDS,
    ShardedScheduler,
)
from repro.server.singleflight import SingleFlight, request_key
from repro.server.tcp import TCPServer

__all__ = [
    "BackgroundServer",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_SHARDS",
    "LatencyHistogram",
    "LineClient",
    "NetworkServer",
    "Overloaded",
    "RetryingClient",
    "ServerMetrics",
    "ShardedScheduler",
    "SingleFlight",
    "TCPServer",
    "TransportError",
    "request_key",
]
