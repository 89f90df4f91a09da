"""Synchronous JSON-lines TCP clients: bare connection + retrying wrapper.

The protocol needs nothing beyond a socket and ``json`` —
:class:`LineClient` exists so tests, the load harness, and examples do
not each reimplement line framing.  One ``request()`` is one round trip;
the server answers in order, so pipelining via ``send`` + ``recv`` also
works on a single connection.

:class:`RetryingClient` layers availability on top: jittered exponential
backoff on ``Overloaded`` responses and on connection/transport
failures (reconnecting between attempts), an attempt budget so a dead
server fails fast instead of forever, and quota-aware waits (it parses
the ``QuotaExceeded`` message's retry hint — the TCP transport's
equivalent of HTTP's ``Retry-After`` header).
"""

from __future__ import annotations

import json
import random
import re
import socket
import time
from typing import Any

from repro.common.errors import TransportError
from repro.service.serve import wire_line

#: Error types worth retrying on a fresh attempt: transient server-side
#: pushback, not caller mistakes (a SchemaError retried is still a
#: SchemaError).
RETRYABLE_ERROR_TYPES = frozenset({"Overloaded"})

#: The QuotaExceeded message's machine-readable wait hint (see
#: repro.web.quota.QuotaService.charge).
_RETRY_HINT = re.compile(r"retry in ([0-9.]+)s")


class LineClient:
    """One TCP connection speaking newline-delimited JSON requests.

    After a socket timeout or OS-level send/receive failure the line
    framing is undefined (a half-read response may sit in the buffer),
    so the client closes the connection and raises
    :class:`~repro.common.errors.TransportError`; every later call
    fails the same way.  Callers retry on a *fresh* connection
    (:class:`RetryingClient` automates exactly that).
    """

    def __init__(
        self, host: str, port: int, timeout: float | None = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._broken: str | None = None

    def _check_usable(self) -> None:
        if self._broken is not None:
            raise TransportError(
                "connection already failed (%s); open a new client"
                % self._broken
            )

    def _mark_broken(self, reason: str) -> TransportError:
        self._broken = reason
        self.close()
        return TransportError(
            "connection closed after %s; line framing would be undefined "
            "— retry on a fresh connection" % reason
        )

    def send(self, payload: dict[str, Any]) -> None:
        self.send_raw(wire_line(payload))

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes (tests use this for hostile framing)."""
        self._check_usable()
        try:
            self._file.write(data)
            self._file.flush()
        except TimeoutError:
            raise self._mark_broken("a send timeout") from None
        except OSError as error:
            raise self._mark_broken("a send failure (%s)" % error) from None

    def recv(self) -> dict[str, Any] | None:
        """Next response object, or None on clean EOF from the server."""
        self._check_usable()
        try:
            line = self._file.readline()
        except TimeoutError:
            # socket.timeout is an alias of TimeoutError since 3.10.
            raise self._mark_broken("a receive timeout") from None
        except OSError as error:
            raise self._mark_broken(
                "a receive failure (%s)" % error
            ) from None
        if not line:
            return None
        return json.loads(line)

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.send(payload)
        response = self.recv()
        if response is None:
            raise ConnectionError("server closed the connection mid-request")
        return response

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RetryingClient:
    """A :class:`LineClient` wrapper that retries transient failures.

    Parameters
    ----------
    host / port / timeout:
        Passed to each underlying :class:`LineClient` (a fresh
        connection is opened lazily and after any transport failure).
    attempts:
        Total tries per ``request()`` — the attempt budget.  When it
        runs out the last server error response is returned as-is, or
        the last connection failure is re-raised.
    base_delay / max_delay:
        Jittered exponential backoff: attempt *i* sleeps
        ``uniform(0, min(max_delay, base_delay * 2**i))`` (full jitter —
        retries from many clients decorrelate instead of thundering).
        A ``QuotaExceeded`` response with a parsable ``retry in X s``
        hint sleeps ``min(X, max_delay)`` instead.
    retry_quota:
        Also retry ``QuotaExceeded`` responses (honoring the hint).
        Off by default: a drained bucket usually outlives a backoff
        window, so returning the typed error is the safer default.
    rng:
        Injectable :class:`random.Random` for deterministic tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 60.0,
        attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        retry_quota: bool = False,
        rng: random.Random | None = None,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1, got %d" % attempts)
        self._host = host
        self._port = port
        self._timeout = timeout
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.retry_quota = retry_quota
        self._rng = rng if rng is not None else random.Random()
        self._client: LineClient | None = None
        self.retries = 0
        self.reconnects = 0

    def _connected(self) -> LineClient:
        if self._client is None:
            self._client = LineClient(
                self._host, self._port, timeout=self._timeout
            )
        return self._client

    def _drop_connection(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None
            self.reconnects += 1

    def _backoff(self, attempt: int, hint: float | None = None) -> None:
        if hint is not None:
            delay = min(hint, self.max_delay)
        else:
            delay = self._rng.uniform(
                0.0, min(self.max_delay, self.base_delay * (2 ** attempt))
            )
        if delay > 0:
            time.sleep(delay)

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One logical request; retries ride inside.

        Returns the first non-retryable response (success *or* typed
        error — a ``SchemaError`` is the caller's bug, not transience).
        Connection and transport failures reconnect and retry; when the
        attempt budget is exhausted the last failure is re-raised (or
        the last retryable error response returned).
        """
        last_error: Exception | None = None
        last_response: dict[str, Any] | None = None
        for attempt in range(self.attempts):
            if attempt:
                self.retries += 1
            try:
                response = self._connected().request(payload)
            except (TransportError, ConnectionError, OSError) as error:
                last_error = error
                last_response = None
                self._drop_connection()
                self._backoff(attempt)
                continue
            if response.get("kind") != "error":
                return response
            error_type = response.get("error_type")
            if error_type in RETRYABLE_ERROR_TYPES:
                last_error = None
                last_response = response
                self._backoff(attempt)
                continue
            if error_type == "QuotaExceeded" and self.retry_quota:
                last_error = None
                last_response = response
                hint = _RETRY_HINT.search(response.get("message", ""))
                self._backoff(
                    attempt, hint=float(hint.group(1)) if hint else None
                )
                continue
            return response
        if last_response is not None:
            return last_response
        assert last_error is not None
        raise last_error

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def __enter__(self) -> "RetryingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
