"""Command-line interface: summarize aggregate answers from a CSV.

The paper ships a web GUI; the library's equivalent entry points are CLIs::

    repro-summarize data.csv \\
        --sql "SELECT a, b, avg(x) AS val FROM data GROUP BY a, b" \\
        -k 4 -L 8 -D 2 [--algorithm hybrid] [--expand] [--guidance] [--json]

    repro-serve [preload.csv ...]                 # JSON-lines on stdin
    repro-serve --tcp 0.0.0.0:9037 [preload.csv]  # concurrent TCP server
    repro-serve --http 0.0.0.0:8080 \\
        --auth-tokens tokens.txt --quota 60/60    # multi-tenant HTTP

``--sql`` runs the restricted aggregate template against the loaded CSV
(the FROM name must match the file stem or --name); without it, the CSV is
taken to *be* the answer set: every column but the last is a grouping
attribute, the last column is the value.

Both commands sit on :mod:`repro.service`: ``--json`` emits the same
schema-versioned wire format the engine speaks, and ``repro-serve`` is the
:func:`repro.service.serve.serve` loop over stdin/stdout — or, with
``--tcp HOST:PORT``, the concurrent :class:`repro.server.tcp.TCPServer`
(sharded workers, single-flight coalescing, bounded queues) speaking the
identical protocol to many clients at once.

Exit codes: 0 success, 2 parameter/query errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.common.errors import ReproError
from repro.core.answers import AnswerSet
from repro.core.bitset import (
    DEFAULT_KERNEL,
    DENSE_AUTO_THRESHOLD,
    KERNEL_CHOICES,
)
from repro.core.merge import ARGMAX_MODES, AUTO_ARGMAX
from repro.core.registry import algorithm_names, get_algorithm
from repro.query.csv_io import CodeColumns, read_csv
from repro.query.sql import execute_sql
from repro.service.api import (
    SCHEMA_VERSION,
    GuidanceRequest,
    SummaryRequest,
)
from repro.service.engine import Engine
from repro.service.serve import Dispatcher, serve, wire_line

#: Parameter, schema, or query errors — the request itself was wrong.
EXIT_PARAM_ERROR = 2
#: The request was fine but reading/writing data failed.
EXIT_IO_ERROR = 3


def _version() -> str:
    from repro import __version__

    return "%(prog)s " + __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-summarize",
        description="Summarize top aggregate query answers as k diverse "
        "clusters covering the top-L (VLDB 2018 reproduction).",
    )
    parser.add_argument("--version", action="version", version=_version())
    parser.add_argument("csv", type=Path, help="input CSV file")
    parser.add_argument(
        "--sql",
        help="aggregate query to run first (restricted template); without "
        "it the CSV's last column is treated as the value",
    )
    parser.add_argument("--name", help="relation name (default: file stem)")
    parser.add_argument("-k", type=int, required=True,
                        help="maximum number of clusters")
    parser.add_argument("-L", type=int, required=True,
                        help="top-L coverage requirement")
    parser.add_argument("-D", type=int, required=True,
                        help="minimum pairwise cluster distance")
    parser.add_argument(
        "--algorithm", default="hybrid", choices=algorithm_names(),
        help="algorithm (default: hybrid)",
    )
    parser.add_argument(
        "--kernel", default=DEFAULT_KERNEL, choices=list(KERNEL_CHOICES),
        help="mask kernel: 'bitset' (int bitmasks, default), 'dense' "
        "(packed uint64 blocks, numpy-vectorized — built for very large "
        "n), or 'auto' (dense from %d answers up, else bitset); without "
        "numpy, 'dense' and 'auto' run bitset" % DENSE_AUTO_THRESHOLD,
    )
    parser.add_argument(
        "--argmax", default=AUTO_ARGMAX, choices=list(ARGMAX_MODES),
        help="greedy merge argmax: 'auto' (default; lazy upper-bound heap "
        "whenever sound), 'heap', or 'scan' (exhaustive LCA-group scan, "
        "the ablation baseline)",
    )
    parser.add_argument("--expand", action="store_true",
                        help="also print the covered elements (layer 2)")
    parser.add_argument(
        "--guidance", action="store_true",
        help="print the parameter-guidance view around the chosen k and D",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the service wire format (one JSON object per response) "
        "instead of text",
    )
    return parser


def _answers_from_csv(
    csv_path: Path, sql: str | None, name: str | None
) -> tuple[str, AnswerSet]:
    """Load a CSV into a (dataset name, AnswerSet) pair: through a typed
    relation with *sql*, else straight into code columns."""
    if sql:
        relation = read_csv(csv_path, name=name)
        return relation.name, execute_sql(sql, relation).to_answer_set()
    table = CodeColumns(csv_path, name)
    if len(table.columns) < 2:
        raise ReproError(
            "without --sql the CSV needs grouping columns plus a value "
            "column"
        )
    return table.name, table.answer_set()


def _describe_response(response, expand_all: bool = False) -> str:
    """Render a SummaryResponse like Figure 1b (or 1c with *expand_all*)."""
    lines = []
    for cluster in response.clusters:
        rendered = ", ".join(str(v) for v in cluster.pattern)
        lines.append(
            "(%s)  avg=%.4f  [%d elements]"
            % (rendered, cluster.avg, cluster.size)
        )
        if expand_all:
            for row in cluster.elements:
                rendered_row = ", ".join(str(v) for v in row.values)
                lines.append(
                    "    rank %3d: (%s)  val=%.4f"
                    % (row.rank, rendered_row, row.value)
                )
    return "\n".join(lines)


def _print_text_summary(args, answers, response) -> None:
    print(
        "n=%d answers; %d clusters (k=%d, L=%d, D=%d, %s); "
        "avg(O)=%.4f  [init %.0f ms, algo %.0f ms]"
        % (
            answers.n, response.solution_size, response.k, response.L,
            response.D, response.algorithm, response.objective,
            response.init_seconds * 1e3, response.algo_seconds * 1e3,
        )
    )
    print(_describe_response(response, expand_all=args.expand))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        dataset, answers = _answers_from_csv(args.csv, args.sql, args.name)
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_IO_ERROR
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_PARAM_ERROR
    try:
        engine = Engine()
        engine.register_dataset(dataset, answers)
        L = min(args.L, answers.n)
        supported = get_algorithm(args.algorithm).kwargs
        # Every algorithm runs on the pool --kernel picks.
        options = {"kernel": args.kernel}
        if "argmax" in supported:
            options["argmax"] = args.argmax
        elif args.argmax != AUTO_ARGMAX:
            print(
                "warning: --argmax %s ignored; algorithm %r has no "
                "group-argmax path" % (args.argmax, args.algorithm),
                file=sys.stderr,
            )
        request = SummaryRequest(
            dataset=dataset,
            k=args.k,
            L=L,
            D=args.D,
            algorithm=args.algorithm,
            options=options,
            include_elements=args.expand or args.json,
        )
        response = engine.submit(request)
        if args.json:
            print(response.to_json())
        else:
            _print_text_summary(args, answers, response)
        if args.guidance:
            k_lo = max(2, args.k - 4)
            k_hi = min(answers.n, args.k + 4)
            d_values = sorted({max(0, args.D - 1), args.D, args.D + 1})
            d_values = [d for d in d_values if d <= answers.m]
            if args.json:
                guidance = engine.submit(
                    GuidanceRequest(
                        dataset=dataset, L=L, k_range=(k_lo, k_hi),
                        d_values=tuple(d_values), kernel=args.kernel,
                    )
                )
                print(guidance.to_json())
            else:
                from repro.interactive.guidance import build_guidance_view

                store, _, _ = engine.checkout_store(
                    dataset, L, (k_lo, k_hi), d_values, kernel=args.kernel
                )
                view = build_guidance_view(store)
                print()
                print(view.render_ascii(width=48, height=10))
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_PARAM_ERROR
    return 0


# -- repro-serve ----------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.server.scheduler import DEFAULT_QUEUE_DEPTH, DEFAULT_SHARDS
    from repro.service.serve import DEFAULT_MAX_LINE_BYTES

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve summarization requests as JSON lines: one "
        "request object per line, one response per line — over "
        "stdin/stdout by default, or over TCP to many concurrent clients "
        "with --tcp HOST:PORT.",
    )
    parser.add_argument("--version", action="version", version=_version())
    parser.add_argument(
        "csv", nargs="*", type=Path,
        help="CSV files to preload as datasets (named by file stem; last "
        "column is the value)",
    )
    parser.add_argument(
        "--tcp", metavar="HOST:PORT",
        help="serve the same JSON-lines protocol over TCP (port 0 binds an "
        "ephemeral port, reported in the ready banner) instead of stdio",
    )
    parser.add_argument(
        "--http", metavar="HOST:PORT",
        help="serve the HTTP/JSON front door (routes /healthz /metrics "
        "/v2/summary|explore|guidance /v2/admin/* /v2/sessions/*; port 0 "
        "binds an ephemeral port).  May be combined with --tcp: the TCP "
        "server then runs on a background thread",
    )
    parser.add_argument(
        "--auth-tokens", metavar="FILE", type=Path,
        help="require bearer-token auth on every transport; FILE holds one "
        "'user:token' per line ('#' comments).  Without it the server is "
        "open (single-tenant backward-compatible mode)",
    )
    parser.add_argument(
        "--quota", metavar="CAPACITY/WINDOW_SECONDS",
        help="per-user token-bucket quota on the analytical kinds, e.g. "
        "60/60 = 60 requests per user per minute; buckets refill at "
        "window boundaries.  Exhaustion answers error_type=QuotaExceeded "
        "(HTTP 429)",
    )
    parser.add_argument(
        "--session-dir", metavar="DIR", type=Path,
        help="HTTP mode: directory for durable named sessions (default: a "
        "fresh temp dir — sessions then do not survive a restart)",
    )
    parser.add_argument(
        "--data-dir", metavar="DIR", type=Path,
        help="make appends durable: write-ahead-log every append_rows "
        "batch under DIR (one snapshot + WAL per dataset) and replay "
        "them at boot, so a crashed or restarted server comes back "
        "bit-identical.  Without it the engine is purely in-memory",
    )
    parser.add_argument(
        "--fsync", default="always", choices=["always", "batch", "never"],
        help="WAL fsync policy with --data-dir: 'always' fsyncs every "
        "acked append (default), 'batch' amortizes over %d records, "
        "'never' leaves it to the OS page cache (drain still fsyncs)"
        % _batch_fsync_every(),
    )
    parser.add_argument(
        "--request-timeout", type=float, metavar="SECONDS",
        help="default deadline for analytical requests on every transport; "
        "work past it is abandoned at the next kernel checkpoint and "
        "answered with error_type=DeadlineExceeded (HTTP 504).  Requests "
        "may override per call with the deadline_ms envelope field.  "
        "Unset: no default deadline",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=5.0,
        help="seconds a server-scope shutdown waits for in-flight shard "
        "queues to drain before tearing connections down "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--shards", type=int, default=DEFAULT_SHARDS,
        help="TCP mode: per-dataset worker shards, one worker thread "
        "each (default %(default)s)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
        help="TCP mode: bounded per-shard queue; beyond it requests are "
        "answered with error_type=Overloaded (default %(default)s)",
    )
    parser.add_argument(
        "--max-line-bytes", type=int, default=DEFAULT_MAX_LINE_BYTES,
        help="reject request lines longer than this with "
        "error_type=LineTooLong (default %(default)s)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="arm end-to-end request tracing: every analytical request "
        "builds a span tree (queue wait, compute, engine phases) kept in "
        "a bounded in-memory ring buffer served by the 'trace' admin "
        "kind / GET /v2/admin/trace; requests may opt into an inline "
        "copy with the 'trace': true envelope field.  Off by default "
        "(zero overhead beyond one flag check)",
    )
    parser.add_argument(
        "--log-json", metavar="FILE", nargs="?", const="-",
        help="emit one structured JSON log line per completed request "
        "plus lifecycle events (worker restarts, quarantines, drains) to "
        "FILE (append mode), or to stderr when the flag is bare or FILE "
        "is '-'.  Implies --trace",
    )
    parser.add_argument(
        "--trace-buffer", type=int, metavar="N",
        help="ring-buffer capacity for the N most recent and N slowest "
        "retained traces (default %d)" % _default_trace_buffer(),
    )
    return parser


def _default_trace_buffer() -> int:
    from repro.obs import registry

    return registry.DEFAULT_TRACE_BUFFER


def _batch_fsync_every() -> int:
    from repro.durability.wal import BATCH_FSYNC_EVERY

    return BATCH_FSYNC_EVERY


def _parse_host_port(value: str, flag: str = "--tcp") -> tuple[str, int]:
    host, _, port_text = value.rpartition(":")
    if not host or not port_text:
        raise ReproError(
            "%s expects HOST:PORT, got %r" % (flag, value)
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            "%s port must be an integer, got %r" % (flag, port_text)
        ) from None
    return host, port


def _print_line(payload: dict) -> None:
    """Write one wire line (a ready banner) to stdout's byte stream."""
    sys.stdout.buffer.write(wire_line(payload))
    sys.stdout.buffer.flush()


def serve_main(argv: list[str] | None = None) -> int:
    from repro.server.lifecycle import ServerLifecycle

    args = build_serve_parser().parse_args(argv)
    lifecycle = ServerLifecycle()
    durability = None
    try:
        tcp = _parse_host_port(args.tcp, "--tcp") if args.tcp else None
        http = _parse_host_port(args.http, "--http") if args.http else None
        auth = quota = None
        if args.auth_tokens is not None:
            from repro.web.auth import AuthService

            auth = AuthService.from_file(args.auth_tokens)
        if args.quota is not None:
            from repro.web.quota import QuotaService, parse_quota_spec

            capacity, window = parse_quota_spec(args.quota)
            quota = QuotaService(capacity, window)
        deadline_ms = None
        if args.request_timeout is not None:
            if args.request_timeout <= 0:
                raise ReproError(
                    "--request-timeout must be positive, got %g"
                    % args.request_timeout
                )
            deadline_ms = args.request_timeout * 1000.0
        telemetry = None
        if args.trace or args.log_json is not None \
                or args.trace_buffer is not None:
            from repro.obs import StructuredLogger, Telemetry, open_log_sink

            if args.trace_buffer is not None and args.trace_buffer <= 0:
                raise ReproError(
                    "--trace-buffer must be positive, got %d"
                    % args.trace_buffer
                )
            logger = None
            if args.log_json is not None:
                logger = StructuredLogger(open_log_sink(args.log_json))
            telemetry = Telemetry(
                tracing=True,
                trace_buffer=(
                    args.trace_buffer if args.trace_buffer is not None
                    else _default_trace_buffer()
                ),
                logger=logger,
            )
        if args.data_dir is not None:
            from repro.durability import DurabilityManager

            durability = DurabilityManager(
                str(args.data_dir), fsync=args.fsync
            )
        engine = Engine(durability=durability)
        recovered: set[str] = set()
        if durability is not None:
            # Boot-time recovery: snapshot + WAL replay through the
            # engine's own register/append path, then open for traffic.
            lifecycle.to_recovering()
            summary = durability.recover(engine)
            recovered = set(engine.dataset_names())
            if telemetry is not None:
                telemetry.event(
                    "recovery",
                    datasets=len(summary["datasets"]),
                    records=sum(
                        item["records"] for item in summary["datasets"]
                    ),
                    wal_truncated=summary["wal_truncated"],
                    seconds=summary["recovery_seconds"],
                )
        for csv_path in args.csv:
            dataset, answers = _answers_from_csv(csv_path, None, None)
            if dataset in recovered:
                # The recovered state already contains this dataset plus
                # every durably-acked append; the CSV on disk is older.
                continue
            engine.register_dataset(dataset, answers)
        lifecycle.to_ready()
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_IO_ERROR
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_PARAM_ERROR
    if tcp is not None or http is not None:
        from repro.server.network import BackgroundServer

        # Each transport builds its own serving stack over the shared
        # engine; the services below are shared, so the quota budget
        # spans both transports.
        options = dict(
            shards=args.shards,
            queue_depth=args.queue_depth,
            auth=auth,
            quota=quota,
            drain_timeout=args.drain_timeout,
            default_deadline_ms=deadline_ms,
            telemetry=telemetry,
            durability=durability,
            lifecycle=lifecycle,
        )

        def _announce(server) -> None:
            _print_line(server.ready_banner())

        background = None
        try:
            if tcp is not None:
                from repro.server.tcp import TCPServer

                tcp_server = TCPServer(
                    engine, *tcp, max_line_bytes=args.max_line_bytes,
                    **options,
                )
            if http is None:
                tcp_server.serve(ready=_announce)
            else:
                from repro.web.http import WebServer

                web = WebServer(
                    engine, *http, max_body_bytes=args.max_line_bytes,
                    session_dir=(
                        str(args.session_dir) if args.session_dir else None
                    ),
                    **options,
                )
                if tcp is not None:
                    # HTTP is the foreground transport; TCP rides on a
                    # daemon thread.
                    background = BackgroundServer(tcp_server)
                    try:
                        background.start()
                    except RuntimeError as error:
                        # The bind failure itself, as with --tcp alone.
                        raise error.__cause__ from None
                    _announce(tcp_server)
                web.serve(ready=_announce)
        except KeyboardInterrupt:
            pass
        except OSError as error:  # bind failure: port in use, privileged...
            print("error: %s" % error, file=sys.stderr)
            return EXIT_IO_ERROR
        except (ReproError, ValueError) as error:  # bad knob values
            print("error: %s" % error, file=sys.stderr)
            return EXIT_PARAM_ERROR
        finally:
            if background is not None:
                background.stop()
        return 0
    _print_line({
        "schema_version": SCHEMA_VERSION,
        "kind": "ready",
        "datasets": engine.dataset_names(),
    })
    dispatcher = Dispatcher(
        engine, max_line_bytes=args.max_line_bytes, auth=auth, quota=quota,
        default_deadline_ms=deadline_ms, telemetry=telemetry,
        durability=durability, lifecycle=lifecycle,
    )
    try:
        serve(sys.stdin.buffer, sys.stdout.buffer, dispatcher=dispatcher)
    finally:
        if durability is not None:
            lifecycle.to_draining()
            durability.seal()
    return 0


if __name__ == "__main__":
    sys.exit(main())
