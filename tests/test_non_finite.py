"""Answer values that are not finite numbers are typed errors everywhere.

NaN and the infinities have no JSON spelling (RFC 8259), and NaN has no
rank, so an answer set refuses them; an aggregate target that is not a
number is refused by name.  Each case answers a typed error at
``repro-summarize`` (exit 2), at ``load_csv`` over stdio (the loop goes
on) and over TCP (the same connection answers), and an ``append_rows``
batch carrying NaN is refused without bumping the dataset version.
Every response read here must be strict JSON.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import EXIT_PARAM_ERROR, main, serve_main
from repro.server import BackgroundServer, LineClient, TCPServer
from repro.service import Engine
from repro.service.serve import Dispatcher
from tests.conftest import paper_like_answers

pytestmark = pytest.mark.tier1

BIG = "9" * 400
SQL = "SELECT g, SUM(h) AS val FROM {stem} GROUP BY g"

#: (file stem, CSV content, SQL or None, the error message).
CASES = [
    ("inf", "g,val\na,inf\nb,2\n", None,
     "answer values must be finite numbers; got inf"),
    ("nan", "g,val\na,nan\nb,2\n", None,
     "answer values must be finite numbers; got nan"),
    ("bigval", "g,val\na,%s\nb,2\n" % BIG, None,
     "answer values must be finite numbers; got inf"),
    ("text", "g,h\na,x\nb,2\n", SQL,
     "aggregate target column 'h' must be numeric; got 'x'"),
    ("empty", "g,h\na,\nb,2\n", SQL,
     "aggregate target column 'h' must be numeric; got None"),
    ("bigint", "g,h\na,%s\nb,2\n" % BIG, SQL,
     "aggregate target column 'h' must be numeric; got "
     "999999999999999999...9999999999999999999"),
    ("overflow", "g,h\na,1e308\na,1e308\nb,2\n", SQL,
     "sum(h) of group ('a',) is past the float range"),
]
IDS = [case[0] for case in CASES]


def strict(response: dict) -> dict:
    """*response*, after checking it encodes as RFC 8259 JSON."""
    json.dumps(response, allow_nan=False)
    return response


def load_request(path, sql) -> dict:
    request = {"kind": "load_csv", "path": str(path)}
    if sql is not None:
        request["sql"] = sql.format(stem=path.stem)
    return request


def write(tmp_path, stem, content):
    path = tmp_path / (stem + ".csv")
    path.write_text(content)
    return path


@pytest.mark.parametrize("stem,content,sql,message", CASES, ids=IDS)
def test_repro_summarize_exits_2(tmp_path, capsys, stem, content, sql,
                                 message):
    path = write(tmp_path, stem, content)
    argv = [str(path), "-k", "1", "-L", "1", "-D", "0", "--json"]
    if sql is not None:
        argv += ["--sql", sql.format(stem=stem)]
    assert main(argv) == EXIT_PARAM_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("stem,content,sql,message", CASES, ids=IDS)
def test_load_csv_on_stdio_answers_and_goes_on(tmp_path, capsys,
                                               monkeypatch, stem, content,
                                               sql, message):
    path = write(tmp_path, stem, content)
    lines = [json.dumps(load_request(path, sql)), '{"kind": "ping"}']
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(("\n".join(lines) + "\n").encode())
    ))
    assert serve_main([]) == 0
    banner, error, pong = [
        strict(json.loads(line))
        for line in capsys.readouterr().out.splitlines()
    ]
    assert banner["kind"] == "ready"
    assert (error["kind"], error["error_type"], error["message"]) == (
        "error", "SchemaError", message
    )
    assert pong["kind"] == "pong"


def test_load_csv_over_tcp_answers_on_the_same_connection(tmp_path):
    with BackgroundServer(TCPServer(Engine(), shards=1)) as handle:
        with LineClient(handle.host, handle.port, timeout=15) as client:
            for stem, content, sql, message in CASES:
                path = write(tmp_path, stem, content)
                error = strict(client.request(load_request(path, sql)))
                assert (error["error_type"], error["message"]) == (
                    "SchemaError", message
                ), stem
            assert strict(client.request({"kind": "ping"}))["kind"] == "pong"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
def test_append_rows_refuses_a_non_finite_value(value):
    engine = Engine()
    engine.register_dataset("paper", paper_like_answers())
    dispatcher = Dispatcher(engine)
    summary = {"schema_version": 2, "kind": "summary", "dataset": "paper",
               "k": 2, "L": 4, "D": 1}
    before = strict(dispatcher.dispatch_payload(dict(summary)).response)
    # JSON's NaN and Infinity tokens parse to the floats sent here.
    line = json.dumps({
        "kind": "append_rows", "dataset": "paper",
        "rows": [["2000s", "poet"], ["2000s", "critic"]],
        "values": [1.0, value],
    }).encode()
    response = strict(dispatcher.dispatch_line(line).response)
    assert (response["kind"], response["error_type"]) == (
        "error", "SchemaError"
    )
    assert response["message"].startswith(
        "answer values must be finite numbers; got "
    )
    assert engine.dataset_version("paper") == 0
    assert engine.dataset("paper").n == paper_like_answers().n
    after = strict(dispatcher.dispatch_payload(dict(summary)).response)
    assert after["objective"] == before["objective"]
