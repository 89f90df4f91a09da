"""Tests for CSV IO and the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import (
    EXIT_IO_ERROR,
    EXIT_PARAM_ERROR,
    build_parser,
    main,
    serve_main,
)
from repro.common.errors import SchemaError
from repro.query.csv_io import infer_column_type, read_csv, write_csv
from repro.query.relation import Relation
from repro.service.api import SummaryResponse, parse_response


class TestTypeInference:
    def test_int_column(self):
        assert infer_column_type(["1", "2", "30"]) == "int"

    def test_float_column(self):
        assert infer_column_type(["1.5", "2", "3.25"]) == "float"

    def test_string_column(self):
        assert infer_column_type(["a", "2", "3"]) == "str"

    def test_empty_values_ignored(self):
        assert infer_column_type(["", "7", ""]) == "int"

    def test_all_empty_is_str(self):
        assert infer_column_type(["", ""]) == "str"


class TestCsvRoundtrip:
    def test_read_types(self):
        source = io.StringIO("name,age,score\nann,31,4.5\nbob,45,3.25\n")
        relation = read_csv(source, name="people")
        assert relation.rows == [("ann", 31, 4.5), ("bob", 45, 3.25)]

    def test_missing_header_rejected(self):
        with pytest.raises(SchemaError):
            read_csv(io.StringIO(""))

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError):
            read_csv(io.StringIO("a,b\n1\n"))

    def test_roundtrip_through_file(self, tmp_path):
        relation = Relation("r", ("x", "y"), [(1, "a"), (2, "b")])
        path = tmp_path / "r.csv"
        write_csv(relation, path)
        loaded = read_csv(path)
        assert loaded.rows == relation.rows
        assert loaded.columns == relation.columns
        assert loaded.name == "r"

    def test_none_written_as_empty(self):
        relation = Relation("r", ("x",), [(None,), (3,)])
        buffer = io.StringIO()
        write_csv(relation, buffer)
        # The csv module quotes a lone empty field ('""') to keep the
        # row distinguishable from a blank line.
        assert buffer.getvalue().splitlines()[1] in ('', '""')


@pytest.fixture
def answers_csv(tmp_path):
    path = tmp_path / "answers.csv"
    rows = ["era,group,val"]
    values = [("1970s", "student", 4.5), ("1970s", "educator", 4.2),
              ("1980s", "student", 4.0), ("1980s", "engineer", 3.9),
              ("1990s", "student", 2.5), ("1990s", "writer", 2.2),
              ("1990s", "artist", 2.0), ("1980s", "artist", 3.0)]
    rows += ["%s,%s,%s" % r for r in values]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def raw_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    # "group" is a reserved word in the SQL template (as in real SQL),
    # so the column is named grp.
    lines = ["era,grp,rating"]
    for era, group, rating in [
        ("1970s", "student", 5), ("1970s", "student", 4),
        ("1980s", "student", 4), ("1980s", "student", 4),
        ("1990s", "writer", 2), ("1990s", "writer", 3),
        ("1990s", "artist", 2), ("1990s", "artist", 3),
    ]:
        lines.append("%s,%s,%d" % (era, group, rating))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCli:
    def test_answers_mode(self, answers_csv, capsys):
        code = main([str(answers_csv), "-k", "3", "-L", "4", "-D", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "avg(O)=" in captured.out

    def test_sql_mode(self, raw_csv, capsys):
        code = main([
            str(raw_csv),
            "--sql",
            "SELECT era, grp, avg(rating) AS val FROM ratings "
            "GROUP BY era, grp",
            "-k", "2", "-L", "3", "-D", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "clusters" in captured.out

    def test_expand_flag(self, answers_csv, capsys):
        main([str(answers_csv), "-k", "3", "-L", "4", "-D", "1", "--expand"])
        assert "rank" in capsys.readouterr().out

    def test_guidance_flag(self, answers_csv, capsys):
        code = main([
            str(answers_csv), "-k", "3", "-L", "4", "-D", "1", "--guidance"
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "legend:" in captured.out

    def test_bad_sql_reports_error(self, raw_csv, capsys):
        code = main([
            str(raw_csv), "--sql", "SELECT nonsense", "-k", "2", "-L", "2",
            "-D", "0",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_single_column_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("x\n1\n2\n")
        code = main([str(path), "-k", "1", "-L", "1", "-D", "0"])
        assert code == 2

    def test_non_numeric_value_column_is_param_error(self, tmp_path, capsys):
        path = tmp_path / "text.csv"
        path.write_text("era,val\n1970s,high\n1980s,low\n")
        code = main([str(path), "-k", "1", "-L", "1", "-D", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "numeric" in captured.err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main([
            str(tmp_path / "nope.csv"), "-k", "1", "-L", "1", "-D", "0"
        ])
        captured = capsys.readouterr()
        assert code == EXIT_IO_ERROR
        assert "error:" in captured.err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_python_kernel_exits_2(self, answers_csv, capsys):
        """``--kernel python`` (removed in 4.0.0) is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main([str(answers_csv), "-k", "3", "-L", "4", "-D", "1",
                  "--kernel", "python"])
        assert excinfo.value.code == EXIT_PARAM_ERROR == 2
        assert "python" in capsys.readouterr().err

    def test_kernel_applies_to_every_algorithm(self, answers_csv, capsys):
        """``--kernel`` picks the pool for every algorithm, lower-bound
        included: no "--kernel ignored" warning, and the response
        reports the pool's kernel."""
        from repro.core.bitset import resolve_kernel

        code = main([str(answers_csv), "-k", "3", "-L", "4", "-D", "1",
                     "--algorithm", "lower-bound", "--kernel", "dense",
                     "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        response = json.loads(captured.out)
        assert response["kernel"] == resolve_kernel("dense")

    def test_algorithm_choices_come_from_registry(self):
        from repro.core.registry import algorithm_names

        parser = build_parser()
        (action,) = [
            a for a in parser._actions if a.dest == "algorithm"
        ]
        assert list(action.choices) == algorithm_names()

    def test_json_output_is_wire_schema(self, answers_csv, capsys):
        code = main([
            str(answers_csv), "-k", "3", "-L", "4", "-D", "1", "--json"
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        response = parse_response(payload)
        assert isinstance(response, SummaryResponse)
        assert payload["schema_version"] == 2
        assert payload["solution_size"] == len(payload["clusters"])

    def test_json_matches_engine_wire_schema(self, answers_csv, capsys):
        """repro-summarize --json emits the same schema Engine.submit does."""
        main([str(answers_csv), "-k", "3", "-L", "4", "-D", "1", "--json"])
        cli_payload = json.loads(capsys.readouterr().out)

        from repro.query.csv_io import answer_set_from_relation
        from repro.service import Engine, SummaryRequest

        answers = answer_set_from_relation(read_csv(answers_csv))
        engine = Engine()
        engine.register_dataset("answers", answers)
        engine_payload = engine.submit(
            SummaryRequest(dataset="answers", k=3, L=4, D=1,
                           include_elements=True)
        ).to_dict()
        assert set(cli_payload) == set(engine_payload)
        for key in ("clusters", "objective", "solution_size", "k", "L", "D"):
            assert json.loads(json.dumps(cli_payload[key])) == json.loads(
                json.dumps(engine_payload[key])
            )

    def test_json_guidance_emits_second_object(self, answers_csv, capsys):
        code = main([
            str(answers_csv), "-k", "3", "-L", "4", "-D", "1", "--json",
            "--guidance",
        ])
        captured = capsys.readouterr()
        assert code == 0
        first, second = captured.out.splitlines()
        assert json.loads(first)["kind"] == "summary_response"
        assert json.loads(second)["kind"] == "guidance_response"


class TestServeCli:
    def test_serve_main_preloads_and_answers(self, answers_csv, capsys,
                                             monkeypatch):
        request = {
            "schema_version": 2, "kind": "summary",
            "dataset": answers_csv.stem, "k": 3, "L": 4, "D": 1,
        }
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO((json.dumps(request) + "\n").encode())
        ))
        code = serve_main([str(answers_csv)])
        captured = capsys.readouterr()
        assert code == 0
        banner, response = [
            json.loads(line) for line in captured.out.splitlines()
        ]
        assert banner["kind"] == "ready"
        assert banner["datasets"] == [answers_csv.stem]
        assert response["kind"] == "summary_response"

    def test_serve_main_missing_preload_is_io_error(self, tmp_path, capsys):
        code = serve_main([str(tmp_path / "nope.csv")])
        assert code == EXIT_IO_ERROR
