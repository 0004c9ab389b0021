import ast
import csv
import pathlib
import re

import numpy as np
import pytest

from wingcp.errors import SampleParseError
from wingcp.files import read_json, read_rows, read_text, write_json, write_rows

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "wingcp"

# the calls that decide how a text file is written or parsed
FORMAT_CALLS = {"json": {"load", "loads", "dump"}, "csv": {"reader", "writer"}}
# (module, top-level function, call) outside files.py that may decide a text format: none
ALLOWED = set()


def _format_uses(source: str):
    """(top-level function or class, call) for each FORMAT_CALLS use and json/csv import by name."""
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.attr in FORMAT_CALLS.get(node.value.id, ())
            ):
                yield owner, f"{node.value.id}.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module in FORMAT_CALLS:
                yield owner, f"from {node.module} import"
            elif isinstance(node, ast.Import) and any(
                a.name in FORMAT_CALLS and a.asname for a in node.names
            ):
                yield owner, "import as"


def _at(path):
    """A pattern matching ``path`` as an error message names it."""
    return re.escape(str(path))


class TestOneModuleForTextFormats:
    def test_no_other_module_reads_or_writes_json_or_csv(self):
        found = {
            (path.name, owner, call)
            for path in SRC.glob("*.py")
            if path.name != "files.py"
            for owner, call in _format_uses(path.read_text())
        }
        assert found == ALLOWED

    def test_the_check_sees_files_py(self):
        calls = {call for _, call in _format_uses((SRC / "files.py").read_text())}
        assert calls == {"json.loads", "json.dump", "csv.reader", "csv.writer"}

    @pytest.mark.parametrize(
        "line",
        ["    json.load(fh)", "    csv.writer(fh)", "    from json import loads", "    import csv as c"],
    )
    def test_the_check_sees_a_new_use(self, line):
        assert list(_format_uses(f"def f(fh):\n{line}\n")) != []


class TestWriteRows:
    def test_floats_get_17_digits_other_cells_as_csv_writes_them(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[0.1, np.float64(1 / 3), 7, "x,y"], (np.int64(2), "", 1e300, "")]
        write_rows(path, ["a", "b", "c", "d"], rows)
        assert path.read_bytes() == (
            b'a,b,c,d\r\n0.10000000000000001,0.33333333333333331,7,"x,y"\r\n'
            b"2,,1.0000000000000001e+300,\r\n"
        )

    def test_read_back(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ["id", "x"], [["p\u00e9", -0.0], ["q", float("nan")]])
        rows = list(read_rows(path, ["id", "x"]))
        assert rows == [(f"{path}:2", ["p\u00e9", "-0"]), (f"{path}:3", ["q", "nan"])]


class TestReadRows:
    def test_header_and_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a, b\n1,2\n\n3\n")
        rows = read_rows(path, ["a", "b"])
        assert next(rows) == (f"{path}:2", ["1", "2"])
        with pytest.raises(SampleParseError, match=f"^{_at(path)}:4: expected 2 fields, got 1$"):
            next(rows)
        with pytest.raises(SampleParseError, match=f"^{_at(path)}: expected header a,c$"):
            list(read_rows(path, ["a", "c"]))

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(SampleParseError, match="expected header a"):
            list(read_rows(path, ["a"]))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a\n\xff\n")
        with pytest.raises(SampleParseError, match=f"^{_at(path)}: not UTF-8 text$"):
            list(read_rows(path, ["a"]))

    def test_field_beyond_the_csv_limit(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n" + "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(SampleParseError, match=f"^{_at(path)}: field larger than field limit"):
            list(read_rows(path, ["a"]))


class TestJson:
    def test_write_json_sorted_indented_newline(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": [1, 2.5], "a": "\u00e9"})
        assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert read_json(path) == {"a": "\u00e9", "b": [1, 2.5]}

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"{", "Expecting property name"),
            (b"[1, 2]", "not a JSON object"),
            (b"null", "not a JSON object"),
            (b'{"a": "\xff"}', "not UTF-8 text"),
        ],
    )
    def test_refused_with_the_path(self, tmp_path, data, message):
        path = tmp_path / "t.json"
        path.write_bytes(data)
        with pytest.raises(SampleParseError, match=f"^{_at(path)}: {message}"):
            read_json(path)

    def test_read_text_keeps_line_ends(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_text(path) == "a\r\nb\rc\n"
