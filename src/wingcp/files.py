"""The pipeline's text files: CSV tables and JSON objects.

Every text file is read as UTF-8, and a file that is not UTF-8, not
valid JSON or not the expected table raises SampleParseError naming
it. Writers give floats (``np.float64`` included) 17 significant
digits, which read back exactly, and sort JSON keys. Four tables are
formatted by hand in one pass, byte for byte what ``write_rows`` would
write: the feature cache's y.csv, meta.csv and features_points.csv
(``wingcp.data``) and predict's predictions.csv (``wingcp.cli``). No
other module parses CSV; the feature cache's arrays are ``.npy`` files.
"""

import csv
import io
import json

from .errors import SampleParseError

__all__ = ["read_text", "read_json", "write_json", "read_rows", "write_rows"]


def read_text(path) -> str:
    """The whole text of a UTF-8 file."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise SampleParseError(f"{path}: not UTF-8 text") from None


def read_json(path) -> dict:
    """The JSON object a file holds; a syntax error or another JSON value is refused."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SampleParseError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise SampleParseError(f"{path}: not a JSON object")
    return obj


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_rows(path, header: list):
    """Yield (``path:line``, fields) for each non-empty data row of a CSV table.

    The first row must be ``header`` (fields stripped) and every data row
    must have as many fields; a row csv cannot split is refused too.
    """
    rows = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        first = next(rows, None)
        if first is None or [h.strip() for h in first] != header:
            raise SampleParseError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SampleParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield f"{path}:{lineno}", row
    except csv.Error as exc:  # e.g. a field beyond csv's size limit
        raise SampleParseError(f"{path}: {exc}") from None


def write_rows(path, header: list, rows):
    """Write a CSV table: a float cell with 17 significant digits, any other cell as csv writes it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(x, ".17g") if isinstance(x, float) else x for x in row] for row in rows)
