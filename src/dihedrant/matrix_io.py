"""Reading and writing exact matrices.

Two hand-authorable formats:

* JSON: an array of arrays; each entry is an integer or a string "p/q".
* CSV: one row per line; each cell is an integer or p/q.

A decoded JSON array and the non-blank rows of ``csv.reader`` go to
``ExactMatrix`` as they are; its one pass per row checks, parses and clears
each entry with the one strict scalar parser (no floats, booleans, scientific
notation or zero denominators), and names a bad entry's row and column.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from .matrix import ExactMatrix, MatrixFormatError, parse_scalar

_SUFFIX_FORMATS = {".json": "json", ".csv": "csv"}


def scalar_to_obj(value: Fraction) -> int | str:
    return value.numerator if value.denominator == 1 else str(value)


def matrix_to_obj(A: ExactMatrix) -> list[list[int | str]]:
    return [[scalar_to_obj(e) for e in row] for row in A.rows]


def matrix_to_json(A: ExactMatrix) -> str:
    return json.dumps(matrix_to_obj(A))


def matrix_from_obj(obj) -> ExactMatrix:
    """Build a matrix from decoded JSON (list of lists of int or 'p/q')."""
    if not isinstance(obj, list) or not obj:
        raise MatrixFormatError("document must be a non-empty array of rows")
    return _to_square_matrix(obj)


def parse_matrix_json(text: str) -> ExactMatrix:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past sys.get_int_max_str_digits()
        raise MatrixFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise MatrixFormatError("invalid JSON: nesting too deep") from None
    return matrix_from_obj(obj)


def parse_matrix_csv(text: str) -> ExactMatrix:
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise MatrixFormatError(f"invalid CSV: {exc}") from None
    rows = list(filter(None, records))  # blank lines are no rows
    if not rows:
        raise MatrixFormatError("no rows found")
    return _to_square_matrix(rows)


def _to_square_matrix(rows: list) -> ExactMatrix:
    try:
        return ExactMatrix(rows)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def load_matrix(path: str | Path, fmt: str | None = None) -> ExactMatrix:
    """Load a matrix file, picking the format from the extension.

    ``fmt`` ("json" or "csv") overrides the auto-detection.  The file is
    read as UTF-8, with or without a leading byte-order mark.
    """
    path = Path(path)
    if fmt is None:
        fmt = _SUFFIX_FORMATS.get(path.suffix.lower())
        if fmt is None:
            raise MatrixFormatError(
                f"cannot infer format from {path.name!r}; pass --format json or csv"
            )
    if fmt not in ("json", "csv"):
        raise MatrixFormatError(f"unknown format {fmt!r}; expected json or csv")
    text = path.read_text(encoding="utf-8-sig")
    return parse_matrix_json(text) if fmt == "json" else parse_matrix_csv(text)
