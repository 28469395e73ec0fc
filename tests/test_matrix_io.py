"""Matrix file formats: strict parsing, error positions, round trips."""

import csv
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dihedrant import matrix
from dihedrant.matrix import ExactMatrix
from dihedrant.matrix_io import (
    MatrixFormatError,
    load_matrix,
    matrix_to_json,
    matrix_to_obj,
    parse_matrix_csv,
    parse_matrix_json,
    parse_scalar,
)


def test_parse_scalar_accepts_integers_and_ratios():
    assert parse_scalar("7") == 7
    assert parse_scalar("-3") == -3
    assert parse_scalar("+3") == 3
    assert parse_scalar(" 6/4 ") == Fraction(3, 2)
    assert parse_scalar("-6/4") == Fraction(-3, 2)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a", "1/2/3", "1/-2", "0x10", "1_000", "\u0663", "3/0", "0/0"])
def test_parse_scalar_rejects_everything_else(bad):
    with pytest.raises(MatrixFormatError):
        parse_scalar(bad)


def test_parse_scalar_is_the_matrix_parser():
    assert parse_scalar is matrix.parse_scalar and MatrixFormatError is matrix.MatrixFormatError


def test_zero_denominator_names_the_position():
    with pytest.raises(MatrixFormatError, match="row 2, column 1: zero denominator"):
        parse_matrix_json('[[1, 2], ["3/0", 4]]')
    with pytest.raises(MatrixFormatError, match="row 1, column 2: zero denominator"):
        parse_matrix_csv("1, 3/0\n3, 4\n")


def test_json_round_trip():
    A = ExactMatrix([[1, "1/2"], ["-2/3", 4]])
    text = matrix_to_json(A)
    assert parse_matrix_json(text) == A
    assert matrix_to_obj(A) == [[1, "1/2"], ["-2/3", 4]]


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(), st.fractions()), min_size=n, max_size=n), min_size=n, max_size=n
)))
def test_json_and_csv_round_trips_return_the_same_matrix(rows):
    A = ExactMatrix(rows)
    assert parse_matrix_json(matrix_to_json(A)) == A
    text = io.StringIO()
    csv.writer(text).writerows(matrix_to_obj(A))
    assert parse_matrix_csv(text.getvalue()) == A


def test_json_errors_name_the_position():
    with pytest.raises(MatrixFormatError, match="row 2, column 1"):
        parse_matrix_json('[[1, 2], ["x", 4]]')
    with pytest.raises(MatrixFormatError, match="row 1, column 2"):
        parse_matrix_json("[[1, 2.5], [3, 4]]")
    with pytest.raises(MatrixFormatError, match="row 1, column 1"):
        parse_matrix_json("[[true]]")


@pytest.mark.parametrize(
    "text, message",
    [('[[1, 2], "34"]', "row 2 is a str"), ("[[1, 2], 3]", "row 2 is a int"),
     ('[{"1": 2}, [3, 4]]', "row 1 is a dict"), ("[[1, 2], null]", "row 2 is a NoneType"),
     ("[true, [3, 4]]", "row 1 is a bool")],
)
def test_a_json_row_that_is_no_array_is_named(text, message):
    with pytest.raises(MatrixFormatError) as raised:
        parse_matrix_json(text)
    assert str(raised.value) == f"{message}, not a sequence of entries"


def test_json_structural_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix_json("{}")
    with pytest.raises(MatrixFormatError):
        parse_matrix_json("[[1, 2], [3]]")
    with pytest.raises(MatrixFormatError, match="invalid JSON"):
        parse_matrix_json("[[1, 2")


def test_csv_parsing():
    A = parse_matrix_csv("1,2\n3,4/5\n")
    assert A == ExactMatrix([[1, 2], [3, "4/5"]])


def test_csv_errors_name_the_position():
    with pytest.raises(MatrixFormatError, match="row 2, column 2"):
        parse_matrix_csv("1,2\n3,oops\n")
    # a blank line is no row, for the entry error and the shape error alike
    with pytest.raises(MatrixFormatError, match="row 2, column 2"):
        parse_matrix_csv("1,2\n\n3,x\n")
    with pytest.raises(MatrixFormatError, match="row 2 has 1 entries"):
        parse_matrix_csv("1,2\n\n3\n")


def test_csv_cell_past_the_field_limit_is_a_format_error():
    old = csv.field_size_limit(10)
    try:
        with pytest.raises(MatrixFormatError, match="invalid CSV: field larger than field limit"):
            parse_matrix_csv("12345678901,0\n0,1\n")
    finally:
        csv.field_size_limit(old)


def test_csv_requires_square():
    with pytest.raises(MatrixFormatError):
        parse_matrix_csv("1,2,3\n4,5,6\n")


def test_load_matrix_detects_format(tmp_path):
    (tmp_path / "m.json").write_text("[[1, 2], [3, 4]]")
    (tmp_path / "m.csv").write_text("1,2\n3,4\n")
    expected = ExactMatrix([[1, 2], [3, 4]])
    assert load_matrix(tmp_path / "m.json") == expected
    assert load_matrix(tmp_path / "m.csv") == expected


def test_load_matrix_accepts_a_byte_order_mark(tmp_path, fixtures_dir):
    minus15 = load_matrix(fixtures_dir / "minus15.json")
    for name in ("minus15.json", "minus15.csv"):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / name).read_bytes())
        assert load_matrix(path) == minus15


def test_load_matrix_format_override(tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text("[[1, 2], [3, 4]]")
    with pytest.raises(MatrixFormatError, match="--format"):
        load_matrix(path)
    assert load_matrix(path, fmt="json") == ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(MatrixFormatError):
        load_matrix(path, fmt="yaml")


def test_shipped_fixture_files_parse(fixtures_dir):
    minus15 = load_matrix(fixtures_dir / "minus15.json")
    assert minus15 == load_matrix(fixtures_dir / "minus15.csv")
    assert minus15.entry(2, 2) == -3
    for name, order in [
        ("twos-ones.json", 4),
        ("rank2-counterexample.json", 6),
        ("rank3-counterexample.json", 4),
        ("identity4.json", 4),
        ("identity4-colswap.json", 4),
    ]:
        assert load_matrix(fixtures_dir / name).n == order


@pytest.mark.parametrize(
    "name, text, where",
    [("long.json", "[[1, {}], [3, 4]]", "invalid JSON"),
     ("long-ratio.json", '[[1, 2], [3, "1/{}"]]', "row 2, column 2"),
     ("long.csv", "1,2\n3,{}\n", "row 2, column 2"),
     ("long-ratio.csv", "1,2\n3,{}/7\n", "row 2, column 2")],
)
def test_load_matrix_names_entries_past_the_int_digit_limit(tmp_path, int_digit_limit, name, text, where):
    # the limit is Python's default here, as in library use; cli.main lifts it for the whole process
    path = tmp_path / name
    path.write_text(text.format("7" * 5000), encoding="utf-8")
    with pytest.raises(MatrixFormatError, match=f"^{where}: .*4300 digits") as raised:
        load_matrix(path)
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


# digits, signs, the slash, ASCII and Unicode whitespace, letters, and two characters that int() reads
# but the parser must not ("_" and an Arabic-Indic three); no comma, quote, CR or LF, which CSV reads itself
CELL_CHARACTERS = "0123456789+-/ \t\u00a0aeExz_\u0663"


@given(st.text(CELL_CHARACTERS, max_size=10))
def test_both_loaders_accept_a_cell_exactly_as_parse_scalar_does(cell):
    try:
        expected = parse_scalar(cell)
    except MatrixFormatError as exc:
        expected = f"row 1, column 1: {exc}"
    loads = [json.dumps([[cell]])] + ([cell] if cell else [])  # an empty CSV line is no row
    for parse, text in zip((parse_matrix_json, parse_matrix_csv), loads):
        try:
            got = parse(text).entry(1, 1)
        except MatrixFormatError as exc:
            got = str(exc)
        assert got == expected


def test_each_cell_of_a_json_document_is_checked_once():
    rows = [[1, "1/2", "-3"], ["2/3", 4, " 5/6 "], ["7", "8/9", 0]]  # every row mixes ints and strings
    # counted by code object, so a caller that imported a function by name is counted too
    calls = {matrix._exact.__code__: 0, matrix._parse.__code__: 0}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        A = parse_matrix_json(json.dumps(rows))
    finally:
        sys.setprofile(None)
    assert list(calls.values()) == [9, 6]  # each cell through _exact once, each string through _parse once
    assert A == ExactMatrix([[1, Fraction(1, 2), -3], [Fraction(2, 3), 4, Fraction(5, 6)], [7, Fraction(8, 9), 0]])
