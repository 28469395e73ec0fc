"""Exact matrices: structure operations, rank, and the signed-product kernel."""

import ast
import functools
import math
import operator
import os
import re
import subprocess
import sys
from array import array
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from dihedrant import matrix, modular
from dihedrant.matrix import (
    ExactMatrix,
    MatrixFormatError,
    integer_det,
    integer_rank,
    parse_scalar,
    signed_product_sum,
)
from dihedrant.perm import Permutation, compose, dihedral_group, rotation_perm, sgn, sig

from dihedrant.functionals import dihedrant, elimination_det
from dihedrant.matrix_io import load_matrix
from dihedrant.schemes import false_sarrus_scheme

from conftest import (
    FIXTURES,
    deadline,
    gauss_det,
    gauss_rank,
    low_rank_rows,
    random_int_rows,
    random_rational_rows,
)

MINUS15_ROWS = [[1, 0, 0, -1], [1, -3, 0, -3], [1, 1, 5, 5], [0, 0, 0, 1]]


def entry_of(value) -> Fraction:
    """value as the one entry of a 1x1 matrix."""
    return ExactMatrix([[value]]).entry(1, 1)


def test_scalars_are_canonical():
    assert parse_scalar("6/4") == entry_of("6/4") == Fraction(3, 2)
    for v in (parse_scalar("-6/4"), entry_of("-6/4"), entry_of(Fraction(-6, 4))):
        assert (v.numerator, v.denominator) == (-3, 2)
    assert parse_scalar("0") == entry_of(0) == Fraction(0, 1)
    assert entry_of(Fraction(2, 6)).denominator == 3


def test_floats_and_bools_are_rejected():
    for bad in (0.5, True, False):
        with pytest.raises(ValueError):
            ExactMatrix([[bad]])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 0.5], [0, 1]])
    with pytest.raises(MatrixFormatError):
        parse_scalar("True")


@pytest.mark.parametrize("bad", ["1e3", "1_000", "1.5", "\u0663", "3/0", Decimal("0.5"), 1.0, None, [1]])
def test_one_strict_scalar_parser(bad):
    with pytest.raises(MatrixFormatError):
        parse_scalar(bad)
    with pytest.raises(ValueError):
        ExactMatrix([[bad]])


@pytest.mark.parametrize(
    "bad, shown",
    [pytest.param([10**5000], "[<int of 16610 bits>]", id="bad0"),
     pytest.param((-(10**5000),), "(<int of 16610 bits>,)", id="bad1"),
     pytest.param({10**5000: 1}, "{<int of 16610 bits>: 1}", id="bad2")],
)
def test_rejected_big_ints_are_described_without_conversion(int_digit_limit, bad, shown):
    # under the default limit, str() of a 5,000-digit int raises; the message must not try it
    with pytest.raises(ValueError) as info:
        ExactMatrix([[1, 2], [3, bad]])
    assert str(info.value) == f"row 2, column 2: entries must be exact (int, Fraction, or 'p/q'), got {shown}"


def test_rejected_short_values_print_as_before():
    with pytest.raises(ValueError) as info:
        ExactMatrix([[[3, 10**50]]])
    assert str(info.value) == (
        "row 1, column 1: entries must be exact (int, Fraction, or 'p/q'), "
        "got [3, 100000000000000000...0000000000000000000]"
    )


def test_scalar_strings_go_through_parse_scalar():
    assert entry_of(" 3/4 ") == parse_scalar(" 3/4 ") == Fraction(3, 4)
    for parse in (parse_scalar, entry_of):
        with pytest.raises(MatrixFormatError, match="zero denominator"):
            parse("3/0")
    with pytest.raises(MatrixFormatError, match="not a string: 5"):  # an entry, but no string to parse
        parse_scalar(5)
    q = Fraction(5, 7)
    assert ExactMatrix([[q]])._grid[0][0] is q


def test_the_empty_matrix_has_rank_0_and_determinant_1():
    assert integer_rank([]) == 0 and integer_det([]) == 1


def test_constructor_requires_square():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        ExactMatrix([])


def test_entry_access_is_one_based():
    A = ExactMatrix([[1, 2], [3, 4]])
    assert A.entry(1, 2) == 2
    assert A.rows[1] == (3, 4)
    assert A.transpose().rows[0] == (1, 3)
    with pytest.raises(ValueError):
        A.entry(0, 1)
    with pytest.raises(ValueError):
        A.entry(1, 3)


@pytest.mark.parametrize("i, j", [(1, 1.0), (1.0, 2), (True, 1), (1, False), ("1", 1), (None, 1)], ids=repr)
def test_entry_positions_must_be_ints(i, j):
    # 1.0 passes the range check and fails as an index; True reads as row 1, False as column 0
    with pytest.raises(ValueError, match=r"is not two ints in 1\.\.2"):
        ExactMatrix([[1, 2], [3, 4]]).entry(i, j)


def test_equality_and_hash():
    A = ExactMatrix([[1, 2], [3, 4]])
    B = ExactMatrix([["1", "2"], ["3", "4"]])
    assert A == B and hash(A) == hash(B)
    assert A != ExactMatrix([[1, 2], [3, 5]])
    C = ExactMatrix([[Fraction(1), "2/1"], [Fraction(6, 2), " 4 "]])
    assert A == C and hash(A) == hash(C)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["12", "34"], "row 1 is a str"),
        ([b"\x01\x02", b"\x03\x04"], "row 1 is a bytes"),
        ([[1, 2], bytearray(b"\x03\x04")], "row 2 is a bytearray"),
        ([{2: 0, 1: 0}, {5: 0, 7: 0}], "row 1 is a dict"),
        ([[1, 2], {3, 4}], "row 2 is a set"),
        ([frozenset({1})], "row 1 is a frozenset"),
        ("1", "rows must be a sequence of rows, not a str"),
        (b"\x01", "rows must be a sequence of rows, not a bytes"),
        ({(1,): 0}, "rows must be a sequence of rows, not a dict"),
        ({(1,)}, "rows must be a sequence of rows, not a set"),
        ([memoryview(b"\x01\x02"), memoryview(b"\x03\x04")], "row 1 is a memoryview"),
        ([[1, 2], memoryview(bytearray(b"\x03\x04"))[:]], "row 2 is a memoryview"),
        (memoryview(b"\x01"), "rows must be a sequence of rows, not a memoryview"),
        # not iterable at all: a ValueError naming the rows or the row, not iter()'s TypeError
        (5, "rows must be a sequence of rows, not a int"),
        ([1, 2], "row 1 is a int, not a sequence of entries"),
        ([[1, 2], 3], "row 2 is a int, not a sequence of entries"),
    ],
)
def test_rows_that_are_strings_bytes_or_unordered_are_rejected(rows, message):
    with pytest.raises(ValueError, match=message):
        ExactMatrix(rows)


def test_a_memoryview_of_an_int_array_is_a_row():
    rows = [memoryview(array("q", [1, -2])), memoryview(array("b", [3, 4]))]
    assert ExactMatrix(rows) == ExactMatrix([[1, -2], [3, 4]])


def test_integral_entries_are_stored_as_ints_and_read_as_fractions():
    A = ExactMatrix([[Fraction(2), "6/3"], [" 4 ", 5]])
    assert all(type(e) is int for row in A._grid for e in row)
    assert type(ExactMatrix([["1/2"]])._grid[0][0]) is Fraction
    assert all(type(e) is Fraction for row in A.rows for e in row)
    assert type(A.entry(2, 2)) is Fraction
    assert type(parse_scalar("7")) is Fraction and type(entry_of(7)) is Fraction


def test_an_int_matrix_is_built_and_loaded_without_fractions(fractions_built):
    A = ExactMatrix(MINUS15_ROWS)
    from_csv = load_matrix(FIXTURES / "minus15.csv")
    from_json = load_matrix(FIXTURES / "minus15.json")
    assert not fractions_built
    assert A == from_csv == from_json


def test_the_cleared_rows_are_kept_and_never_mutated():
    A = ExactMatrix([[0, "1/2", 1], [2, "1/3", 1], [4, 1, 2]])  # the first column needs a row swap
    cleared = A._cleared()
    assert cleared == (((0, 1, 2), (6, 1, 3), (4, 1, 2)), 6)
    for _ in range(2):
        dihedrant(A)
        elimination_det(A)
        false_sarrus_scheme(3).evaluate(A)
    assert A.rank() == 3
    assert A._cleared() is cleared
    assert cleared == (((0, 1, 2), (6, 1, 3), (4, 1, 2)), 6)
    assert (integer_rank(cleared[0]), integer_det(cleared[0])) == (3, 4)  # both only read the rows
    assert A._cleared() is cleared and cleared == (((0, 1, 2), (6, 1, 3), (4, 1, 2)), 6)


# ---------------------------------------------------------------------------
# transpose

def test_transpose_examples():
    assert ExactMatrix.identity(3).transpose() == ExactMatrix.identity(3)
    A = ExactMatrix(MINUS15_ROWS)
    assert A.entry(1, 4) == -1
    assert A.transpose().entry(4, 1) == -1


def test_transpose_is_an_involution():
    rng = Random(11)
    for _ in range(10):
        A = ExactMatrix(random_int_rows(rng, 5))
        assert A.transpose().transpose() == A


# ---------------------------------------------------------------------------
# permutations of rows and columns

def test_permute_columns_swap_on_identity():
    swapped = ExactMatrix.identity(4).permute_columns(Permutation((2, 1, 3, 4)))
    assert swapped.entry(1, 2) == 1
    assert swapped.entry(2, 1) == 1
    assert swapped.entry(1, 1) == 0


def test_permute_by_identity_is_noop():
    rng = Random(3)
    A = ExactMatrix(random_int_rows(rng, 4))
    e = rotation_perm(4, 1)
    assert A.permute_columns(e) == A
    assert A.permute_rows(e) == A


def test_permute_columns_then_inverse_restores():
    rng = Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        A = ExactMatrix(random_int_rows(rng, n))
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        inverse = Permutation(tuple(images.index(i) + 1 for i in range(1, n + 1)))
        assert compose(sigma, inverse) == rotation_perm(n, 1)
        assert A.permute_columns(sigma).permute_columns(inverse) == A
        assert A.permute_rows(sigma).permute_rows(inverse) == A


def test_permute_rows_of_identity_is_permutation_matrix():
    sigma = Permutation((2, 3, 1))
    P = ExactMatrix.identity(3).permute_rows(sigma)
    for i in range(1, 4):
        for j in range(1, 4):
            assert P.entry(i, j) == (1 if j == sigma(i) else 0)


def test_row_permutation_transposes_to_column_permutation():
    rng = Random(7)
    for _ in range(20):
        A = ExactMatrix(random_int_rows(rng, 4))
        images = [1, 2, 3, 4]
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        assert A.permute_rows(sigma).transpose() == A.transpose().permute_columns(sigma)


def test_permute_size_mismatch():
    A = ExactMatrix.identity(3)
    with pytest.raises(ValueError):
        A.permute_columns(rotation_perm(4, 1))
    with pytest.raises(ValueError):
        A.permute_rows(rotation_perm(2, 1))


# ---------------------------------------------------------------------------
# row combinations

def test_linear_combination_row_identity_cases():
    rng = Random(13)
    A = ExactMatrix(random_int_rows(rng, 4))
    b = (9, 9, 9, 9)
    assert A.linear_combination_row(2, 1, 0, b) == A
    replaced = A.linear_combination_row(2, 0, 1, b)
    assert replaced.rows[1] == tuple(Fraction(9) for _ in range(4))
    assert replaced.rows[0] == A.rows[0]


def test_linear_combination_row_combines_exactly():
    A = ExactMatrix([[1, 2], [3, 4]])
    out = A.linear_combination_row(1, Fraction(1, 2), 3, (1, -1))
    assert out.rows[0] == (Fraction(7, 2), Fraction(-2))
    assert out.rows[1] == (3, 4)


def test_linear_combination_row_errors():
    A = ExactMatrix.identity(3)
    with pytest.raises(ValueError):
        A.linear_combination_row(0, 1, 1, (1, 1, 1))
    with pytest.raises(ValueError):
        A.linear_combination_row(1, 1, 1, (1, 1))


@pytest.mark.parametrize("j", [1.0, True, False, "1", None], ids=repr)
def test_linear_combination_row_rejects_a_row_number_that_is_no_int(j):
    # 1.0 passes the range check and fails as an index; True would replace row 1
    with pytest.raises(ValueError, match=re.escape(f"row {j!r} is not an int in 1..2")):
        ExactMatrix.identity(2).linear_combination_row(j, 1, 1, (5, 5))


@pytest.mark.parametrize("b, kind", [("12", "str"), (5, "int"), (b"\x01\x02", "bytes"), ({1: 0, 2: 0}, "dict")])
def test_linear_combination_row_rejects_a_row_that_is_no_sequence_of_entries(b, kind):
    # a str of two digits would otherwise read as the row (1, 2), and an int end in a bare TypeError
    with pytest.raises(ValueError, match=f"replacement row is a {kind}, not a sequence of entries"):
        ExactMatrix.identity(2).linear_combination_row(1, 1, 1, b)


# ---------------------------------------------------------------------------
# rank

def test_rank_examples():
    assert ExactMatrix([[0] * 4] * 4).rank() == 0
    assert ExactMatrix.identity(5).rank() == 5
    assert ExactMatrix([[1, 2, 3, 4], [1, 2, 3, 4], [1, 0, 0, 0], [0, 0, 0, 1]]).rank() == 3


def test_rank_of_recorded_six_by_six():
    A = ExactMatrix([
        [1, 1, 0, 0, 1, 0],
        [1, 1, 0, 0, 1, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1],
        [1, 1, 0, 0, 1, 0],
        [1, 1, 1, 1, 1, 1],
    ])
    assert A.rank() == 2


def test_rank_agrees_with_plain_elimination_oracle():
    rng = Random(17)
    for _ in range(120):
        n = rng.randint(1, 6)
        rows = random_int_rows(rng, n, -4, 4)
        # sprinkle rational entries
        if rng.random() < 0.4:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        assert ExactMatrix(rows).rank() == gauss_rank(rows)


def test_rank_agrees_on_engineered_low_rank():
    rng = Random(19)
    for _ in range(60):
        n = rng.randint(2, 6)
        r = rng.randint(1, n)
        basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        rows = []
        for _ in range(n):
            coeffs = [rng.randint(-2, 2) for _ in range(r)]
            rows.append([sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(n)])
        assert ExactMatrix(rows).rank() == gauss_rank(rows)


@pytest.mark.parametrize("n", [8, 17, 40])
def test_rank_matches_plain_gauss_on_large_rational_matrices(n):
    rng = Random(20 + n)
    for rank in (1, n // 3, n - 1):
        rows = low_rank_rows(rng, n, rank)
        assert ExactMatrix(rows).rank() == gauss_rank(rows) == rank
    rows = random_rational_rows(rng, n, n)
    assert ExactMatrix(rows).rank() == gauss_rank(rows) == n


def test_rank_invariances():
    rng = Random(23)
    for _ in range(30):
        n = rng.randint(2, 6)
        A = ExactMatrix(random_int_rows(rng, n, -3, 3))
        assert A.rank() == A.transpose().rank()
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        assert A.permute_rows(sigma).rank() == A.rank()
        assert A.permute_columns(sigma).rank() == A.rank()


# ---------------------------------------------------------------------------
# the elimination's paths: Bareiss below MODULAR_ORDER; from it on, the rank modulo primes and the
# determinant by lifting

def test_a_remainder_raises_in_the_bareiss_loop(monkeypatch):
    def broken_divmod(a, b):  # a quotient whose remainder is never 0
        return a // b, 1

    monkeypatch.setattr(matrix, "divmod", broken_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="produced a non-integer quotient"):
        integer_det([[2, 1, 3, 1], [1, 4, 1, 2], [5, 2, 6, 1], [1, 1, 1, 3]])


def _rank_and_det(rows) -> tuple[int, int]:
    return integer_rank(rows), integer_det(rows)


@functools.lru_cache(maxsize=None)
def _modular_cases(n: int) -> dict[str, tuple[tuple[tuple[int, ...], ...], tuple[int, int]]]:
    """Integer matrices of order n, each with its rank and determinant by the Bareiss loop."""
    rng = Random(29 + n)
    rank_n_minus_1 = random_int_rows(rng, n, -9, 9)
    rank_n_minus_1[5] = [2 * a - b for a, b in zip(rank_n_minus_1[1], rank_n_minus_1[3])]
    base = random_int_rows(rng, n, -9, 9)[: n // 2]
    half_rank = base + [[-e for e in row] if rng.random() < 0.5 else row[:] for row in base]  # signed copies
    half_rank += [base[0][:]] * (n % 2)  # square at an odd order too
    rng.shuffle(half_rank)
    zero_column = [[0, *row[1:]] for row in random_int_rows(rng, n, -2, 2)]
    long_row = random_int_rows(rng, n, -9, 9)
    long_row[-1] = [rng.getrandbits(2000) - (1 << 1999) for _ in range(n)]  # entries of about 2,000 bits
    cases = {
        "full rank": random_int_rows(rng, n, -9, 9),
        "rank n-1": rank_n_minus_1,
        "rank n/2": half_rank,
        "zero column": zero_column,
        "all zero": [[0] * n for _ in range(n)],
        "rational": list(ExactMatrix(random_rational_rows(rng, n, n))._cleared()[0]),
        "2,000 bits": long_row,
    }
    return {name: (tuple(map(tuple, rows)), matrix._eliminated(list(map(list, rows)))) for name, rows in cases.items()}


def test_the_modular_cases_match_the_oracles():
    for n in (matrix.MODULAR_ORDER - 1, matrix.MODULAR_ORDER, 64):
        for name, (rows, (rank, det)) in _modular_cases(n).items():
            assert (rank, det) == (gauss_rank(rows), gauss_det(rows)), (n, name)
            assert rank == {"rank n-1": n - 1, "rank n/2": n // 2, "zero column": n - 1, "all zero": 0}.get(name, n)


def test_the_modular_path_equals_bareiss(monkeypatch, forks):
    monkeypatch.setattr("dihedrant.forks._fork_spans", lambda: 2)  # however many CPUs the fork-join sees
    with deadline(120):
        for n in (matrix.MODULAR_ORDER - 1, matrix.MODULAR_ORDER, 64):
            for name, (rows, (rank, det)) in _modular_cases(n).items():
                assert integer_det(rows) == det, (n, name)
                assert integer_rank(rows) == rank, (n, name)
    assert forks == []  # every prime of a rank or a determinant runs in this process


def _counted_primes(monkeypatch) -> list[int]:
    """The primes that modular._eliminated_mod runs in this process from here on."""
    primes = []
    eliminated_mod = modular._eliminated_mod

    def counted(m, p, *args, **kwargs):
        primes.append(p)
        return eliminated_mod(m, p, *args, **kwargs)

    monkeypatch.setattr(modular, "_eliminated_mod", counted)
    return primes


def _recorded_calls(monkeypatch) -> list[tuple[int, bool]]:
    """The prime and the mode (Gauss-Jordan or not) of each modular._eliminated_mod in this process from here on."""
    calls = []
    eliminated_mod = modular._eliminated_mod

    def recorded(m, p, inverse=False):
        calls.append((p, inverse))
        return eliminated_mod(m, p, inverse)

    monkeypatch.setattr(modular, "_eliminated_mod", recorded)
    return calls


def test_the_rank_of_a_full_rank_matrix_needs_one_prime(monkeypatch):
    rows = random_int_rows(Random(37), 128, -9, 9)
    A = ExactMatrix(rows)
    primes = _counted_primes(monkeypatch)
    assert A.rank() == 128 and len(primes) == 1
    primes.clear()
    # Hadamard's bound has about 760 bits, 28 primes' worth; lifting leaves a quotient of a few primes
    assert elimination_det(A) == matrix._eliminated(rows)[1] and len(primes) <= 6


def test_a_full_rank_determinant_runs_the_planned_primes(monkeypatch):
    # Gauss-Jordan modulo the first prime, whose solution is lifted; three primes of the quotient
    # det / s, each folded into the Chinese remainder sum as it is found; and the check prime
    rows = random_int_rows(Random(37), 128, -9, 9)
    calls = _recorded_calls(monkeypatch)
    assert elimination_det(ExactMatrix(rows)) == matrix._eliminated([r[:] for r in rows])[1]
    assert calls == [(268435399, True), (268435367, False), (268435361, False), (268435337, False), (268435331, False)]
    assert [p for p, _ in calls] == [modular._prime(28, k) for k in range(5)]


def test_the_rank_of_a_half_rank_matrix_runs_the_planned_primes(monkeypatch):
    # one forward elimination modulo the first prime, and one Gauss-Jordan on its pivot block, from
    # which every other row is lifted: 64 random rows and signed copies of them, as in the benchmark
    rng = Random(128)
    base = random_int_rows(rng, 128, -9, 9)[:64]
    rows = base + [[-e for e in rng.choice(base)] if rng.random() < 0.5 else rng.choice(base) for _ in range(64)]
    rng.shuffle(rows)
    calls = _recorded_calls(monkeypatch)
    assert ExactMatrix(rows).rank() == 64
    assert calls == [(modular._prime(28, 0), False), (modular._prime(28, 0), True)]


def test_a_full_rank_that_the_first_prime_misses_needs_no_determinant(monkeypatch):
    # the primes after the first certify the full rank; their determinants are not checked against a bound
    n = matrix.MODULAR_ORDER
    rows = random_int_rows(Random(41), n, -9, 9)
    rows[0] = [modular._prime(modular._field_bits(n), 0) * e for e in rows[0]]  # zero modulo the first prime
    primes = _counted_primes(monkeypatch)
    assert ExactMatrix(rows).rank() == n and len(primes) > 2


def _recorded(monkeypatch, module, name: str) -> list:
    """The results of module.name from here on, in this process."""
    results = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


@pytest.mark.parametrize("row", [0, 10])
def test_a_full_rank_that_the_first_prime_misses_falls_back(row, monkeypatch):
    # row 0 is zero modulo the first prime, or row 10 is rows 3 + 5 modulo it: a dependency that
    # fails over the rationals, so the rank is certified and the next prime lifts the determinant
    n = matrix.MODULAR_ORDER
    first = modular._prime(modular._field_bits(n), 0)
    rows = random_int_rows(Random(43 + row), n, -9, 9)
    if row == 0:
        rows[0] = [first * e for e in rows[0]]
    else:
        rows[10] = [a + b for a, b in zip(rows[3], rows[5])]
        rows[10][7] += first
    expected = matrix._eliminated([r[:] for r in rows])
    assert expected[0] == n and expected[1] % first == 0
    combined = _recorded(monkeypatch, modular, "_combined")
    ranks = _recorded(monkeypatch, modular, "rank")
    assert integer_det(rows) == expected[1]
    # the determinant's dependency fails, and so does the rank's under the first prime; the next
    # prime finds the full rank and lifts the determinant
    assert combined[:2] == [None, None] and len(combined) == 3 and ranks == [n]
    calls = _recorded_calls(monkeypatch)
    assert integer_rank(rows) == n
    assert [p for p, inverse in calls if not inverse] == [first, modular._prime(modular._field_bits(n), 1)]


def test_a_singular_matrix_needs_one_prime_and_no_rank(monkeypatch):
    rows, (rank, det) = _modular_cases(64)["rank n-1"]
    primes = _counted_primes(monkeypatch)
    combined = _recorded(monkeypatch, modular, "_combined")
    ranks = _recorded(monkeypatch, modular, "rank")
    assert integer_det(rows) == det == 0 and rank == 63
    assert len(primes) == 1 and len(combined) == 1 and combined[0] is not None and ranks == []


@pytest.mark.parametrize("name", ["full rank", "rank n-1", "rank n/2", "all zero"])
def test_a_wrong_reconstruction_never_gives_a_wrong_determinant(name, monkeypatch):
    rows, (rank, det) = _modular_cases(matrix.MODULAR_ORDER)[name]
    reconstructed = modular._reconstructed

    def wrong_denominator(*args):
        found = reconstructed(*args)
        return found and (found[0], found[1] + 1)

    monkeypatch.setattr(modular, "_reconstructed", wrong_denominator)
    if rank == 0:  # no pivot, so no solution to reconstruct
        assert integer_det(rows) == det == 0
    else:  # past the bound each lifted solution is unique, so a failed check there is broken arithmetic
        with pytest.raises(ArithmeticError, match="does not solve"):
            integer_det(rows)


def _product_rows(rng: Random, n: int, rank: int) -> list[list[int]]:
    """U V for an n x rank U and a rank x n V with entries in [-9, 9], rows and columns shuffled: dense,
    and of this rank, since U's first rows are unit lower triangular and V's first columns unit upper."""
    U = [[int(i == j) or rng.randint(-9, 9) * (j < i or i >= rank) for j in range(rank)] for i in range(n)]
    V = [[int(i == j) or rng.randint(-9, 9) * (j > i) for j in range(n)] for i in range(rank)]
    rng.shuffle(U)
    order = rng.sample(range(n), n)
    columns = [[row[c] for row in V] for c in order]
    return [[sum(map(operator.mul, row, column)) for column in columns] for row in U]


@pytest.mark.parametrize("rank", [3, 32, 127])
def test_the_rank_of_a_dense_product_equals_bareiss(rank, monkeypatch):
    # every row depends on the pivot rows with a denominator of up to a few hundred bits
    rows = _product_rows(Random(rank), 128, rank)
    calls = _recorded_calls(monkeypatch)
    assert integer_rank(rows) == matrix._eliminated([r[:] for r in rows])[0] == rank
    assert [inverse for _, inverse in calls] == [False, True]


def test_a_block_of_dependencies_stops_at_the_first_step_that_suffices(monkeypatch):
    # 64 rows lift together, so a try that fails costs little beside a step: the block tries at every
    # step, and the step before the one that settles it was too short for some row's reconstruction
    rows = _product_rows(Random(64), 128, 64)
    p = modular._prime(modular._field_bits(128), 0)
    tries = []
    reconstructed = modular._reconstructed

    def recorded(residues, modulus, bound):
        tries.append((modulus, reconstructed(residues, modulus, bound)))
        return tries[-1][1]

    monkeypatch.setattr(modular, "_reconstructed", recorded)
    assert integer_rank(rows) == 64
    found = [(modulus, candidate) for modulus, candidate in tries if candidate is not None]
    last = {modulus for modulus, _ in found}
    assert len(found) == 64 and len(last) == 1
    earlier = last.pop() // p
    assert earlier.bit_length() > 400  # denominators of about 270 bits, far past the first steps
    assert any(2 * max(map(abs, N)) * d >= earlier for _, (N, d) in found)


@pytest.mark.parametrize("name", ["full rank", "rank n-1", "rank n/2", "zero column", "all zero", "rational"])
@pytest.mark.parametrize("wrong", ["denominator", "zeros"])
def test_a_wrong_reconstruction_never_gives_a_wrong_rank(name, wrong, monkeypatch):
    rows, (rank, _) = _modular_cases(matrix.MODULAR_ORDER)[name]
    reconstructed = modular._reconstructed

    def patched(residues, modulus, bound):
        found = reconstructed(residues, modulus, bound)
        return found and ((found[0], found[1] + 1) if wrong == "denominator" else ([0] * len(residues), 1))

    monkeypatch.setattr(modular, "_reconstructed", patched)
    if rank in (0, matrix.MODULAR_ORDER):  # no row to lift
        assert integer_rank(rows) == rank
    else:  # past the bound each lifted solution is unique, so a failed check there is broken arithmetic
        with pytest.raises(ArithmeticError, match="does not solve"):
            integer_rank(rows)


@pytest.mark.parametrize("n", [matrix.MODULAR_ORDER - 1, matrix.MODULAR_ORDER, 63, 64, 255, 256])
def test_the_forward_kernel_drops_dead_rows_and_keeps_rank_and_det(n):
    # a column without a pivot drops the rows that are 0 mod p; rank, determinant and the pivot block
    # are unchanged.  Orders 63, 64, 255 and 256 are the field edges, with matrices of known rank
    p = modular._prime(modular._field_bits(n), 0)
    if n in (63, 64, 255, 256):
        rng = Random(n)
        cases = {"rank 3": ((3, 0), _product_rows(rng, n, 3)), "rank n/2": ((n // 2, 0), _product_rows(rng, n, n // 2))}
    else:
        cases = {name: ((rank, det % p), rows) for name, (rows, (rank, det)) in _modular_cases(n).items()}
    for name, ((rank, det_p), rows) in cases.items():
        r, det_r, kept, pivots, columns = modular._eliminated_mod(rows, p)
        assert (r, det_r, kept) == (rank, det_p, []), name
        assert len(set(pivots)) == len(set(columns)) == r, name
        assert modular._eliminated_mod([[rows[i][c] for c in columns] for i in pivots], p, True)[0] == r, name


def test_the_reconstruction_shares_one_denominator():
    modulus = modular._prime(28, 0) ** 4
    x = [Fraction(3, 7), Fraction(-5, 7), Fraction(2, 21), Fraction(4), Fraction(-1, 3)]
    residues = [q.numerator * pow(q.denominator, -1, modulus) % modulus for q in x]
    assert modular._reconstructed(residues, modulus, 100) == ([9, -15, 2, 84, -7], 21)


@pytest.mark.parametrize("name", ["full rank", "rank n/2", "rational", "2,000 bits"])
def test_gauss_jordan_modulo_a_prime_inverts_the_pivot_block(name):
    rows, (rank, det) = _modular_cases(matrix.MODULAR_ORDER)[name]
    n = len(rows)
    p = modular._prime(modular._field_bits(n), 0)
    t, det_p, kept, pivots, columns = modular._eliminated_mod(rows, p, inverse=True)
    assert columns == [*range(t)]
    # the first t columns are independent modulo p, so over the rationals too
    assert len(kept) == len(pivots) == t <= rank and det_p == (det % p if t == n else 0)
    block = [[rows[c][k] for k in range(t)] for c in pivots]  # the pivot rows on the first t columns
    inverse = [modular._unpacked(x, n) for x in kept]
    for k in range(t):
        assert all(f == 0 for j, f in enumerate(inverse[k]) if j not in pivots)
        for i in range(t):
            assert sum(inverse[k][c] * block[u][i] for u, c in enumerate(pivots)) % p == (k == i)


@pytest.mark.parametrize("wrong", ["lifted", "quotient", "check"])
def test_a_wrong_residue_fails_the_check_prime(wrong, monkeypatch):
    rows, _ = _modular_cases(matrix.MODULAR_ORDER)["full rank"]
    eliminated_mod = modular._eliminated_mod
    primes = _counted_primes(monkeypatch)
    integer_det(rows)
    assert len(primes) > 2  # the lifted prime, the primes of the quotient, and the check prime
    target = {"lifted": primes[0], "quotient": primes[1], "check": primes[-1]}[wrong]

    def off_by_one(m, p, *args, **kwargs):
        rank, det_p, *rest = eliminated_mod(m, p, *args, **kwargs)
        return rank, (det_p + (p == target)) % p, *rest

    monkeypatch.setattr(modular, "_eliminated_mod", off_by_one)
    with pytest.raises(ArithmeticError, match="a check prime disagrees"):
        integer_det(rows)


@pytest.mark.parametrize("det", [True, False])
def test_a_rank_above_the_true_rank_fails_the_pivot_block(det, monkeypatch):
    # a kernel that reports one pivot too many: the pivot block is singular modulo p, which
    # Gauss-Jordan finds.  The determinant reaches the rank only by its fallback, here forced by a
    # row 0 that is zero modulo the first prime, which a scaled row of the matrix keeps at rank n/2
    n = matrix.MODULAR_ORDER
    rows, (rank, _) = _modular_cases(n)["rank n/2"]
    rows = [[modular._prime(modular._field_bits(n), 0) * e for e in rows[0]], *rows[1:]]
    assert (integer_det(rows) == 0 if det else True) and integer_rank(rows) == rank == n // 2
    eliminated_mod = modular._eliminated_mod

    def one_too_many(m, p, inverse=False):
        rank_p, det_p, kept, pivots, columns = eliminated_mod(m, p, inverse)
        if inverse:
            return rank_p, det_p, kept, pivots, columns
        row = min(set(range(len(m))).difference(pivots))
        column = min(set(range(len(m))).difference(columns))
        return rank_p + 1, det_p, kept, [*pivots, row], [*columns, column]

    monkeypatch.setattr(modular, "_eliminated_mod", one_too_many)
    with pytest.raises(ArithmeticError, match="fewer pivots"):
        integer_det(rows) if det else integer_rank(rows)


@pytest.mark.parametrize("n", [63, 64])
def test_the_packed_kernel_equals_bareiss_at_its_field_edges(n):
    # 63 is the largest order with 29-bit fields, where p + n * (p - 1)**2 < 2**64 is tightest; 64 the first with 28
    bits = modular._field_bits(n)
    first = modular._prime(bits, 0)
    assert bits == {63: 29, 64: 28}[n] and first + n * (first - 1) ** 2 < 2**64
    rng = Random(n)
    cases = {"full rank": random_int_rows(rng, n, -9, 9),
             "rank n/2": ExactMatrix(low_rank_rows(rng, n, n // 2))._cleared()[0]}
    if n == 63:  # off the diagonal every entry is -1 modulo the first prime, the largest residue a field starts at
        cases["-1 mod p"] = [[rng.randint(-9, 9) if i == j else first * rng.randint(-2, 2) - 1 for j in range(n)]
                             for i in range(n)]
    for name, rows in cases.items():
        expected = matrix._eliminated(list(map(list, rows)))
        assert expected[0] == (n // 2 if name == "rank n/2" else n), name
        assert _rank_and_det(rows) == expected, name


@pytest.mark.parametrize("n", [255, 256])
def test_the_packed_kernel_at_its_next_field_edge(n):
    # 255 is the largest order with 28-bit fields and 256 the first with 27; too large for the Bareiss
    # oracle, so every rank and determinant here is known by construction
    bits = modular._field_bits(n)
    first = modular._prime(bits, 0)
    assert bits == {255: 28, 256: 27}[n] and first + n * (first - 1) ** 2 < 2**64
    rng = Random(n)
    # a unit upper triangle with sparse entries of +-1 above the diagonal, its rows permuted: det sgn(order)
    upper = [[int(i == j) or (rng.choice((-1, 1)) if j > i and rng.random() < 3 / n else 0) for j in range(n)]
             for i in range(n)]
    order = rng.sample(range(n), n)
    permuted = [upper[i] for i in order]
    assert _rank_and_det(permuted) == (n, sgn(Permutation([i + 1 for i in order])))
    # three rows that lead with a unit lower triangle, and integer combinations of them: rank 3
    base = [[*lead, *(rng.randint(-9, 9) for _ in range(n - 3))] for lead in ([1, 0, 0], [2, 1, 0], [5, -3, 1])]
    weights = [[rng.randint(-3, 3) for _ in base] for _ in range(n - 3)]
    rank3 = base + [[sum(w * e for w, e in zip(row, column)) for column in zip(*base)] for row in weights]
    rng.shuffle(rank3)
    assert _rank_and_det(rank3) == (3, 0)
    if n == 255:  # entries of -1 modulo the first prime, the largest residue a field starts at
        upper = [[1 if i == j else first * rng.randint(-2, 2) - 1 if j > i else 0 for j in range(n)] for i in range(n)]
        assert integer_rank(upper) == n
        # off the diagonal too: 2I - J modulo the first prime, whose determinant 2**254 * -253 it does not divide
        dense = [[1 if i == j else first * rng.randint(-2, 2) - 1 for j in range(n)] for i in range(n)]
        assert integer_rank(dense) == n


@pytest.mark.parametrize("bits", [27, 28, 29])
def test_is_prime_equals_trial_division_below_each_field_width(bits):
    found, q = [], (1 << bits) - 1
    while len(found) < 60:  # every odd value from 2**bits - 1 down to the 60th largest prime below it
        prime = all(q % d for d in range(3, math.isqrt(q) + 1, 2))
        assert modular._is_prime(q) == prime, q
        found += [q] * prime
        q -= 2
    assert [modular._prime(bits, k) for k in range(60)] == found


def test_the_field_width_holds_at_every_order_to_1024():
    for n in range(matrix.MODULAR_ORDER, 1025):
        p = modular._prime(modular._field_bits(n), 0)  # the largest prime of its width
        assert p + n * (p - 1) ** 2 < 2**64, n


def test_every_prime_at_order_65_fits_the_fields(monkeypatch):
    # from 65 on a field one bit wider overflows: 65 * (2**29 - 4)**2 > 2**64
    n = 65
    rng = Random(65)
    full = random_int_rows(rng, n, -9, 9)
    singular = [*full[:-1], [a - 2 * b for a, b in zip(full[3], full[7])]]
    primes = _counted_primes(monkeypatch)  # every prime of the kernel, forward and Gauss-Jordan
    combined = modular._combined  # and every prime of a lifting's products
    monkeypatch.setattr(modular, "_combined",
                        lambda vectors, pivots, inverse, p, *rest: primes.append(p) or combined(vectors, pivots, inverse, p, *rest))
    for rows in (full, singular):
        assert _rank_and_det(rows) == matrix._eliminated([r[:] for r in rows])
    assert len(primes) > 6 and all(p + n * (p - 1) ** 2 < 2**64 for p in primes)


@pytest.mark.parametrize("n", [64, 80])
def test_large_determinants_equal_bareiss_and_the_determinant_of_the_transpose(n):
    rng = Random(n + 7)
    rows = random_int_rows(rng, n, -30, 30)
    assert integer_det(rows) == integer_det([*zip(*rows)]) == matrix._eliminated([r[:] for r in rows])[1]


def test_the_search_and_the_functionals_leave_the_lifting_unloaded():
    code = ("import sys, dihedrant, dihedrant.cli; from dihedrant import ExactMatrix; "
            "ExactMatrix.identity(47).rank(); dihedrant.elimination_det(ExactMatrix.identity(47)); "
            "sys.exit('dihedrant.modular' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(matrix.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_the_modular_module_imports_nothing_from_the_package():
    tree = ast.parse(Path(modular.__file__).read_text(encoding="utf-8"))
    imported = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                or isinstance(node, (ast.Import, ast.ImportFrom)) and "dihedrant" in ast.unparse(node)]
    assert imported == []


@functools.lru_cache(maxsize=None)
def _wide_case() -> tuple[tuple[tuple[int, ...], ...], tuple[int, int]]:
    """Rows of order MODULAR_ORDER with entries of about 170 bits and full rank, and their rank and
    determinant by Bareiss.  Column 0 is the lifting's right-hand side b, so x = (1, 0, ..., 0) and
    no denominator divides out of the determinant: all of it is left to the primes."""
    rng = Random(170)
    n = matrix.MODULAR_ORDER
    rows = [[i * i % 7 - 3, *(rng.getrandbits(170) - (1 << 169) for _ in range(n - 1))] for i in range(n)]
    return tuple(map(tuple, rows)), matrix._eliminated(list(map(list, rows)))


def test_an_elimination_of_more_than_256_primes_equals_bareiss(monkeypatch):
    rows, (rank, det) = _wide_case()
    primes = _counted_primes(monkeypatch)
    with deadline(120):
        assert _rank_and_det(rows) == (rank, det) and rank == matrix.MODULAR_ORDER
    assert len(primes) > 256


# ---------------------------------------------------------------------------
# the signed-product kernel

def test_signed_product_sum_edge_cases():
    rows = [[2, 5], [7, 3]]
    assert signed_product_sum(rows, []) == 0
    assert signed_product_sum(rows, [((1, 2), 1)]) == 6
    assert signed_product_sum(rows, [((1, 2), 1), ((2, 1), -1)]) == 6 - 35


def test_signed_product_sum_reproduces_dihedrant():
    terms = [(e.perm.images, sig(e)) for e in dihedral_group(4)]
    assert signed_product_sum(MINUS15_ROWS, terms) == -15


def test_signed_product_sum_rejects_order_mismatch():
    with pytest.raises(ValueError):
        signed_product_sum(ExactMatrix.identity(3).rows, [((1, 2, 3, 4), 1)])


def test_signed_product_sum_exact_on_rational_entries():
    rows = ExactMatrix([["1/2", "1/3"], ["1/5", "1/7"]]).rows
    value = signed_product_sum(rows, [((1, 2), 1), ((2, 1), -1)])
    assert type(value) is Fraction
    assert value == Fraction(1, 14) - Fraction(1, 15)
