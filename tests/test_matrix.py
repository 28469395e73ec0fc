"""Exact matrices: structure operations, rank, and the signed-product kernel."""

import functools
import math
import os
from array import array
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest

from dihedrant import matrix
from dihedrant.matrix import (
    ExactMatrix,
    MatrixFormatError,
    echelon,
    parse_scalar,
    signed_product_sum,
)
from dihedrant.perm import Permutation, compose, dihedral_group, rotation_perm, sig

from dihedrant.functionals import dihedrant, elimination_det
from dihedrant.matrix_io import load_matrix
from dihedrant.schemes import false_sarrus_scheme

from conftest import (
    CPUS,
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
    if isinstance(bad, str):
        with pytest.raises(MatrixFormatError):
            parse_scalar(bad)
    with pytest.raises(ValueError):
        ExactMatrix([[bad]])


@pytest.mark.parametrize("bad", [[10**5000], (-(10**5000),), {10**5000: 1}])
def test_rejected_big_ints_are_described_without_conversion(int_digit_limit, bad):
    # under the default limit, str() of a 5,000-digit int raises; the message must not try it
    with pytest.raises(ValueError) as info:
        ExactMatrix([[bad]])
    message = str(info.value)
    assert message.startswith("entries must be exact") and len(message) <= 200
    assert "bits>" in message


def test_rejected_short_values_print_as_before():
    with pytest.raises(ValueError) as info:
        ExactMatrix([[[3, 10**50]]])
    assert str(info.value) == (
        "entries must be exact (int, Fraction, or 'p/q'), got [3, 100000000000000000...0000000000000000000]"
    )


def test_scalar_strings_go_through_parse_scalar():
    assert entry_of(" 3/4 ") == parse_scalar(" 3/4 ") == Fraction(3, 4)
    for parse in (parse_scalar, entry_of):
        with pytest.raises(MatrixFormatError, match="zero denominator"):
            parse("3/0")
    q = Fraction(5, 7)
    assert ExactMatrix([[q]])._grid[0][0] is q


def test_echelon_of_the_empty_matrix():
    assert echelon([]) == (0, 1)


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
    assert echelon(cleared[0]) == (3, 4)  # echelon only reads its rows: the cache stays as it was
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
# the elimination's two paths: Bareiss below MODULAR_ORDER, modulo primes from it on

def test_a_remainder_raises_in_the_bareiss_loop(monkeypatch):
    def broken_divmod(a, b):  # a quotient whose remainder is never 0
        return a // b, 1

    monkeypatch.setattr(matrix, "divmod", broken_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="produced a non-integer quotient"):
        echelon([[2, 1, 3, 1], [1, 4, 1, 2], [5, 2, 6, 1], [1, 1, 1, 3]])


@functools.lru_cache(maxsize=None)
def _modular_cases(n: int) -> dict[str, tuple[tuple[tuple[int, ...], ...], tuple[int, int]]]:
    """Integer matrices of order n, each with its rank and determinant by the Bareiss loop."""
    rng = Random(29 + n)
    rank_n_minus_1 = random_int_rows(rng, n, -9, 9)
    rank_n_minus_1[5] = [2 * a - b for a, b in zip(rank_n_minus_1[1], rank_n_minus_1[3])]
    base = random_int_rows(rng, n, -9, 9)[: n // 2]
    half_rank = base + [[-e for e in row] if rng.random() < 0.5 else row[:] for row in base]  # signed copies
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
    for n in (matrix.MODULAR_ORDER - 1, matrix.MODULAR_ORDER):
        for name, (rows, (rank, det)) in _modular_cases(n).items():
            assert (rank, det) == (gauss_rank(rows), gauss_det(rows)), (n, name)
            assert rank == {"rank n-1": n - 1, "rank n/2": n // 2, "zero column": n - 1, "all zero": 0}.get(name, n)


@pytest.mark.parametrize("spans", range(1, max(CPUS, 3) + 1))
def test_the_modular_path_equals_bareiss(spans, monkeypatch, forks):
    if spans > 1 and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(matrix, "_fork_spans", lambda most: spans)
    with deadline(120):
        for n in (matrix.MODULAR_ORDER - 1, matrix.MODULAR_ORDER):
            for name, (rows, expected) in _modular_cases(n).items():
                forks.clear()
                assert echelon(rows) == expected, (n, name)
                # the all-zero matrix is certified one prime at a time, and a one-prime batch runs in the caller
                assert bool(forks) == (spans > 1 and n == matrix.MODULAR_ORDER and name != "all zero"), (n, name)
                ranked = echelon(rows, det=False)
                assert ranked == (expected[0], expected[1] if n < matrix.MODULAR_ORDER else None), (n, name)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_primes(monkeypatch) -> list[int]:
    """The primes that matrix._eliminated_mod runs in this process from here on."""
    primes = []
    eliminated_mod = matrix._eliminated_mod

    def counted(m, p):
        primes.append(p)
        return eliminated_mod(m, p)

    monkeypatch.setattr(matrix, "_eliminated_mod", counted)
    return primes


def test_the_rank_of_a_full_rank_matrix_needs_one_prime(monkeypatch):
    rows = random_int_rows(Random(37), 128, -9, 9)
    A = ExactMatrix(rows)
    monkeypatch.setattr(matrix, "_fork_spans", lambda most: 1)
    primes = _counted_primes(monkeypatch)
    assert A.rank() == 128 and len(primes) == 1
    assert elimination_det(A) == matrix._eliminated(rows)[1] and len(primes) > 20  # Hadamard: about 760 bits


def test_a_full_rank_that_the_first_prime_misses_needs_no_determinant(monkeypatch):
    # the primes after the first certify the full rank; their determinants are not checked against a bound
    n = matrix.MODULAR_ORDER
    rows = random_int_rows(Random(41), n, -9, 9)
    rows[0] = [matrix._prime((64 - n.bit_length()) // 2, 0) * e for e in rows[0]]  # zero modulo the first prime
    monkeypatch.setattr(matrix, "_fork_spans", lambda most: 1)
    primes = _counted_primes(monkeypatch)
    assert ExactMatrix(rows).rank() == n and len(primes) > 2


@pytest.mark.parametrize("where", ["caller", "child"])
def test_a_wrong_residue_fails_the_check_prime(where, monkeypatch, forks):
    if where == "child" and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(matrix, "_fork_spans", lambda most: 1 if where == "caller" else 2)
    caller = os.getpid()
    rows, expected = _modular_cases(matrix.MODULAR_ORDER)["full rank"]
    first = matrix._prime((64 - matrix.MODULAR_ORDER.bit_length()) // 2, 0)  # always run in this process
    eliminated_mod = matrix._eliminated_mod

    def off_by_one(m, p):
        rank, det = eliminated_mod(m, p)
        wrong = p == first if where == "caller" else os.getpid() != caller
        return rank, (det + wrong) % p

    monkeypatch.setattr(matrix, "_eliminated_mod", off_by_one)
    with deadline(60), pytest.raises(ArithmeticError, match="a check prime disagrees"):
        echelon(rows)
    assert bool(forks) == (where == "child")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("det", [True, False])
def test_a_rank_above_the_certified_rank_fails_the_check_prime(det, monkeypatch):
    rows, (rank, _) = _modular_cases(matrix.MODULAR_ORDER)["rank n/2"]
    monkeypatch.setattr(matrix, "_fork_spans", lambda most: 1)
    primes = _counted_primes(monkeypatch)
    assert echelon(rows, det=det)[0] == rank == matrix.MODULAR_ORDER // 2
    check = primes[-1]  # the last prime run is the one that checks
    counted = matrix._eliminated_mod

    def one_too_many(m, p):
        rank_p, det_p = counted(m, p)
        return rank_p + (p == check), det_p

    monkeypatch.setattr(matrix, "_eliminated_mod", one_too_many)
    with pytest.raises(ArithmeticError, match="a check prime disagrees"):
        echelon(rows, det=det)


@pytest.mark.parametrize("n", [63, 64])
def test_the_packed_kernel_equals_bareiss_at_its_field_edges(n):
    # 63 is the largest order with 29-bit fields, where p + n * p * p < 2**64 is tightest; 64 the first with 28
    bits = (64 - n.bit_length()) // 2
    first = matrix._prime(bits, 0)
    assert bits == {63: 29, 64: 28}[n] and first + n * first * first < 2**64
    rng = Random(n)
    cases = {"full rank": random_int_rows(rng, n, -9, 9),
             "rank n/2": ExactMatrix(low_rank_rows(rng, n, n // 2))._cleared()[0]}
    if n == 63:  # off the diagonal every entry is -1 modulo the first prime, the largest residue a field starts at
        cases["-1 mod p"] = [[rng.randint(-9, 9) if i == j else first * rng.randint(-2, 2) - 1 for j in range(n)]
                             for i in range(n)]
    for name, rows in cases.items():
        expected = matrix._eliminated(list(map(list, rows)))
        assert expected[0] == (n // 2 if name == "rank n/2" else n), name
        assert echelon(rows) == expected, name
        assert echelon(rows, det=False)[0] == expected[0], name


@pytest.mark.parametrize("bits", [27, 28, 29])
def test_is_prime_equals_trial_division_below_each_field_width(bits):
    found, q = [], (1 << bits) - 1
    while len(found) < 60:  # every odd value from 2**bits - 1 down to the 60th largest prime below it
        prime = all(q % d for d in range(3, math.isqrt(q) + 1, 2))
        assert matrix._is_prime(q) == prime, q
        found += [q] * prime
        q -= 2
    assert [matrix._prime(bits, k) for k in range(60)] == found


@functools.lru_cache(maxsize=None)
def _wide_case() -> tuple[tuple[tuple[int, ...], ...], tuple[int, int]]:
    """Rows of order MODULAR_ORDER with entries of about 170 bits, and their rank and determinant by Bareiss."""
    rng = Random(170)
    n = matrix.MODULAR_ORDER
    rows = tuple(tuple(rng.getrandbits(170) - (1 << 169) for _ in range(n)) for _ in range(n))
    return rows, matrix._eliminated(list(map(list, rows)))


@pytest.mark.parametrize("spans", [1, 2])
def test_an_elimination_of_more_than_256_primes_equals_bareiss(spans, monkeypatch, forks):
    if spans > 1 and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    rows, expected = _wide_case()
    monkeypatch.setattr(matrix, "_fork_spans", lambda most: spans)
    primes = _counted_primes(monkeypatch)
    with deadline(120):
        assert echelon(rows) == expected and expected[0] == matrix.MODULAR_ORDER
    assert bool(forks) == (spans > 1)
    assert len(primes) > 256 or spans > 1  # a batch of more primes than the queue has positions
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
