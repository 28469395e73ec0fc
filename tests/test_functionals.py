"""The dihedrant, the expansion-oracle determinant, and elimination."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from dihedrant import functionals, matrix
from dihedrant.functionals import dihedrant, elimination_det, leibniz_det, symmetric_terms
from dihedrant.matrix import ExactMatrix
from dihedrant.perm import Permutation, ResourceLimitError, dihedral_group, sgn, sig, symmetric_group

from dihedrant.schemes import false_sarrus_scheme

from conftest import cofactor_det, gauss_det, low_rank_rows, random_int_rows, random_rational_rows

MINUS15 = ExactMatrix([[1, 0, 0, -1], [1, -3, 0, -3], [1, 1, 5, 5], [0, 0, 0, 1]])
TWOS_ONES = ExactMatrix([[2, 2, 2, 2], [1, 2, 1, 1], [2, 2, 2, 1], [1, 2, 2, 1]])
ZERO_ONE_6X6 = ExactMatrix([
    [1, 1, 0, 0, 1, 0],
    [1, 1, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1],
    [1, 1, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1],
])
RANK3 = ExactMatrix([[1, 2, 3, 4], [1, 2, 3, 4], [1, 0, 0, 0], [0, 0, 0, 1]])


def small_matrix(max_n=5, bound=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(ExactMatrix)
    )


# ---------------------------------------------------------------------------
# dihedrant values

def test_dihedrant_vanishes_at_orders_one_and_two():
    rng = Random(29)
    for _ in range(100):
        assert dihedrant(ExactMatrix([[rng.randint(-9, 9)]])) == 0
        assert dihedrant(ExactMatrix(random_int_rows(rng, 2, -9, 9))) == 0


def test_dihedrant_recorded_values():
    assert dihedrant(MINUS15) == -15
    assert dihedrant(ZERO_ONE_6X6) == 1
    assert dihedrant(RANK3) == -6
    assert dihedrant(TWOS_ONES) == 2


def test_dihedrant_of_identity():
    for n in range(3, 9):
        assert dihedrant(ExactMatrix.identity(n)) == 1


def test_dihedrant_of_identity_with_swapped_columns_is_zero():
    A = ExactMatrix.identity(4).permute_columns(Permutation((2, 1, 3, 4)))
    assert dihedrant(A) == 0
    assert leibniz_det(A) == -1


def test_column_swap_outside_dihedral_group_breaks_sign_rule():
    # det would scale by sgn = -1; the dihedrant does not follow suit
    identity = ExactMatrix.identity(4)
    swapped = identity.permute_columns(Permutation((2, 1, 3, 4)))
    assert dihedrant(swapped) != -dihedrant(identity)


def test_dihedrant_expansion_at_order_four():
    # eight monomials: the four falling diagonals plus, then the four rising minus
    terms = [(e.perm.images, sig(e)) for e in dihedral_group(4)]
    assert terms == [
        ((1, 2, 3, 4), 1),
        ((2, 3, 4, 1), 1),
        ((3, 4, 1, 2), 1),
        ((4, 1, 2, 3), 1),
        ((1, 4, 3, 2), -1),
        ((2, 1, 4, 3), -1),
        ((3, 2, 1, 4), -1),
        ((4, 3, 2, 1), -1),
    ]
    # same eight monomials as the written-out band formula, signs (+ + + + - - - -)
    band_order = [
        ((1, 2, 3, 4), 1),
        ((2, 3, 4, 1), 1),
        ((3, 4, 1, 2), 1),
        ((4, 1, 2, 3), 1),
        ((4, 3, 2, 1), -1),
        ((1, 4, 3, 2), -1),
        ((2, 1, 4, 3), -1),
        ((3, 2, 1, 4), -1),
    ]
    assert set(terms) == set(band_order)


# ---------------------------------------------------------------------------
# dihedrant identities

@given(small_matrix())
def test_dihedrant_is_transpose_invariant(A):
    assert dihedrant(A.transpose()) == dihedrant(A)


def test_dihedral_column_permutations_scale_by_sig():
    rng = Random(31)
    for n in range(3, 6):
        A = ExactMatrix(random_int_rows(rng, n))
        base = dihedrant(A)
        for elem in dihedral_group(n):
            assert dihedrant(A.permute_columns(elem.perm)) == sig(elem) * base
            assert dihedrant(A.permute_rows(elem.perm)) == sig(elem) * base


def test_dihedrant_is_linear_in_rows():
    rng = Random(37)
    for _ in range(40):
        n = rng.randint(2, 5)
        A = ExactMatrix(random_int_rows(rng, n))
        j = rng.randint(1, n)
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = tuple(rng.randint(-4, 4) for _ in range(n))
        lhs = dihedrant(A.linear_combination_row(j, alpha, beta, b))
        rhs = alpha * dihedrant(A) + beta * dihedrant(A.linear_combination_row(j, 0, 1, b))
        assert lhs == rhs


def test_dihedrant_on_rational_entries_matches_the_group_sum():
    rng = Random(39)
    for n in (1, 2, 3, 5, 8, 13):
        rows = random_rational_rows(rng, n, n)
        expected = Fraction(0)
        for elem in dihedral_group(n):
            product = Fraction(1)
            for i in range(1, n + 1):
                product *= rows[i - 1][elem.perm(i) - 1]
            expected += sig(elem) * product
        assert dihedrant(ExactMatrix(rows)) == expected


def test_order_three_dihedrant_equals_determinant():
    rng = Random(41)
    for _ in range(10_000):
        A = ExactMatrix(random_int_rows(rng, 3, -2, 2))
        assert dihedrant(A) == leibniz_det(A)


# ---------------------------------------------------------------------------
# leibniz determinant

def test_leibniz_basics():
    assert leibniz_det(ExactMatrix.identity(3)) == 1
    rng = Random(43)
    for _ in range(50):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        assert leibniz_det(ExactMatrix([[a, b], [c, d]])) == a * d - b * c
    assert leibniz_det(TWOS_ONES) == 2
    assert leibniz_det(ExactMatrix([["1/2", "1/3"], ["1/5", "1/7"]])) == Fraction(1, 14) - Fraction(1, 15)


def test_symmetric_terms_match_the_cycle_walk():
    for n in range(1, 9):
        assert list(symmetric_terms(n)) == [(p.images, sgn(p)) for p in symmetric_group(n)]


def test_leibniz_det_never_reaches_the_kernel_it_checks(monkeypatch):
    rng = Random(61)
    cases = [ExactMatrix(random_int_rows(rng, n)) for n in range(1, 7)]
    cases += [ExactMatrix(random_rational_rows(rng, n, n)) for n in range(1, 7)]
    expected = [gauss_det(A._grid) for A in cases]

    def refuse(*args):
        raise AssertionError("leibniz_det reached the clearing step or the elimination kernel")

    monkeypatch.setattr(matrix, "integer_det", refuse)
    monkeypatch.setattr(functionals, "integer_det", refuse)
    monkeypatch.setattr(ExactMatrix, "_cleared", refuse)
    with pytest.raises(AssertionError):  # the patches bite
        elimination_det(cases[-1])
    assert [leibniz_det(A) for A in cases] == expected


def test_leibniz_respects_the_cap():
    with pytest.raises(ResourceLimitError, match="cap of 10"):
        leibniz_det(ExactMatrix.identity(11))


# ---------------------------------------------------------------------------
# elimination determinant

def test_elimination_det_on_singular_matrix():
    rng = Random(47)
    rows = random_int_rows(rng, 5)
    rows[3] = rows[1][:]
    assert elimination_det(ExactMatrix(rows)) == 0


def test_elimination_det_on_triangular_matrix():
    rng = Random(53)
    n = 8
    rows = [[rng.randint(-5, 5) if j > i else 0 for j in range(n)] for i in range(n)]
    expected = Fraction(1)
    for i in range(n):
        rows[i][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        expected *= rows[i][i]
    assert elimination_det(ExactMatrix(rows)) == expected


def test_elimination_det_agrees_with_leibniz():
    rng = Random(59)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = random_int_rows(rng, n)
        assert elimination_det(ExactMatrix(rows)) == leibniz_det(ExactMatrix(rows))


def test_elimination_det_handles_rational_entries():
    rng = Random(61)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        A = ExactMatrix(rows)
        assert elimination_det(A) == leibniz_det(A)


@pytest.mark.parametrize("n", [7, 12, 24, 40])
def test_elimination_det_matches_plain_gauss_above_the_oracle_cap(n):
    rng = Random(60 + n)
    rational = random_rational_rows(rng, n, n)
    integer = random_int_rows(rng, n, -9, 9)
    singular = [row[:] for row in rational]
    singular[-1] = [2 * x - y for x, y in zip(singular[0], singular[n // 2])]
    cases = (rational, integer, singular, low_rank_rows(rng, n, n // 3 + 1))
    for rows in cases:
        assert elimination_det(ExactMatrix(rows)) == gauss_det(rows)
    assert gauss_det(rational) != 0 and gauss_det(singular) == 0



# ---------------------------------------------------------------------------
# stored ints and the cleared rows

_MIXED_ENTRY = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_MIXED_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_functionals_are_exact_on_grids_that_mix_ints_and_fractions(rows):
    A = ExactMatrix(rows)
    fractions = [[Fraction(e) for e in row] for row in rows]
    group_sum = sum(
        (sig(elem) * math.prod(fractions[i][j - 1] for i, j in enumerate(elem.perm.images))
         for elem in dihedral_group(len(rows))),
        Fraction(0),
    )
    assert dihedrant(A) == group_sum
    assert elimination_det(A) == leibniz_det(A) == gauss_det(fractions)


def test_functionals_on_an_int_matrix_build_only_their_value(fractions_built):
    A = ExactMatrix([[1, 0, 0, -1], [1, -3, 0, -3], [1, 1, 5, 5], [0, 0, 0, 1]])
    dihedrant(A)  # the D_4 terms are built once per order
    for functional, built, expected in ((dihedrant, 1, -15), (elimination_det, 1, -15), (ExactMatrix.rank, 0, 4)):
        fresh = ExactMatrix(A._grid)  # a new matrix, whose integer rows its constructor cleared
        fractions_built.clear()
        value = functional(fresh)
        assert len(fractions_built) == built and value == expected
    fractions_built.clear()
    value = false_sarrus_scheme(4).evaluate(A)
    assert len(fractions_built) == 1 and value == -15


def test_the_cofactor_oracle_agrees_with_gauss():
    rng = Random(71)
    assert cofactor_det([]) == 1
    for n in range(1, 6):
        for _ in range(20):
            rows = random_int_rows(rng, n, -4, 4)
            assert cofactor_det(rows) == gauss_det(rows)
