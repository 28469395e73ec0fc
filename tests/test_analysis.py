"""Claim checkers, sign classification, report plumbing, and the search."""

import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dihedrant import analysis, matrix
from dihedrant.analysis import (
    CLAIMS,
    SearchConfig,
    SearchMode,
    TheoremReport,
    check_antitriangular,
    check_corner_pattern,
    check_counterexample_ledger,
    check_degenerate_orders,
    check_dihedral_permutation,
    check_equal_rows,
    check_multilinearity,
    check_oracle_agreement,
    check_order3_equality,
    check_rank_one,
    check_rank_two_small,
    check_sign_formulas,
    check_transpose_invariance,
    claim_ids,
    classify_signs,
    corner_pattern_mask,
    rank2_multilinear_expansion,
    run_claim,
    run_claims,
    search_dih_equals_det,
    transposition_count_reflection,
    transposition_count_rotation,
    RANK2_6X6_MATRIX,
    TWOS_ONES_MATRIX,
)
from dihedrant.functionals import dihedrant, leibniz_det
from dihedrant.matrix import ExactMatrix, echelon
from dihedrant.matrix_io import matrix_to_json
from dihedrant.perm import ResourceLimitError, reflection_perm, rotation_perm, sgn

from conftest import CPUS, deadline, plain_random_search, plain_search


# ---------------------------------------------------------------------------
# transposition-count formulas

def test_rotation_count_examples():
    for n in range(1, 10):
        assert transposition_count_rotation(n, 1) == 0
    assert transposition_count_rotation(4, 2) == 3
    assert sgn(rotation_perm(4, 2)) == -1  # odd count, odd permutation
    assert transposition_count_rotation(5, 3) == 6
    assert sgn(rotation_perm(5, 3)) == 1


def test_reflection_count_examples():
    assert transposition_count_reflection(4, 4) == 6
    assert sgn(reflection_perm(4, 4)) == 1
    assert transposition_count_reflection(3, 1) == 1
    assert sgn(reflection_perm(3, 1)) == -1
    for n in range(1, 10):
        assert transposition_count_reflection(n, n) == n * (n - 1) // 2


def test_count_range_errors():
    with pytest.raises(ValueError):
        transposition_count_rotation(4, 0)
    with pytest.raises(ValueError):
        transposition_count_reflection(4, 5)


def test_count_parity_matches_cycle_parity_up_to_twelve():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert (-1) ** transposition_count_rotation(n, k) == sgn(rotation_perm(n, k))
            assert (-1) ** transposition_count_reflection(n, k) == sgn(reflection_perm(n, k))


def test_check_sign_formulas_covers_all_cases():
    report = check_sign_formulas()
    assert report.claim_id == "lem:signs"
    assert report.trials == 156  # 78 rotations + 78 reflections for n <= 12
    assert report.failures == 0


def test_check_sign_formulas_reports_every_failure_and_the_first_case(monkeypatch):
    shifted = transposition_count_rotation
    monkeypatch.setattr(analysis, "transposition_count_rotation", lambda n, k: shifted(n, k) + 1)
    report = check_sign_formulas()
    assert (report.trials, report.failures) == (156, 78)  # every rotation, no reflection
    assert report.witness == '{"kind": "rotation", "n": 1, "k": 1}'


# ---------------------------------------------------------------------------
# sign classification

def test_classify_signs_order_three_all_agree():
    rows = classify_signs(3)
    assert len(rows) == 6
    assert all(r.agree for r in rows)


def test_classify_signs_order_four_half_agree():
    rows = classify_signs(4)
    assert len(rows) == 8
    assert sum(r.agree for r in rows) == 4


def test_classify_signs_rotation_rule_at_order_five():
    # rotations agree exactly when (k-1)(n-k+1) is even; at n=5 that is always
    for row in classify_signs(5)[:5]:
        k = row.element.index
        assert row.agree == ((k - 1) * (5 - k + 1) % 2 == 0)
    assert all(r.agree for r in classify_signs(5)[:5])


def test_classify_signs_closed_form():
    # rotations: disagreement iff n and k both even;
    # reflections: parity from triangular counts of k and n-k
    for n in range(1, 13):
        rows = classify_signs(n)
        for row in rows[:n]:
            k = row.element.index
            assert row.sgn == (-1 if n % 2 == 0 and k % 2 == 0 else 1)
        for row in rows[n:]:
            k = row.element.index
            odd = (k % 4 in (2, 3)) != ((n - k) % 4 in (2, 3))
            assert row.sgn == (-1 if odd else 1)


# ---------------------------------------------------------------------------
# identity suites

def test_identity_suites_pass():
    assert check_transpose_invariance(seed=1, trials=60).failures == 0
    assert check_dihedral_permutation(seed=1, trials=40).failures == 0
    assert check_multilinearity(seed=1, trials=60).failures == 0


def test_rank_suites_pass():
    assert check_rank_one(seed=2, trials=100).failures == 0
    assert check_equal_rows(seed=2, trials=100, odd_rows=1).failures == 0
    assert check_equal_rows(seed=2, trials=100, odd_rows=2).failures == 0
    assert check_rank_two_small(seed=2, trials=100).failures == 0


def test_a_failing_suite_counts_its_failures_and_keeps_the_first_witness(monkeypatch):
    real = analysis.dihedrant
    monkeypatch.setattr(analysis, "dihedrant", lambda A: 1 if A.n >= 6 else real(A))
    drawn = []
    for idx in range(20):  # the draws of check_rank_one, redrawn
        rng = Random((3 << 32) + idx)
        drawn.append(analysis._rank_one_matrix(rng, rng.randint(3, 6)))
    failing = [A for A in drawn if A.n >= 6]
    assert drawn[0].n < 6 and len(failing) > 1  # the first failure is not the first draw
    report = check_rank_one(seed=3, trials=20)
    assert (report.trials, report.failures) == (20, len(failing))
    assert report.witness == matrix_to_json(failing[0])


def test_three_identical_row_groups_can_break_cancellation():
    # (3,3) split at order six: the pairing argument stops working
    assert dihedrant(RANK2_6X6_MATRIX) == 1
    assert RANK2_6X6_MATRIX.rank() == 2


def test_degenerate_equality_and_oracles():
    assert check_degenerate_orders(seed=4, trials=50).failures == 0
    assert check_order3_equality(seed=4, trials=300).failures == 0
    assert check_oracle_agreement(seed=4, trials=30).failures == 0
    assert check_counterexample_ledger().failures == 0


# ---------------------------------------------------------------------------
# anti-triangular matrices

def test_antitriangular_orders_three_and_four():
    # order 3: dih == det == -(anti-diagonal product)
    A = ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert dihedrant(A) == leibniz_det(A) == -1
    # order 4: dih == -1 but det == +1
    B = ExactMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    assert dihedrant(B) == -1
    assert leibniz_det(B) == 1


def test_antitriangular_suite_per_order():
    for n in range(3, 10):
        report = check_antitriangular(n, trials=30, seed=5)
        assert report.failures == 0
        assert report.trials == 30


def test_antitriangular_rejects_degenerate_orders():
    with pytest.raises(ValueError):
        check_antitriangular(2)
    # the order-2 edge itself: the anti-diagonal permutation sits in D_2 twice,
    # once per kind, so the band cancels and dih != -(anti-diagonal product)
    A = ExactMatrix([[3, 2], [5, 0]])
    assert dihedrant(A) == 0
    assert -A.entry(1, 2) * A.entry(2, 1) == -10


def test_lower_right_antitriangular_matches_the_same_rule():
    # zero above the anti-diagonal; only the anti-diagonal summand survives
    A = ExactMatrix([[0, 0, 2], [0, 3, 4], [5, -1, 2]])
    product = A.entry(1, 3) * A.entry(2, 2) * A.entry(3, 1)
    assert dihedrant(A) == -product
    assert leibniz_det(A) == -product  # n = 3: n mod 4 == 3


# ---------------------------------------------------------------------------
# corner pattern

def test_corner_pattern_mask_order_four():
    assert corner_pattern_mask(4) == {
        (1, 1), (2, 2), (3, 3), (4, 4),
        (1, 2), (2, 3), (3, 4),
        (4, 1),
    }


def test_corner_pattern_order_three_always_agrees():
    report = check_corner_pattern(3, trials=100, seed=6)
    assert report.failures == 0
    assert report.observation == "dih=det held on 100/100 samples"


@pytest.mark.parametrize("n", range(2, 13))
def test_corner_pattern_closed_forms_hold(n):
    assert check_corner_pattern(n, trials=40, seed=n).failures == 0


def test_a_wrong_dihedrant_fails_the_corner_pattern(monkeypatch):
    real = analysis.dihedrant
    monkeypatch.setattr(analysis, "dihedrant", lambda A: real(A) + (A.n == 6))
    first = analysis._corner_pattern_rows(Random((5 << 32) + 0), 6)
    report = check_corner_pattern(6, trials=20, seed=5)
    assert (report.trials, report.failures) == (20, 20)
    assert report.witness == matrix_to_json(ExactMatrix(first))
    reports = run_claim("ex:corner", seed=5, trials=20)
    assert [r.failures for r in reports] == [0, 0, 20, 0, 0, 20]
    assert reports[-1].witness == report.witness


def test_corner_pattern_table_matches_two_permutation_analysis():
    # only the diagonal and the full cycle survive the mask, so
    # dih - det = (1 - sgn(cycle)) * cycle product: zero iff n is odd
    for n in range(4, 9):
        report = check_corner_pattern(n, trials=50, seed=6)
        held = int(report.observation.split()[3].split("/")[0])
        assert held == (50 if n % 2 == 1 else 0)


# ---------------------------------------------------------------------------
# seeded draws

@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (-1, 1), (0, 7), (-9, 9), (-3, 12)])
def test_int_draws_are_the_randint_stream(lo, hi):
    for seed in range(200):
        ours, theirs = Random(seed), Random(seed)
        assert analysis._ints(ours, 30, lo, hi) == [theirs.randint(lo, hi) for _ in range(30)]
        assert ours.random() == theirs.random()


def test_a_one_value_draw_still_consumes_bits():
    # randint(4, 4) draws one bit until it reads 0, so the stream moves on
    ours, theirs = Random(8), Random(8)
    assert analysis._ints(ours, 3, 4, 4) == [theirs.randint(4, 4) for _ in range(3)] == [4, 4, 4]
    assert ours.getstate() == theirs.getstate() != Random(8).getstate()


# ---------------------------------------------------------------------------
# rank-2 expansion

def test_rank2_expansion_counts_and_sums():
    rng = Random(79)
    for n in (4, 5, 6):
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        alphas = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        betas = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        terms = rank2_multilinear_expansion(a, b, alphas, betas)
        assert len(terms) == 2**n
        full = ExactMatrix(
            [[alphas[i] * x + betas[i] * y for x, y in zip(a, b)] for i in range(n)]
        )
        assert sum((c * dihedrant(M) for c, M in terms), Fraction(0)) == dihedrant(full)


def test_rank2_expansion_terms_vanish_at_orders_four_and_five():
    rng = Random(83)
    for n in (4, 5):
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        coeffs = [Fraction(1)] * n
        for _, M in rank2_multilinear_expansion(a, b, coeffs, coeffs):
            assert dihedrant(M) == 0


def test_rank2_expansion_length_mismatch():
    with pytest.raises(ValueError):
        rank2_multilinear_expansion((1, 2), (1, 2, 3), [Fraction(1)] * 2, [Fraction(1)] * 2)


# ---------------------------------------------------------------------------
# search

def test_search_rediscovers_the_recorded_hit():
    config = SearchConfig(n=4, entry_range=(1, 2), mode=SearchMode.EXHAUSTIVE, seed=0)
    hits = search_dih_equals_det(config, require_nonzero=True)
    assert TWOS_ONES_MATRIX.rows in hits
    rng = Random(89)
    for hit in rng.sample(hits, 25):
        A = ExactMatrix(hit)
        value = dihedrant(A)
        assert value == leibniz_det(A) and value != 0


def test_search_reports_identity_in_exhaustive_zero_one_space():
    config = SearchConfig(n=3, entry_range=(0, 1), mode=SearchMode.EXHAUSTIVE)
    hits = search_dih_equals_det(config, require_nonzero=True)
    assert ExactMatrix.identity(3).rows in hits


def test_search_order_two_nonzero_is_empty():
    config = SearchConfig(n=2, entry_range=(-2, 2), sample_count=200, seed=1)
    assert search_dih_equals_det(config, require_nonzero=True) == []


def test_search_is_reproducible_and_prefix_stable():
    config = SearchConfig(n=4, entry_range=(-2, 2), sample_count=300, seed=42)
    solo = search_dih_equals_det(config)
    assert solo == search_dih_equals_det(config)
    assert all(dihedrant(ExactMatrix(hit)) == leibniz_det(ExactMatrix(hit)) for hit in solo)
    # the first k samples, and so their hits, do not depend on sample_count
    longer = search_dih_equals_det(replace(config, sample_count=600))
    assert longer[: len(solo)] == solo and len(longer) > len(solo)


def test_search_budget_is_enforced(monkeypatch):
    config = SearchConfig(n=4, entry_range=(-9, 9), mode=SearchMode.EXHAUSTIVE)
    with pytest.raises(ResourceLimitError):
        search_dih_equals_det(config)
    # 2^9 matrices fit a budget of 2^9 exactly and overflow 2^9 - 1
    small = SearchConfig(n=3, entry_range=(0, 1), mode=SearchMode.EXHAUSTIVE)
    monkeypatch.setattr(analysis, "SEARCH_BUDGET", 2**9)
    assert ExactMatrix.identity(3).rows in search_dih_equals_det(small, require_nonzero=True)
    monkeypatch.setattr(analysis, "SEARCH_BUDGET", 2**9 - 1)
    with pytest.raises(ResourceLimitError):
        search_dih_equals_det(small)
    # a one-value range is a single matrix: at n = 3 it weighs one matrix of order 4
    monkeypatch.setattr(analysis, "SEARCH_BUDGET", 9)
    single = SearchConfig(n=3, entry_range=(2, 2), mode=SearchMode.EXHAUSTIVE)
    assert search_dih_equals_det(single) == [((2, 2, 2),) * 3]
    monkeypatch.setattr(analysis, "SEARCH_BUDGET", 10)
    with pytest.raises(ResourceLimitError):
        search_dih_equals_det(SearchConfig(n=3, sample_count=11))


def test_search_budget_weighs_the_order(monkeypatch):
    # one matrix of order 8 costs (8/4)**3 = 8 of order 4, sampled or as a one-value exhaustive space
    sampled = SearchConfig(n=8, entry_range=(2, 2), sample_count=1)
    single = replace(sampled, mode=SearchMode.EXHAUSTIVE)
    monkeypatch.setattr(analysis, "SEARCH_BUDGET", 8)
    for config in (sampled, single):
        assert search_dih_equals_det(config) == [((2,) * 8,) * 8]  # rank 1: dih = det = 0
    monkeypatch.setattr(analysis, "SEARCH_BUDGET", 7)
    for config in (sampled, replace(sampled, sample_count=0), single):
        with pytest.raises(ResourceLimitError, match="order 8 counts as 8 matrices of order 4"):
            search_dih_equals_det(config)


def test_the_space_check_bounds_the_walk(monkeypatch):
    # the exhaustive search multiplies n! + 2n partial products at each of its base**(n*l) tops of
    # depth l = 1..n-2; n*n products for E.x and n*n for D.x at each of the base**(n*(n-1)) pairs of
    # a top and a row x (the one constant row at n = 1); and at most base**n * n for each zero set,
    # of which it computes at most one per pair.  That never exceeds 2n * base**(n*n) products,
    # so the space check alone bounds it
    budget = analysis.SEARCH_BUDGET
    admitted = {}  # the largest base the budget admits at each order, from two values up
    for n in itertools.count(1):
        if 2 ** (n * n) > budget:
            break
        top = int(budget ** (1 / (n * n)))
        while (top + 1) ** (n * n) <= budget:
            top += 1
        while top ** (n * n) > budget:
            top -= 1
        admitted[n] = top
    assert admitted == {1: 2_000_000, 2: 37, 3: 5, 4: 2}  # the README's list
    for n in admitted:
        # at n = 1 both sides are linear in base, so its two ends cover every base between
        for base in (2, admitted[1]) if n == 1 else range(2, admitted[n] + 1):
            walk = sum(base ** (n * l) * (math.factorial(n) + 2 * n) for l in range(1, n - 1))
            scan = base ** (n * (n - 1)) * (2 * n * n + base**n * n)
            assert walk + scan <= 2 * n * base ** (n * n), (n, base)
    # and the search admits exactly these spaces, refusing the next base up before any walk
    monkeypatch.setattr(analysis, "_exhaustive_hits", lambda n, values, require_nonzero: [])
    for n, top in {**admitted, 5: 1}.items():
        if n in admitted:
            assert search_dih_equals_det(SearchConfig(n=n, entry_range=(1, top), mode=SearchMode.EXHAUSTIVE)) == []
        with pytest.raises(ResourceLimitError, match=f"exhaustive space of {top + 1}\\^{n * n} matrices"):
            search_dih_equals_det(SearchConfig(n=n, entry_range=(0, top), mode=SearchMode.EXHAUSTIVE))


@pytest.mark.parametrize("require_nonzero", [False, True])
@pytest.mark.parametrize(
    "n, lo, hi",
    [(1, -2, 2), (2, -2, 2), (3, 0, 1), (3, -1, 1), (3, -2, -1), (3, 4, 4), (5, -3, -3), (4, 0, 1)],
)
def test_exhaustive_search_equals_the_plain_enumerator(n, lo, hi, require_nonzero):
    config = SearchConfig(n=n, entry_range=(lo, hi), mode=SearchMode.EXHAUSTIVE)
    # list equality: the same hits in the same row-major odometer order
    assert search_dih_equals_det(config, require_nonzero) == plain_search(n, lo, hi, require_nonzero)


def test_exhaustive_search_at_order_three_lists_the_whole_box():
    # D_3 = S_3 and sig = sgn there, so every matrix is a hit
    config = SearchConfig(n=3, entry_range=(0, 3), mode=SearchMode.EXHAUSTIVE)
    rows = list(itertools.product(range(4), repeat=3))
    expected = list(itertools.product(rows, repeat=3))
    assert len(expected) == 262_144
    assert search_dih_equals_det(config) == expected


def test_exhaustive_search_at_order_two_lists_the_singular_matrices():
    # dih is identically 0 at order 2, so the hits are the matrices with det = ad - bc = 0
    config = SearchConfig(n=2, entry_range=(-9, 9), mode=SearchMode.EXHAUSTIVE)
    box = range(-9, 10)
    expected = [((a, b), (c, d)) for a, b, c, d in itertools.product(box, repeat=4) if a * d == b * c]
    assert len(expected) == 3041
    assert search_dih_equals_det(config) == expected
    assert search_dih_equals_det(config, require_nonzero=True) == []


def test_exhaustive_hits_share_their_last_rows():
    config = SearchConfig(n=4, entry_range=(1, 2), mode=SearchMode.EXHAUSTIVE)
    for require_nonzero, count in ((False, 20_952), (True, 3136)):
        hits = search_dih_equals_det(config, require_nonzero)
        assert len(hits) == count
        assert len({id(hit[-1]) for hit in hits}) <= 2**4


@st.composite
def small_spaces(draw):
    """(n, lo, hi) with n <= 3 inside [-3, 3], at most three values at n = 3 so the oracle stays fast."""
    n = draw(st.integers(1, 3))
    lo = draw(st.integers(-3, 3))
    return n, lo, draw(st.integers(lo, min(3, lo + (6, 6, 2)[n - 1])))


@settings(deadline=None)
@given(small_spaces(), st.booleans())
def test_exhaustive_search_is_the_plain_enumerator_on_drawn_spaces(space, require_nonzero):
    n, lo, hi = space
    config = SearchConfig(n=n, entry_range=(lo, hi), mode=SearchMode.EXHAUSTIVE)
    assert search_dih_equals_det(config, require_nonzero) == plain_search(n, lo, hi, require_nonzero)


def test_exhaustive_search_runs_no_elimination(monkeypatch, forks):
    def refuse(m):
        raise AssertionError("the exhaustive search called echelon")

    monkeypatch.setattr(analysis, "echelon", refuse)
    config = SearchConfig(n=4, entry_range=(1, 2), mode=SearchMode.EXHAUSTIVE)
    assert len(search_dih_equals_det(config, require_nonzero=True)) == 3136
    assert forks == []  # so the refusal was in force where the search ran


@pytest.mark.parametrize("n", range(1, 8))
def test_two_row_coefficients_match_elimination(n):
    def times(M, x):
        return [sum(a * b for a, b in zip(coeffs, x)) for coeffs in M]

    if n == 1:  # no row n-1: dih = 0 * r and det = 1 * r, so D = [0] and E = D - C = [-1] act on (1,)
        assert list(analysis._last_row_coefficients(1, [])) == [((), [(0,)], [(-1,)])]
        return
    rng = Random(n)
    prefixes = [tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n - 1)) for _ in range(20)]
    deficient = []
    for prefix in prefixes[:10]:
        # one row an integer combination of the others (a zero row at n = 2): rank below n - 1
        k = rng.randrange(n - 1)
        others = prefix[:k] + prefix[k + 1 :]
        coeffs = [rng.randint(-3, 3) for _ in others]
        combined = tuple(sum(c * row[col] for c, row in zip(coeffs, others)) for col in range(n))
        deficient.append(prefix[:k] + (combined,) + prefix[k + 1 :])
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for prefix in prefixes + deficient:
        *top, x = prefix  # the top n-2 rows are walked; x is row n-1
        [(walked, D, E)] = analysis._last_row_coefficients(n, [[row] for row in top])
        assert walked == tuple(top)
        assert len(D) == len(E) == n and all(len(row) == n for row in D + E)
        d, e = times(D, x), times(E, x)
        assert d == [dihedrant(ExactMatrix(prefix + (unit,))) for unit in units]
        minors = [echelon([[*row[:j], *row[j + 1 :]] for row in prefix])[1] for j in range(n)]
        c = [dj - ej for dj, ej in zip(d, e)]
        assert c == [(-1) ** (n - 1 + j) * minor for j, minor in enumerate(minors)]
        if prefix in deficient:
            assert c == [0] * n


def test_search_hits_are_integer_rows_and_build_no_matrix(monkeypatch, forks):
    built = 0
    init = ExactMatrix.__init__

    def counted(self, rows):
        nonlocal built
        built += 1
        init(self, rows)

    monkeypatch.setattr(ExactMatrix, "__init__", counted)
    exhaustive = SearchConfig(n=4, entry_range=(1, 2), mode=SearchMode.EXHAUSTIVE)
    random = SearchConfig(n=4, entry_range=(-2, 2), sample_count=300, seed=42)
    for config in (exhaustive, random):
        hits = search_dih_equals_det(config)
        assert isinstance(hits, list) and hits
        assert all(type(e) is int for hit in hits for row in hit for e in row)
    assert forks == []  # below the fork threshold, so every construction would count here
    assert built == 0


def _fork_counts(n: int) -> tuple[int, int]:
    """The largest sample count a search of order n runs in one span, and the least it splits in two."""
    least = -(-2 * analysis.FORK_WEIGHT // max(n, 4) ** 3)
    return least - 1, least


def _forked_config() -> SearchConfig:
    return SearchConfig(n=5, entry_range=(-1, 1), sample_count=_fork_counts(5)[1], seed=5)


needs_two_spans = pytest.mark.skipif(
    not hasattr(os, "fork") or CPUS < 2, reason="needs os.fork and two usable CPUs"
)


@pytest.mark.parametrize("require_nonzero", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_random_search_equals_the_plain_sampler(n, require_nonzero, forks):
    below, least = _fork_counts(n)
    # counts 0 and 1, both sides of the fork threshold, and (of least, least + 1) one not divisible by CPUS
    for count in (0, 1, below, least, least + 1):
        forks.clear()
        config = SearchConfig(n=n, entry_range=(-1, 1), sample_count=count, seed=5)
        hits = search_dih_equals_det(config, require_nonzero)
        # list equality: the same hits in sample order, however the samples were split
        assert hits == plain_random_search(n, -1, 1, count, 5, require_nonzero)
        assert hits or count <= 1
        assert bool(forks) == (count >= least and CPUS > 1 and hasattr(os, "fork")), count


def _forked_search() -> list:
    return search_dih_equals_det(_forked_config(), require_nonzero=True)


def _forked_claims() -> list:
    return run_claims(claim_ids(), seed=5, trials=5)


def _forked_elimination() -> tuple[int, int]:
    n = matrix.MODULAR_ORDER
    return echelon([[(i * i + 3 * j) % 19 - 9 + (i == j) * i for j in range(n)] for i in range(n)])


# every caller of the fork-join, each large enough to fork, with a function that each of its spans calls:
# the search and the claims draw their samples through analysis._draws, and every prime span of an
# elimination runs each of its primes through matrix._eliminated_mod
forked_callers = pytest.mark.parametrize(
    "forked, hook",
    [(_forked_search, (analysis, "_draws")), (_forked_claims, (analysis, "_draws")),
     (_forked_elimination, (matrix, "_eliminated_mod"))],
    ids=["search", "claims", "elimination"],
)


@needs_two_spans
@forked_callers
def test_a_forked_search_leaves_no_child(forked, hook, forks):
    assert forked()
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_spans
@forked_callers
def test_an_exception_in_a_forked_span_reaches_the_caller(forked, hook, monkeypatch, forks):
    parent = os.getpid()
    original = getattr(*hook)
    paused = []

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise OverflowError("a forked span failed")
        if len(paused) < 2:  # so every child pulls a chunk before this process can empty the queue; two,
            paused.append(time.sleep(0.2))  # as an elimination's first prime runs here before any fork
        return original(*args)

    monkeypatch.setattr(*hook, fails_in_a_child)
    with deadline(60), pytest.raises(OverflowError, match="a forked span failed") as raised:
        forked()
    assert type(raised.value) is OverflowError and forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_spans
@forked_callers
def test_an_interrupted_search_kills_and_reaps_its_children(forked, hook, monkeypatch, forks):
    parent = os.getpid()
    original = getattr(*hook)

    def interrupted(*args):
        if os.getpid() == parent:
            if not forks:  # an elimination's first prime runs in this process before any span forks
                return original(*args)
            raise KeyboardInterrupt
        time.sleep(20)  # a child the caller waits for, rather than kills, holds it this long
        raise OverflowError("a forked span outlived the interrupt")

    monkeypatch.setattr(*hook, interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        forked()
    assert forks and time.monotonic() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the caller, with SIGPIPE at its default action, and a hook that fails in every forked span
_SIGPIPE_SCRIPT = """
import os, signal, sys, time
signal.signal(signal.SIGPIPE, signal.SIG_DFL)
import test_analysis
module, name, forked = sys.modules[sys.argv[1]], sys.argv[2], getattr(test_analysis, sys.argv[3])
original, parent, paused = getattr(module, name), os.getpid(), []

def fails_in_a_child(*args):
    if os.getpid() != parent:
        raise OverflowError("a forked span failed")
    if len(paused) < 2:  # so every child fails before this process reads from or writes to a pipe; two,
        paused.append(time.sleep(0.2))  # as an elimination's first prime runs here before any fork
    return original(*args)

setattr(module, name, fails_in_a_child)
forked()
"""


@needs_two_spans
@forked_callers
def test_a_failing_span_raises_with_sigpipe_at_its_default_action(forked, hook):
    # a process that writes to a pipe no one reads would die of SIGPIPE (exit status 141 in a shell)
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])}
    argv = [sys.executable, "-c", _SIGPIPE_SCRIPT, hook[0].__name__, hook[1], forked.__name__]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-2000:])
    assert proc.stderr.rstrip().endswith("OverflowError: a forked span failed"), proc.stderr[-2000:]


@forked_callers
def test_other_threads_keep_every_span_in_the_caller(forked, hook, forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait)  # a forked child would not have this thread
    other.start()
    try:
        assert forked()
    finally:
        release.set()
        other.join(timeout=10)
    assert forks == [] and not other.is_alive()


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=0)
    with pytest.raises(ValueError):
        SearchConfig(n=3, entry_range=(2, 1))
    with pytest.raises(ValueError):
        SearchConfig(n=3, sample_count=-1)


def test_negative_seeds_are_rejected():
    # Random(-x) seeds like Random(x), so a negative seed would repeat a positive one's stream
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SearchConfig(n=3, seed=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        run_claim("thm:AT", seed=-1)


# ---------------------------------------------------------------------------
# reports and the registry

def test_report_rendering():
    plain = TheoremReport("thm:AT", 200, 0)
    assert plain.render() == "thm:AT  200  0"
    failed = TheoremReport("thm:perm", 10, 2, witness="[[1, 2], [3, 4]]")
    assert failed.render() == "thm:perm  10  2\n  witness: [[1, 2], [3, 4]]"
    observed = TheoremReport("ex:corner:n=4", 5, 0, observation="dih=det held on 0/5 samples")
    assert observed.render().splitlines()[1] == "  observed: dih=det held on 0/5 samples"


def test_report_invariants():
    with pytest.raises(ValueError):
        TheoremReport("x", 5, 1)  # failure without witness
    with pytest.raises(ValueError):
        TheoremReport("x", 5, 0, witness="[[1]]")  # witness without failure
    with pytest.raises(ValueError):
        TheoremReport("x", 5, 6, witness="[[1]]")


def test_registry_runs_every_claim():
    assert len(claim_ids()) == 16
    for claim_id in claim_ids():
        reports = run_claim(claim_id, seed=11, trials=5)
        assert reports, claim_id
        assert all(r.failures == 0 for r in reports), claim_id


def test_registry_rejects_unknown_claims():
    with pytest.raises(KeyError):
        run_claim("thm:unknown")


def test_every_claim_is_named_in_the_module_docstring():
    assert all(f"    {claim_id} " in analysis.__doc__ for claim_id in CLAIMS)


def test_run_claims_reports_as_each_claim_run_alone(forks):
    ids = [*claim_ids(), "thm:AT"]  # a repeated id is run, and reported, twice
    reports = run_claims(ids, seed=11, trials=5)
    assert bool(forks) == (CPUS > 1 and hasattr(os, "fork"))
    assert reports == [report for claim_id in ids for report in run_claim(claim_id, seed=11, trials=5)]


@pytest.mark.parametrize("claims, forked", [(2, True), (256, True), (257, True)])
def test_the_claim_queue_forks_up_to_one_byte_of_positions(monkeypatch, forks, claims, forked):
    patched = dict(CLAIMS)
    patched["test:cheap"] = analysis.Claim("test:cheap", lambda seed, trials: [TheoremReport("test:cheap", trials, 0)])
    monkeypatch.setattr(analysis, "CLAIMS", patched)
    assert run_claims(["test:cheap"] * claims, trials=3) == [TheoremReport("test:cheap", 3, 0)] * claims
    assert bool(forks) == (forked and CPUS > 1 and hasattr(os, "fork"))


@pytest.mark.parametrize("ids, seed, trials, error", [
    (["thm:AT", "thm:unknown"], 0, 1, KeyError),
    (["thm:AT", "oracle:elim"], 0, 0, ValueError),
    (["thm:AT", "oracle:elim"], -1, 1, ValueError),
    (["thm:AT", "oracle:elim"], 0, analysis.MAX_TRIALS + 1, ResourceLimitError),
    (["thm:AT"], 0, 10**20, ResourceLimitError),
])
def test_run_claims_checks_its_arguments_before_any_claim_or_fork(monkeypatch, forks, ids, seed, trials, error):
    ran = []
    monkeypatch.setattr(analysis, "CLAIMS", {
        claim_id: claim._replace(run=lambda seed, trials, claim_id=claim_id: ran.append(claim_id) or [])
        for claim_id, claim in CLAIMS.items()
    })
    with pytest.raises(error):
        run_claims(ids, seed, trials)
    assert ran == [] and forks == []
