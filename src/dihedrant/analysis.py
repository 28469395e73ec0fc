"""Executable checks for every identity, bound, and counterexample.

Each check draws seeded random matrices from the relevant hypothesis class,
tests the claimed identity exactly, and returns a :class:`TheoremReport`.
Sample streams are derived per index from the seed, so results never depend
on evaluation order.  Every functional runs on the package's one exact
integer layer (:mod:`dihedrant.matrix`); the search calls its kernels
directly on integer tuples.

The registry maps claim ids to runners (see ``claim_ids`` / ``run_claim``):

    fixtures:ledger   known matrices reproduce their recorded values
    eq:degenerate     dih == 0 for all 1x1 and 2x2 matrices
    eq:n3             dih == det at order 3
    thm:AT            dih(A^T) == dih(A)
    thm:perm          dihedral column/row permutation scales dih by sig
    thm:linear        dih is linear in each row
    thm:rank1         rank-1 matrices have dih == 0
    thm:rows1         n-1 identical rows force dih == 0
    thm:rows2         an (n-2, 2) split of identical rows forces dih == 0
    cor:rank2         rank <= 2 forces dih == 0 at orders 4 and 5
    lem:signs         transposition-count formulas match cycle parity
    thm:antitri       anti-triangular matrices: dih == -(anti-diagonal
                      product), equal to det exactly when n mod 4 in {2, 3}
    scheme:4x4        the three-coset scheme partitions S_4 and sums to det
    oracle:elim       elimination determinant agrees with the n!-term oracle
    ex:expansion      rank-2 multilinear expansion has exactly 2^n terms
    ex:corner         corner-pattern matrices: dih and det match their
                      two-term closed forms; dih == det tallied per order

``run_claims`` hands its claims, the slowest (``oracle:elim``, ``thm:antitri``,
``ex:corner``) first, to the one fork-join, :func:`dihedrant.forks._joined`, and the
reports come back in the order asked, so the output does not depend on the CPUs.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import astuple, dataclass, replace
from enum import Enum
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .forks import _joined
from .functionals import dihedral_terms, dihedrant, elimination_det, leibniz_det, symmetric_terms
from .matrix import ExactMatrix, integer_det, signed_product_sum
from .matrix_io import matrix_to_json
from .perm import (
    DihedralElement,
    ResourceLimitError,
    _check_int,
    _check_order,
    _check_order_index,
    dihedral_group,
    reflection_perm,
    rotation_perm,
    sgn,
    sig,
)
from .schemes import corrected_scheme_4x4, scheme_signs_within_D4

T = TypeVar("T")


class SearchMode(Enum):
    RANDOM = "random"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class SearchConfig:
    """The space and sampling plan of one search for dih == det; ``mode`` may be given by its value."""

    n: int
    entry_range: tuple[int, int] = (-9, 9)
    sample_count: int = 200
    seed: int = 0
    mode: SearchMode = SearchMode.RANDOM

    def __post_init__(self) -> None:
        try:
            lo, hi = self.entry_range
        except (TypeError, ValueError):  # not iterable, or not two values
            raise ValueError(f"entry_range must be a pair of ints, got {self.entry_range!r}") from None
        object.__setattr__(self, "entry_range", (lo, hi))  # an iterator is read once, a list is unhashable
        _check_order(self.n)
        _check_int("entry_range[0]", lo)
        _check_int("entry_range[1]", hi)
        _check_int("sample_count", self.sample_count, nonnegative=True)
        _check_int("seed", self.seed, nonnegative=True)  # Random(-x) seeds like Random(x)
        object.__setattr__(self, "mode", SearchMode(self.mode))  # a bare "exhaustive" would read as random
        if lo > hi:
            raise ValueError(f"empty entry range [{lo}, {hi}]")


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one claim: trial count, failures, optional evidence."""

    claim_id: str
    trials: int
    failures: int
    witness: str | None = None
    observation: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:  # a claim checked on no case would read as a pass
            raise ValueError(f"a report needs at least 1 trial, got {self.trials}")
        if not 0 <= self.failures <= self.trials:
            raise ValueError("failures must lie in 0..trials")
        if (self.failures > 0) != (self.witness is not None):
            raise ValueError("witness must be present exactly when failures > 0")

    def render(self) -> str:
        lines = [f"{self.claim_id}  {self.trials}  {self.failures}"]
        if self.observation is not None:
            lines.append(f"  observed: {self.observation}")
        if self.witness is not None:
            lines.append(f"  witness: {self.witness}")
        return "\n".join(lines)


def _report(
    claim_id: str, outcomes: Iterable[tuple[bool, T]], describe: Callable[[T], str] = matrix_to_json
) -> TheoremReport:
    """Count the (holds, case) outcomes; the first failing case, described, is the witness."""
    trials = failures = 0
    witness = None
    for holds, case in outcomes:
        trials += 1
        if not holds:
            failures += 1
            if witness is None:
                witness = describe(case)
    return TheoremReport(claim_id, trials, failures, witness)


def _draws(seed: int, trials: int, draw: Callable[[Random], T], offset: int = 0) -> Iterator[T]:
    """draw(rng) on the streams of indices offset .. offset + trials - 1, lazily; seed and trials
    are checked at the call.  0 trials pass here, and a report refuses them as vacuous."""
    _check_int("seed", seed, nonnegative=True)
    _check_int("trials", trials, nonnegative=True)
    # one child stream per sample index, so scheduling cannot reorder draws
    return (draw(Random((seed << 32) + index)) for index in range(offset, offset + trials))


def _ints(rng: Random, count: int, lo: int, hi: int) -> list[int]:
    """count draws of rng.randint(lo, hi) at a third of the calls: randint ends in
    Random._randbelow_with_getrandbits, which rejects width.bit_length()-bit draws >= width."""
    width = hi - lo + 1
    k = width.bit_length()
    bits = rng.getrandbits
    draws = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        draws.append(lo + r)
    return draws


def _square(rng: Random, n: int, lo: int, hi: int) -> IntRows:
    """n * n draws in [lo, hi], row by row."""
    return tuple(zip(*[iter(_ints(rng, n * n, lo, hi))] * n))


def _random_matrix(rng: Random, n: int, lo: int = -5, hi: int = 5) -> ExactMatrix:
    return ExactMatrix(_square(rng, n, lo, hi))


def _nonzero_int(rng: Random, bound: int) -> int:
    value = _ints(rng, 1, 1, bound)[0]
    return value if rng.random() < 0.5 else -value


def _random_vector(rng: Random, n: int, lo: int = -4, hi: int = 4) -> tuple[int, ...]:
    return tuple(_ints(rng, n, lo, hi))


def _nonzero_vector(rng: Random, n: int) -> tuple[int, ...]:
    while True:
        vec = _random_vector(rng, n)
        if any(vec):
            return vec


# ---------------------------------------------------------------------------
# sign formulas and their classification table

def transposition_count_rotation(n: int, k: int) -> int:
    """(k-1)(n-k+1): transpositions needed to sort the k-th rotation."""
    _check_order_index(n, k)
    return (k - 1) * (n - k + 1)


def transposition_count_reflection(n: int, k: int) -> int:
    """(n-k-1)(n-k)/2 + k(k-1)/2: transpositions sorting the k-th reflection."""
    _check_order_index(n, k)
    return (n - k - 1) * (n - k) // 2 + k * (k - 1) // 2


class SignRow(NamedTuple):
    element: DihedralElement
    sig: int
    sgn: int
    agree: bool


def classify_signs(n: int) -> list[SignRow]:
    """For every element of D_n: band sign, true parity, and agreement.

    Parity is ``perm.sgn``'s, from the cycle decomposition.  Claim ``lem:signs``
    checks it against the transposition-count formulas, whose closed form is
    sgn(rho_k) = -1 iff n and k are both even; sgn(mu_k) = (-1)**(C(k,2) +
    C(n-k,2)), where C(m,2) is odd iff m mod 4 is 2 or 3.
    """
    rows = []
    for elem in dihedral_group(n):
        parity = sgn(elem.perm)
        rows.append(SignRow(elem, sig(elem), parity, parity == sig(elem)))
    return rows


def check_sign_formulas(max_n: int = 12) -> TheoremReport:
    _check_int("max_n", max_n)
    cases = (
        ("rotation", transposition_count_rotation, rotation_perm),
        ("reflection", transposition_count_reflection, reflection_perm),
    )
    outcomes = (
        ((-1) ** count_of(n, k) == sgn(perm_of(n, k)), {"kind": kind, "n": n, "k": k})
        for n in range(1, max_n + 1)
        for k in range(1, n + 1)
        for kind, count_of, perm_of in cases
    )
    return _report("lem:signs", outcomes, json.dumps)


# ---------------------------------------------------------------------------
# identity suites

def check_transpose_invariance(seed: int = 0, trials: int = 200) -> TheoremReport:
    samples = _draws(seed, trials, lambda rng: _random_matrix(rng, _ints(rng, 1, 1, 8)[0]))
    return _report("thm:AT", ((dihedrant(A.transpose()) == dihedrant(A), A) for A in samples))


def check_dihedral_permutation(seed: int = 0, trials: int = 200) -> TheoremReport:
    """Columns or rows permuted by any dihedral element scale dih by sig.

    Random (matrix, element) pairs first, then every element of D_n for
    n = 4..7 against a fixed random matrix per order.
    """
    def trial(rng: Random) -> tuple[bool, ExactMatrix]:
        n = _ints(rng, 1, 3, 7)[0]
        A = _random_matrix(rng, n)
        return _perm_trial(A, rng.choice(dihedral_group(n))), A

    every_element = (
        (_perm_trial(A, elem), A)
        for n in range(4, 8)
        for A in _draws(seed, 1, lambda rng: _random_matrix(rng, n), 10_000 + n)
        for elem in dihedral_group(n)
    )
    return _report("thm:perm", itertools.chain(_draws(seed, trials, trial), every_element))


def _perm_trial(A: ExactMatrix, elem: DihedralElement) -> bool:
    expected = sig(elem) * dihedrant(A)
    return (
        dihedrant(A.permute_columns(elem.perm)) == expected
        and dihedrant(A.permute_rows(elem.perm)) == expected
    )


def check_multilinearity(seed: int = 0, trials: int = 200) -> TheoremReport:
    def trial(rng: Random) -> tuple[bool, ExactMatrix]:
        n = _ints(rng, 1, 2, 6)[0]
        A = _random_matrix(rng, n)
        j = _ints(rng, 1, 1, n)[0]
        alpha = Fraction(_ints(rng, 1, -6, 6)[0], _ints(rng, 1, 1, 4)[0])
        beta = Fraction(_ints(rng, 1, -6, 6)[0], _ints(rng, 1, 1, 4)[0])
        b = _random_vector(rng, n)
        combined = A.linear_combination_row(j, alpha, beta, b)
        replaced = A.linear_combination_row(j, 0, 1, b)
        return dihedrant(combined) == alpha * dihedrant(A) + beta * dihedrant(replaced), A

    return _report("thm:linear", _draws(seed, trials, trial))


# ---------------------------------------------------------------------------
# rank-deficiency suites

def _rank_one_matrix(rng: Random, n: int) -> ExactMatrix:
    v = _nonzero_vector(rng, n)
    coeffs = [_nonzero_int(rng, 3) for _ in range(n)]
    return ExactMatrix([[c * e for e in v] for c in coeffs])


def _equal_rows_matrix(rng: Random, n: int, odd_rows: int) -> ExactMatrix:
    """n - odd_rows copies of one row, odd_rows copies of another."""
    base = _random_vector(rng, n)
    other = _random_vector(rng, n)
    positions = set(rng.sample(range(n), odd_rows))
    return ExactMatrix([other if i in positions else base for i in range(n)])


def _rank_le2_matrix(rng: Random, n: int) -> ExactMatrix:
    a = _random_vector(rng, n)
    b = _random_vector(rng, n)
    rows = []
    for _ in range(n):
        alpha, beta = _ints(rng, 2, -3, 3)
        rows.append([alpha * x + beta * y for x, y in zip(a, b)])
    return ExactMatrix(rows)


def _dih_vanishes(claim_id: str, samples: Iterable[ExactMatrix]) -> TheoremReport:
    return _report(claim_id, ((dihedrant(A) == 0, A) for A in samples))


def check_rank_one(seed: int = 0, trials: int = 200) -> TheoremReport:
    samples = _draws(seed, trials, lambda rng: _rank_one_matrix(rng, _ints(rng, 1, 3, 6)[0]))
    return _dih_vanishes("thm:rank1", samples)


def check_equal_rows(seed: int = 0, trials: int = 200, odd_rows: int = 1) -> TheoremReport:
    if type(odd_rows) is not int or odd_rows not in (1, 2):  # True == 1 would name the claim thm:rowsTrue
        raise ValueError(f"odd_rows must be 1 or 2, got {odd_rows!r}")
    lo = 3 if odd_rows == 1 else 4
    samples = _draws(seed, trials, lambda rng: _equal_rows_matrix(rng, _ints(rng, 1, lo, 7)[0], odd_rows))
    return _dih_vanishes(f"thm:rows{odd_rows}", samples)


def check_rank_two_small(seed: int = 0, trials: int = 200) -> TheoremReport:
    samples = _draws(seed, trials, lambda rng: _rank_le2_matrix(rng, rng.choice((4, 5))))
    return _report("cor:rank2", ((A.rank() <= 2 and dihedrant(A) == 0, A) for A in samples))


# ---------------------------------------------------------------------------
# anti-triangular matrices

def _anti_triangular_rows(rng: Random, n: int) -> list[list[int]]:
    """Zero below the anti-diagonal, nonzero on it, free entries above."""
    return [_ints(rng, n - 1 - i, -5, 5) + [_nonzero_int(rng, 5)] + [0] * i for i in range(n)]


def check_antitriangular(n: int, trials: int = 100, seed: int = 0) -> TheoremReport:
    """dih == -(anti-diagonal product); equal to det iff n mod 4 in {2, 3}.

    Orders 1 and 2 are excluded: there the anti-diagonal permutation occurs
    in D_n as both a rotation and a reflection, the two summands cancel, and
    the single-summand argument breaks down.
    """
    _check_int("n", n)
    if n < 3:
        raise ValueError("anti-triangular checks need n >= 3")
    det_sign = 1 if n % 4 in (0, 1) else -1

    def outcome(rows: list[list[int]]) -> tuple[bool, ExactMatrix]:
        A = ExactMatrix(rows)
        product = math.prod(row[n - 1 - i] for i, row in enumerate(rows))
        dih = dihedrant(A)
        det = elimination_det(A)
        return (
            dih == -product
            and det == det_sign * product
            and (dih == det) == (n % 4 in (2, 3))
        ), A

    samples = _draws(seed, trials, lambda rng: _anti_triangular_rows(rng, n))
    return _report(f"thm:antitri:n={n}", map(outcome, samples))


# ---------------------------------------------------------------------------
# corner pattern

def corner_pattern_mask(n: int) -> set[tuple[int, int]]:
    """Positions allowed to be nonzero: diagonal, superdiagonal, corner (n,1)."""
    _check_int("n", n)
    if n < 2:
        raise ValueError("corner pattern needs n >= 2")
    mask = {(i, i) for i in range(1, n + 1)}
    mask |= {(i, i + 1) for i in range(1, n)}
    mask.add((n, 1))
    return mask


def _corner_pattern_rows(rng: Random, n: int) -> list[list[int]]:
    mask = corner_pattern_mask(n)  # which checks n, before the first draw
    return [[_nonzero_int(rng, 5) if (i, j) in mask else 0 for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def check_corner_pattern(n: int, trials: int = 200, seed: int = 0) -> TheoremReport:
    """dih and det against their closed forms on the corner pattern; observes how often dih == det.

    Only the identity and the cycle i -> i+1 fit the mask, so with P_diag and P_cyc
    the products along them, det = P_diag + (-1)**(n-1) * P_cyc and dih = P_diag + P_cyc
    (0 at n = 2, where the cycle is also a reflection); dih == det exactly for odd n.
    """
    held = 0

    def outcome(rows: list[list[int]]) -> tuple[bool, ExactMatrix]:
        nonlocal held
        A = ExactMatrix(rows)
        diag = math.prod(rows[i][i] for i in range(n))
        cyc = math.prod(rows[i][(i + 1) % n] for i in range(n))
        dih, det = dihedrant(A), elimination_det(A)
        held += dih == det
        return dih == (diag + cyc if n >= 3 else 0) and det == diag + (-1) ** (n - 1) * cyc, A

    samples = _draws(seed, trials, lambda rng: _corner_pattern_rows(rng, n))
    report = _report(f"ex:corner:n={n}", map(outcome, samples))
    return replace(report, observation=_corner_note(held, trials))


def _corner_note(held: int, samples: int) -> str:
    return f"dih=det held on {held}/{samples} samples"


# ---------------------------------------------------------------------------
# equality suites and oracles

def _by_order(seed: int, trials: int, orders: Iterable[int]) -> Iterator[ExactMatrix]:
    """trials matrices with entries in [-9, 9] at each order n, on the streams from n * 1_000_000."""
    for n in orders:
        yield from _draws(seed, trials, lambda rng: _random_matrix(rng, n, -9, 9), n * 1_000_000)


def check_degenerate_orders(seed: int = 0, trials: int = 500) -> TheoremReport:
    return _dih_vanishes("eq:degenerate", _by_order(seed, trials, (1, 2)))


def check_order3_equality(seed: int = 0, trials: int = 10_000) -> TheoremReport:
    samples = _draws(seed, trials, lambda rng: _random_matrix(rng, 3, -9, 9))
    return _report("eq:n3", ((dihedrant(A) == leibniz_det(A), A) for A in samples))


def check_oracle_agreement(seed: int = 0, trials: int = 200) -> TheoremReport:
    samples = _by_order(seed, trials, range(1, 7))
    return _report("oracle:elim", ((elimination_det(A) == leibniz_det(A), A) for A in samples))


def check_corrected_scheme(seed: int = 0, trials: int = 500) -> TheoremReport:
    """Partition of S_4 (the one check of it: a bad coset table fails the first trial), per-element
    parity disagreements, and det agreement."""
    schemes = corrected_scheme_4x4()
    perms = {m.perm.images for s in schemes for m in s.monomials}
    disagreements = sum(1 for elem, parity in scheme_signs_within_D4() if parity != sig(elem))
    identity = ExactMatrix.identity(4)
    structural = [
        (len(perms) == 24 and all(len(s.monomials) == 8 for s in schemes), identity),
        (disagreements == 4, identity),
    ]
    samples = _draws(seed, trials, lambda rng: _random_matrix(rng, 4, -9, 9))
    sampled = ((sum((s.evaluate(A) for s in schemes), Fraction(0)) == leibniz_det(A), A) for A in samples)
    return _report("scheme:4x4", itertools.chain(structural, sampled))


# ---------------------------------------------------------------------------
# known matrices

MINUS15_MATRIX = ExactMatrix([
    [1, 0, 0, -1],
    [1, -3, 0, -3],
    [1, 1, 5, 5],
    [0, 0, 0, 1],
])

TWOS_ONES_MATRIX = ExactMatrix([
    [2, 2, 2, 2],
    [1, 2, 1, 1],
    [2, 2, 2, 1],
    [1, 2, 2, 1],
])

RANK2_6X6_MATRIX = ExactMatrix([
    [1, 1, 0, 0, 1, 0],
    [1, 1, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1],
    [1, 1, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1],
])

RANK3_4X4_MATRIX = ExactMatrix([
    [1, 2, 3, 4],
    [1, 2, 3, 4],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
])


def check_counterexample_ledger() -> TheoremReport:
    """The recorded matrices reproduce their recorded values exactly."""
    ledger = (  # matrix, dih, det, and the rank where one is recorded
        (MINUS15_MATRIX, -15, -15, None),
        (TWOS_ONES_MATRIX, 2, 2, None),
        (RANK2_6X6_MATRIX, 1, 0, 2),
        (RANK3_4X4_MATRIX, -6, 0, 3),
        (ExactMatrix.identity(4), 1, 1, None),
        (ExactMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), 0, -1, None),
    )
    return _report("fixtures:ledger", (
        (dihedrant(A) == dih and leibniz_det(A) == det and (rank is None or A.rank() == rank), A)
        for A, dih, det, rank in ledger
    ))


# ---------------------------------------------------------------------------
# rank-2 multilinear expansion

def rank2_multilinear_expansion(
    a: tuple[int, ...],
    b: tuple[int, ...],
    alphas: list[Fraction],
    betas: list[Fraction],
) -> list[tuple[Fraction, ExactMatrix]]:
    """Expand dih of the matrix with rows alpha_i*a + beta_i*b by linearity.

    Returns all 2**n (coefficient, matrix) terms, unsimplified: term c picks
    row a where c has a 0 bit and row b where it has a 1 bit, weighted by
    the product of the matching coefficients.
    """
    n = len(a)
    if not (len(b) == len(alphas) == len(betas) == n):
        raise ValueError("rows and coefficient lists must share one length")
    terms = []
    for bits in itertools.product((0, 1), repeat=n):
        coeff = Fraction(1)
        rows = []
        for i, bit in enumerate(bits):
            coeff *= betas[i] if bit else alphas[i]
            rows.append(b if bit else a)
        terms.append((coeff, ExactMatrix(rows)))
    return terms


def check_rank2_expansion(seed: int = 0) -> TheoremReport:
    def trial(rng: Random, n: int) -> tuple[bool, ExactMatrix]:
        a = _nonzero_vector(rng, n)
        b = _nonzero_vector(rng, n)
        alphas = list(map(Fraction, _ints(rng, n, -3, 3)))
        betas = list(map(Fraction, _ints(rng, n, -3, 3)))
        full = ExactMatrix(
            [[alphas[i] * x + betas[i] * y for x, y in zip(a, b)] for i in range(n)]
        )
        terms = rank2_multilinear_expansion(a, b, alphas, betas)
        total = sum((coeff * dihedrant(M) for coeff, M in terms), Fraction(0))
        ok = len(terms) == 2**n and total == dihedrant(full)
        if n in (4, 5):
            ok = ok and all(dihedrant(M) == 0 for _, M in terms)
        return ok, full

    return _report("ex:expansion", (
        outcome for n in (4, 5, 6) for outcome in _draws(seed, 1, lambda rng: trial(rng, n), n)
    ))


# ---------------------------------------------------------------------------
# search for dih == det

IntRows = tuple[tuple[int, ...], ...]  # one search hit: the rows of an integer matrix

SEARCH_BUDGET = 2_000_000  # most order-4 matrices one search may test

# Least weight, max(n, 4)**3 per sample, of each span a random search runs: forking
# two spans beat one process from a weight of about 25,000 to 37,500 at n = 4 and n = 5.
FORK_WEIGHT = 15_000


def search_dih_equals_det(config: SearchConfig, require_nonzero: bool = False) -> list[IntRows]:
    """All integer matrices in the configured space with dihedrant == determinant.

    Each hit is the integer rows the search holds; ``ExactMatrix(hit)`` makes it a matrix.

    Random mode draws ``sample_count`` integer matrices (per-index seeding; duplicates
    stay as sampled) and evaluates both functionals on each, so the hits among the first
    k samples do not depend on ``sample_count``.  Exhaustive mode returns every hit with
    entries in ``entry_range``, in row-major odometer order; a one-value range is its one
    matrix, evaluated like a sample.  Over two or more values, with the top n-2 rows
    fixed, dih = r.(D.x) and det = r.(C.x) for x the row n-1 and r the last row, so for
    each x the hits are the r with (E.x).r = 0, E = D - C (and (D.x).r != 0 under
    ``require_nonzero``); the zero set of each distinct E.x is found once.

    Before any work the search is weighed against ``SEARCH_BUDGET``: the walk by the
    base**(n*n) matrices of its space, and the evaluated matrices by their count, each of
    order n counting as max(n, 4)**3 / 4**3 of order 4 (a search as at least one).

    A random search hands its sample indices to the one fork-join,
    :func:`dihedrant.forks._joined`, with at most one span per ``FORK_WEIGHT`` of its weight,
    ``sample_count * max(n, 4)**3``; each sample index keeps its own stream, so the hits,
    joined in index order, are those of one process.
    """
    n = config.n
    lo, hi = config.entry_range
    budget = SEARCH_BUDGET
    exhaustive = config.mode is SearchMode.EXHAUSTIVE
    if exhaustive and hi > lo:
        base = hi - lo + 1
        # base >= 2 makes the space at least 2**(n*n): compare exponents first
        if n * n >= budget.bit_length() or base ** (n * n) > budget:
            raise ResourceLimitError(
                f"exhaustive space of {base}^{n * n} matrices exceeds the budget of {budget}"
            )
        return _exhaustive_hits(n, range(lo, hi + 1), require_nonzero)
    # one elimination per matrix: order n costs (n/4)**3 of order 4, and a search at least one
    weight = (1 if exhaustive else max(config.sample_count, 1)) * max(n, 4) ** 3
    if weight > budget * 4**3:
        raise ResourceLimitError(
            f"search at order {n} counts as {-(-weight // 4**3)} matrices of order 4"
            f" and exceeds the budget of {budget}"
        )
    if exhaustive:  # a one-value range: its space is this one matrix
        return _matrix_hits([((lo,) * n,) * n], n, require_nonzero)
    count = config.sample_count

    def chunk_hits(indices: range) -> list[IntRows]:
        samples = _draws(config.seed, len(indices), lambda rng: _square(rng, n, lo, hi), indices.start)
        return _matrix_hits(samples, n, require_nonzero)

    return _joined(chunk_hits, range(count), weight // FORK_WEIGHT)


def _matrix_hits(samples: Iterable[IntRows], n: int, require_nonzero: bool) -> list[IntRows]:
    """The samples with dih == det (and dih != 0 under require_nonzero), in order."""
    terms = dihedral_terms(n)
    hits = []
    for rows in samples:
        dih = signed_product_sum(rows, terms)
        if (dih or not require_nonzero) and dih == integer_det(rows):
            hits.append(rows)
    return hits


def _exhaustive_hits(n: int, values: range, require_nonzero: bool) -> list[IntRows]:
    """The exhaustive search of ``search_dih_equals_det``, one prefix of n-1 rows at a time."""
    lasts = list(itertools.product(values, repeat=n))  # the walk's rows too, so hits share them
    zero_sets = {}  # e -> the last rows r with e.r = 0, in odometer order
    hits = []
    for top, D, E in _last_row_coefficients(n, [lasts] * (n - 2)):
        for row in lasts if n > 1 else [(1,)]:  # n = 1 has no row n-1: D and E act on (1,)
            e = tuple([sum(map(operator.mul, coeffs, row)) for coeffs in E])
            zeros = zero_sets.get(e)
            if zeros is None:  # e.r for every r of the box, a column at a time, in odometer order
                dots = [0]
                for coeff in e:
                    steps = [coeff * value for value in values]
                    dots = [dot + step for dot in dots for step in steps]
                zeros = zero_sets[e] = list(itertools.compress(lasts, map(operator.not_, dots)))
            if require_nonzero:
                d = [sum(map(operator.mul, coeffs, row)) for coeffs in D]
                zeros = [r for r in zeros if sum(map(operator.mul, d, r))]
            prefix = top + (row,) if n > 1 else ()
            hits += [prefix + (r,) for r in zeros]
    return hits


def _last_row_coefficients(n: int, levels: list[list[tuple[int, ...]]]) -> Iterator[tuple[IntRows, list, list]]:
    """Each top of n-2 rows (row i from levels[i], in odometer order) with its D and E = D - C.

    With the top fixed, dih = r.(D.x) and det = r.(C.x) for x the row n-1 and r the last row: D[a][b]
    sums the partials of dih's terms that take column a from r and b from x, and C[a][b] those of det's.
    """
    # At n = 1, which has no row n-1, images[n - 2] is images[-1] = 1: D = [(0,)] and E = [(-1,)] act
    # on (1,).  The space check refuses every walk from n = 5 on: a top carries at most 8 + 24 partials.
    terms = [*dihedral_terms(n), *((images, -sign) for images, sign in symmetric_terms(n))]  # -sgn: D + det's is E
    cells = [(images[-1] - 1) * n + images[n - 2] - 1 for images, _ in terms]
    tops = [((), [sign for _, sign in terms])]  # each with its partials, which start at the terms' signs
    for depth, level in enumerate(levels):  # each new row multiplies a term's partial by its entry
        columns = [images[depth] - 1 for images, _ in terms]
        tops = [(top + (row,), list(map(operator.mul, partials, map(row.__getitem__, columns))))
                for top, partials in tops for row in level]
    for top, partials in tops:
        flat = [0] * (n * n)
        for cell, partial in zip(cells[: 2 * n], partials):
            flat[cell] += partial
        D = list(zip(*[iter(flat)] * n))
        for cell, partial in zip(cells[2 * n :], partials[2 * n :]):
            flat[cell] += partial
        yield top, D, list(zip(*[iter(flat)] * n))


# ---------------------------------------------------------------------------
# claim registry

class Claim(NamedTuple):
    claim_id: str
    run: Callable[[int, int], list[TheoremReport]]


def _antitri_runner(seed: int, trials: int) -> list[TheoremReport]:
    return [check_antitriangular(n, trials=trials, seed=seed) for n in range(3, 10)]


def _corner_runner(seed: int, trials: int) -> list[TheoremReport]:
    orders = range(4, 9)
    reports = [check_corner_pattern(n, trials, seed) for n in orders]
    held_orders = [str(n) for n, r in zip(orders, reports) if r.observation == _corner_note(trials, trials)]
    summary = "dih=det held on every sample for n = " + (", ".join(held_orders) or "(none)")
    failures = sum(r.failures for r in reports)
    witness = next((r.witness for r in reports if r.witness is not None), None)
    reports.append(TheoremReport("ex:corner", sum(r.trials for r in reports), failures, witness, summary))
    return reports


CLAIMS: dict[str, Claim] = {
    claim.claim_id: claim
    for claim in (
        Claim("fixtures:ledger", lambda seed, trials: [check_counterexample_ledger()]),
        Claim("eq:degenerate", lambda seed, trials: [check_degenerate_orders(seed, trials)]),
        Claim("eq:n3", lambda seed, trials: [check_order3_equality(seed, trials)]),
        Claim("thm:AT", lambda seed, trials: [check_transpose_invariance(seed, trials)]),
        Claim("thm:perm", lambda seed, trials: [check_dihedral_permutation(seed, trials)]),
        Claim("thm:linear", lambda seed, trials: [check_multilinearity(seed, trials)]),
        Claim("thm:rank1", lambda seed, trials: [check_rank_one(seed, trials)]),
        Claim("thm:rows1", lambda seed, trials: [check_equal_rows(seed, trials, odd_rows=1)]),
        Claim("thm:rows2", lambda seed, trials: [check_equal_rows(seed, trials, odd_rows=2)]),
        Claim("cor:rank2", lambda seed, trials: [check_rank_two_small(seed, trials)]),
        Claim("lem:signs", lambda seed, trials: [check_sign_formulas()]),
        Claim("thm:antitri", _antitri_runner),
        Claim("scheme:4x4", lambda seed, trials: [check_corrected_scheme(seed, trials)]),
        Claim("oracle:elim", lambda seed, trials: [check_oracle_agreement(seed, trials)]),
        Claim("ex:expansion", lambda seed, trials: [check_rank2_expansion(seed)]),
        Claim("ex:corner", _corner_runner),
    )
}


def claim_ids() -> list[str]:
    return list(CLAIMS)


# Most trials one claim may run.  One trial of every claim together takes about 3 ms on one CPU
# (Python 3.11), so verify all at the limit takes about 30 s there; the largest random search
# SEARCH_BUDGET admits, 2,000,000 samples of order 4 at about 27 us each, takes about 55 s.
MAX_TRIALS = 10_000

# The slowest claims, each run alone in one process pinned to one CPU (Python 3.11, 200 trials, best
# of 3): 0.22, 0.069 and 0.053 s of the 0.43 s that all 16 take.  The queue hands them out first, so
# no span is left running a long claim alone at the end.
_HEAVY_CLAIMS = ("oracle:elim", "thm:antitri", "ex:corner")


def run_claim(claim_id: str, seed: int = 0, trials: int = 200) -> list[TheoremReport]:
    return run_claims([claim_id], seed, trials)


def run_claims(ids: Iterable[str], seed: int = 0, trials: int = 200) -> list[TheoremReport]:
    """The reports of the claims in ``ids``, in that order; the module docstring says how they run.

    Every id, ``trials`` (1 to ``MAX_TRIALS``) and ``seed`` are checked before any claim runs.
    The join returns each claim's report fields in the queue's order, heavy claims first.
    """
    if isinstance(ids, str):  # its characters would read as ids
        raise ValueError(f"ids must be a list of claim ids, got {ids!r}")
    ids = list(ids)  # read more than once below, and an iterator only once
    _check_int("seed", seed, nonnegative=True)  # here, not in a child: each claim's _draws checks it too
    _check_int("trials", trials)
    runs = [CLAIMS[claim_id].run for claim_id in ids]  # an unknown id raises KeyError
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ResourceLimitError(f"{trials} trials exceed the limit of {MAX_TRIALS} per claim")
    rank = {claim_id: k for k, claim_id in enumerate(_HEAVY_CLAIMS)}
    order = sorted(range(len(ids)), key=lambda i: rank.get(ids[i], len(rank)))

    def chunk_fields(positions: list[int]) -> list[list[tuple]]:
        return [[astuple(report) for report in runs[i](seed, trials)] for i in positions]

    fields = dict(zip(order, _joined(chunk_fields, order)))
    return [TheoremReport(*report) for i in range(len(ids)) for report in fields[i]]
