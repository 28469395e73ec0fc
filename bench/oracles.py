"""Independent checks for the benchmark's outputs.

Nothing here calls into ``dihedrant``.  Determinants and ranks come from
plain Gaussian elimination modulo primes; the dihedrant comes from its
definition, the sum of the n wrapped diagonals minus the n wrapped
anti-diagonals.  The random-search oracle re-draws the documented sample
stream (one ``Random((seed << 32) + index)`` per sample) and tests every
sample with these checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007)


def to_mod(x, p: int) -> int:
    """An int or Fraction as a residue mod p (p must not divide its denominator)."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _echelon_mod(rows, p: int) -> tuple[int, int]:
    """Reduce a copy of ``rows`` mod p; return (rank, determinant mod p).

    The determinant is only meaningful for a square matrix of full rank;
    it is 0 otherwise.
    """
    m = [[to_mod(e, p) for e in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    det = 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        lead_row = m[rank]
        lead = lead_row[col]
        det = det * lead % p
        inv = pow(lead, -1, p)
        for r in range(rank + 1, n_rows):
            factor = m[r][col] * inv % p
            if factor:
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], lead_row)]
        rank += 1
        if rank == n_rows:
            break
    if rank < n_cols:
        det = 0
    return rank, det % p


def det_mod(rows, p: int) -> int:
    return _echelon_mod(rows, p)[1]


def rank_mod(rows, p: int) -> int:
    """Rank mod p: a lower bound on the rank over the rationals."""
    return _echelon_mod(rows, p)[0]


def det_residues(rows) -> tuple[int, ...]:
    return tuple(det_mod(rows, p) for p in PRIMES)


def residues_of(value: Fraction) -> tuple[int, ...]:
    return tuple(to_mod(value, p) for p in PRIMES)


def small_int_det(rows) -> int:
    """Exact determinant of an integer matrix whose Hadamard bound is below p/2."""
    p = PRIMES[0]
    if 4 * math.prod(sum(e * e for e in row) for row in rows) >= p * p:
        raise ValueError("entries too large for a single-prime determinant")
    d = det_mod(rows, p)
    return d - p if d > p // 2 else d


def dih_by_diagonals(rows):
    """Sum over k of the k-th wrapped diagonal minus the k-th wrapped anti-diagonal."""
    n = len(rows)
    total = 0
    for k in range(n):
        rotation = reflection = 1
        for i, row in enumerate(rows):
            rotation *= row[(i + k) % n]
            reflection *= row[(k - i) % n]
        total += rotation - reflection
    return total


def is_search_hit(rows) -> bool:
    """dih == det and dih != 0, the condition of ``search --require-nonzero``."""
    dih = dih_by_diagonals(rows)
    return dih != 0 and dih == small_int_det(rows)


def expected_random_hits(seed: int, n: int, lo: int, hi: int, count: int) -> list[list[list[int]]]:
    hits = []
    for index in range(count):
        rng = Random((seed << 32) + index)
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if is_search_hit(rows):
            hits.append(rows)
    return hits
