"""Exact determinants of large integer matrices by solving modulo powers of one prime.

``determinant`` serves ``matrix.integer_det`` from order ``matrix.MODULAR_ORDER`` on.  It runs
Gauss-Jordan modulo one prime p on the transpose of A beside the identity
(``matrix._eliminated_mod``), which steps through the rows of A:

* At full rank that gives det A mod p and the columns of A^-1 mod p.  Dixon's p-adic lifting
  (*Numer. Math.* 40, 1982) solves A x = b exactly for one small fixed b, and x = N / d is
  checked as the integer identity A N = d b.  By Cramer's rule the least common denominator s
  of x divides det A, so only q = det A / s is left to the primes: their product must pass
  2H / s, H Hadamard's bound, and one more prime must agree (Abbott, Bronstein and Mulders,
  ISSAC 1999).
* Below full rank it stops at the first row t of A that depends mod p on rows 0..t-1, with
  the t pivot columns C.  Lifting the t x t system lambda . A[<t][C] = A[t][C] gives a
  dependency that, checked on all n columns, proves det A = 0.  If the check fails, p divided
  a minor: ``matrix.integer_rank`` certifies the rank, and at full rank the next prime starts
  over.

Each step of a lifting is two packed products: M^-1 r mod p, whose 64-bit fields stay below
n (p - 1)**2 < 2**64 by ``matrix._field_bits``, and M y, with M's columns shifted to be
non-negative and packed in fields of whole 64-bit words.  Nothing is probabilistic: every
result rests on an identity checked in integers.  The module is imported on first use, so
importing the package compiles none of it.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import Sequence

from . import matrix
from .forks import _joined


def determinant(m: Sequence[Sequence[int]]) -> int:
    """det m for a square integer matrix m, which is only read."""
    n = len(m)
    columns = [*zip(*m)]
    bits = matrix._field_bits(n)
    for k in itertools.count():
        p = matrix._prime(bits, k)
        t, det_p, inverse, pivots = matrix._eliminated_mod(columns, p, inverse=True)
        if t == n:
            return _full_rank(m, columns, k, det_p, inverse)
        if k == 0 and (_dependent(m, columns, t, p, inverse, pivots) or matrix.integer_rank(m) < n):
            return 0  # after the first prime the rank is certified n, so only a prime that shows it serves


def _full_rank(m, columns, k: int, det_p: int, inverse: list[int]) -> int:
    """det m from its residue and m's inverse modulo the k-th prime p; later primes find the rest."""
    n = len(m)
    bits = matrix._field_bits(n)
    p = matrix._prime(bits, k)
    # small and fixed, but not constant: rows of equal sum c solve A x = (1, ..., 1) by x = 1/c
    b = [i * i % 7 - 3 for i in range(n)]
    x, d = _solved(columns, inverse, b, p)
    if any(sum(map(mul, row, x)) != d * e for row, e in zip(m, b)):
        raise ArithmeticError("the lifted solution does not solve A x = b")
    s = d // math.gcd(d, *x)  # the least common denominator of the solution, which divides det m
    bound = 4 * _hadamard(m, columns)  # (2H)**2
    usable = (q for q in map(matrix._prime, itertools.repeat(bits), itertools.count(k + 1)) if s % q)
    primes, product = [p], p
    while (s * product) ** 2 <= bound:
        primes.append(next(usable))
        product *= primes[-1]
    primes.append(next(usable))  # one more, to check
    residues = [det_p, *_joined(lambda batch: [matrix._eliminated_mod(m, q)[1] for q in batch], primes[1:])]
    quotient, product = 0, 1
    for q, det_q in zip(primes[:-1], residues):  # q's residue is det m's over s, which q does not divide
        quotient += product * ((det_q * pow(s, -1, q) - quotient) * pow(product, -1, q) % q)
        product *= q
    quotient -= product if 2 * quotient > product else 0  # balanced
    if residues[-1] != s * quotient % primes[-1]:
        raise ArithmeticError("a check prime disagrees with the lifted determinant")
    return s * quotient


def _dependent(m, columns, t: int, p: int, inverse: list[int], pivots: list[int]) -> bool:
    """Whether row t of m is exactly a combination of rows 0..t-1, which makes det m = 0.

    ``inverse`` and ``pivots`` come from Gauss-Jordan on m's transpose stopped at column t:
    with B = m[<t][pivots], field c of kept row k is entry (k, c) of the inverse of B's
    transpose mod p, for c in ``pivots``.
    """
    kept = [matrix._unpacked(x, len(m)) for x in inverse]
    system = [[row[c] for c in pivots] for row in m[:t]]  # the columns of B's transpose
    weights, d = _solved(system, [matrix._packed([row[c] for row in kept]) for c in pivots],
                         [m[t][c] for c in pivots], p)
    return d != 0 and all(sum(map(mul, weights, column)) == d * column[t] for column in columns)


def _solved(columns, inverse: list[int], b: Sequence[int], p: int) -> tuple[list[int], int]:
    """N and d > 0 with N / d the solution x of M x = b, unless M or its inverse is wrong.

    M is the square integer matrix with these columns, and ``inverse`` holds the columns of M's
    inverse mod p, packed.  Each step takes y = M^-1 r mod p, then r = (r - M y) / p, which is
    exact; after k steps x = sum of y p**i mod p**k.  By Cramer's rule x = num / det M, where
    Hadamard's bound, by rows or by columns, bounds |det M| by D and each |num| (det M with one
    column b) by U; so x = N / d is reconstructed once p**k passes 2 U D.  N and d are not
    checked here.
    """
    n = len(columns)
    rows = [*zip(*columns)]
    square = _hadamard(columns, rows)  # D**2
    numerator = _hadamard([b, *columns], [[*row, e] for row, e in zip(rows, b)])  # U**2
    lows = [min(0, *column) for column in columns]
    shifted = [[e - low for e in column] for column, low in zip(columns, lows)]
    words = (n * p * max(map(max, shifted), default=0)).bit_length() // 64 + 1
    packed = [matrix._packed(column, words) for column in shifted]
    x, r, modulus = [0] * n, list(b), 1
    while modulus**2 <= 4 * numerator * square:
        y = [f % p for f in matrix._unpacked(sum(map(mul, [e % p for e in r], inverse)), n)]
        offset = sum(map(mul, y, lows))
        r = [(e - f - offset) // p for e, f in zip(r, matrix._unpacked(sum(map(mul, y, packed)), n, words))]
        x = [e + modulus * f for e, f in zip(x, y)]
        modulus *= p
    return _reconstructed(x, modulus, math.isqrt(numerator))


def _hadamard(*families) -> int:
    """The product of squared norms over one of the families of vectors, each a square of Hadamard's bound.

    It is the family whose squared norms have the fewest bits, so only one product is formed: one
    large entry makes a product by columns far larger, and slower to form, than the one by rows.
    """
    squares = [[sum(map(mul, vector, vector)) for vector in family] for family in families]
    return math.prod(min(squares, key=lambda family: sum(square.bit_length() for square in family)))


def _reconstructed(residues: list[int], modulus: int, bound: int) -> tuple[list[int], int]:
    """N and d > 0 with N_i = d residues_i mod modulus and |N_i| <= bound, one d for all.

    d grows by one rational reconstruction (extended Euclid, stopped at the first remainder
    within the bound) each time d residues_i is not already within it.  If the residues are
    num_i / den mod modulus with |num_i| <= bound, 0 < den and 2 bound den < modulus, these are
    the reduced N / d.
    """
    numerators, d = [], 1
    for residue in residues:
        y = residue * d % modulus
        y -= modulus if 2 * y > modulus else 0
        if abs(y) > bound:
            r0, r1, t0, t1 = modulus, y % modulus, 0, 1
            while r1 > bound:
                quotient = r0 // r1
                r0, r1, t0, t1 = r1, r0 - quotient * r1, t1, t0 - quotient * t1
            y, v = (r1, t1) if t1 > 0 else (-r1, -t1)
            numerators = [e * v for e in numerators]
            d *= v
        numerators.append(y)
    return numerators, d
