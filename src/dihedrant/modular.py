"""Everything that runs modulo word-size primes: exact ranks and determinants of large integer matrices.

``matrix.integer_rank`` and ``matrix.integer_det`` call ``rank`` and ``determinant`` from order
``matrix.MODULAR_ORDER`` on.  Both run on one packed elimination modulo a prime, ``_eliminated_mod``,
and one planner, ``_residues``, picks their primes and shares them out through the one fork-join
:func:`dihedrant.forks._joined`: the fewest that take a product past a Hadamard bound, and one more
to check.

* ``rank`` is the largest rank r modulo any prime: n at once, else once the primes' product passes
  the product of the r + 1 largest row norms, which bounds every minor of order r + 1.
* ``determinant`` runs Gauss-Jordan modulo one prime p on A's transpose beside the identity.  At full
  rank Dixon's p-adic lifting (*Numer. Math.* 40, 1982) solves A x = b exactly, x = N / d is checked
  as A N = d b, and the least common denominator s of x divides det A, so the primes find only
  det A / s (Abbott, Bronstein and Mulders, ISSAC 1999).  Below full rank it stops at the first row t
  that depends mod p on the rows before it; that dependency, lifted and checked on all n columns,
  proves det A = 0.  If the check fails, p divided a minor: ``rank`` certifies the rank, and at full
  rank the next prime starts over.

Each step of a lifting is two packed products: M^-1 r mod p, whose 64-bit fields stay below
n (p - 1)**2 < 2**64 by ``_field_bits``, and M y, with M's columns shifted to be non-negative and
packed in fields of whole 64-bit words.  Every result rests on an identity checked in integers; one
that no unlucky prime explains raises ``ArithmeticError``.  The module is imported on first use, so
importing the package compiles none of it.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from operator import mul
from typing import Iterable, Sequence

from .forks import _joined


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank of a square integer matrix, which is only read."""
    n = len(m)
    squares = sorted(_squares(m), reverse=True)  # by rows
    bounds = [*itertools.accumulate(squares, mul, initial=1)]  # bounds[k]: of the k largest

    def certified() -> bool:
        return r == n or product**2 > bounds[r + 1]

    used, product, r, checked = 0, 1, 0, False
    while not (used and certified() and (checked or r == n)):
        residues = _residues(m, used, product, used and bounds[r + 1])  # the first prime runs alone
        used += len(residues)
        for q, rank_p, _ in residues:
            if not certified():
                product *= q
                r = max(r, rank_p)
            elif rank_p > r:
                raise ArithmeticError("a check prime disagrees with the multi-modular rank")
            else:
                checked = True
    return r


def determinant(m: Sequence[Sequence[int]]) -> int:
    """det m for a square integer matrix m, which is only read."""
    n = len(m)
    columns = [*zip(*m)]
    for k in itertools.count():
        p = _prime(_field_bits(n), k)
        t, det_p, inverse, pivots = _eliminated_mod(columns, p, inverse=True)
        if t == n:
            return _full_rank(m, columns, p, k + 1, det_p, inverse)
        if k == 0 and (_dependent(m, columns, t, p, inverse, pivots) or rank(m) < n):
            return 0  # after the first prime the rank is certified n, so only a prime that shows it serves


def _full_rank(m, columns, p: int, start: int, det_p: int, inverse: list[int]) -> int:
    """det m from its residue and m's inverse modulo p; the primes from the start-th on find the rest."""
    n = len(m)
    # small and fixed, but not constant: rows of equal sum c solve A x = (1, ..., 1) by x = 1/c
    b = [i * i % 7 - 3 for i in range(n)]
    square = math.prod(_squares(m, columns))  # D**2
    x, d = _solved(columns, inverse, b, p, square)
    if any(sum(map(mul, row, x)) != d * e for row, e in zip(m, b)):
        raise ArithmeticError("the lifted solution does not solve A x = b")
    s = d // math.gcd(d, *x)  # the least common denominator of the solution, which divides det m
    *residues, (check, _, det_check) = [(p, n, det_p), *_residues(m, start, s * p, 4 * square, s)]  # (2H)**2
    quotient, product = 0, 1
    for q, _, det_q in residues:  # q's residue is det m's over s, which q does not divide
        quotient += product * ((det_q * pow(s, -1, q) - quotient) * pow(product, -1, q) % q)
        product *= q
    quotient -= product if 2 * quotient > product else 0  # balanced
    if det_check != s * quotient % check:
        raise ArithmeticError("a check prime disagrees with the lifted determinant")
    return s * quotient


def _residues(m, start: int, product: int, square: int, skip: int = 1) -> list[tuple[int, int, int]]:
    """(q, rank, det) of m modulo primes q, shared out through the one fork-join.

    The primes are the fewest from the start-th on that do not divide ``skip`` and take
    (product times theirs)**2 past ``square``, and one more, to check.
    """
    bits = _field_bits(len(m))
    usable = (q for q in map(_prime, itertools.repeat(bits), itertools.count(start)) if skip % q)
    primes = []
    while product**2 <= square:
        primes.append(next(usable))
        product *= primes[-1]
    primes.append(next(usable))
    return _joined(lambda batch: [(q, *_eliminated_mod(m, q)[:2]) for q in batch], primes)


def _dependent(m, columns, t: int, p: int, inverse: list[int], pivots: list[int]) -> bool:
    """Whether row t of m is exactly a combination of rows 0..t-1, which makes det m = 0.

    ``inverse`` and ``pivots`` come from Gauss-Jordan on m's transpose stopped at column t:
    with B = m[<t][pivots], field c of kept row k is entry (k, c) of the inverse of B's
    transpose mod p, for c in ``pivots``.
    """
    kept = [_unpacked(x, len(m)) for x in inverse]
    system = [[row[c] for c in pivots] for row in m[:t]]  # the columns of B's transpose
    weights, d = _solved(system, [_packed([row[c] for row in kept]) for c in pivots],
                         [m[t][c] for c in pivots], p, math.prod(_squares(system, [*zip(*system)])))
    return d != 0 and all(sum(map(mul, weights, column)) == d * column[t] for column in columns)


def _solved(columns, inverse: list[int], b: Sequence[int], p: int, square: int) -> tuple[list[int], int]:
    """N and d > 0 with N / d the solution x of M x = b, unless M or its inverse is wrong.

    M is the square integer matrix with these columns, ``inverse`` holds the columns of M's
    inverse mod p, packed, and ``square`` bounds (det M)**2.  Each step takes y = M^-1 r mod p,
    then r = (r - M y) / p, which is exact; after k steps x = sum of y p**i mod p**k.  By
    Cramer's rule x = num / det M, where Hadamard's bound, by rows or by columns, bounds
    |det M| by D and each |num| (det M with one column b) by U; so x = N / d is reconstructed
    once p**k passes 2 U D.  N and d are not checked here.
    """
    n = len(columns)
    numerator = math.prod(_squares([b, *columns], [[*row, e] for row, e in zip(zip(*columns), b)]))  # U**2
    lows = [min(0, *column) for column in columns]
    shifted = [[e - low for e in column] for column, low in zip(columns, lows)]
    words = (n * p * max(map(max, shifted), default=0)).bit_length() // 64 + 1
    packed = [_packed(column, words) for column in shifted]
    x, r, modulus = [0] * n, list(b), 1
    while modulus**2 <= 4 * numerator * square:
        y = [f % p for f in _unpacked(sum(map(mul, [e % p for e in r], inverse)), n)]
        offset = sum(map(mul, y, lows))
        r = [(e - f - offset) // p for e, f in zip(r, _unpacked(sum(map(mul, y, packed)), n, words))]
        x = [e + modulus * f for e, f in zip(x, y)]
        modulus *= p
    return _reconstructed(x, modulus, math.isqrt(numerator))


def _squares(*families) -> list[int]:
    """The squared norms of the vectors of whichever family's have the fewest bits in all.

    Their product squares Hadamard's bound.  One large entry makes a product by columns far
    larger, and slower to form, than the one by rows, so only the smaller product is formed.
    """
    squares = [[sum(map(mul, vector, vector)) for vector in family] for family in families]
    return min(squares, key=lambda family: sum(map(int.bit_length, family)))


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


def _field_bits(n: int) -> int:
    """The prime width at order n: every p < 2**bits keeps a field's bound, p + n * (p - 1)**2, below 2**64."""
    return (64 - n.bit_length()) // 2


def _eliminated_mod(
    m: Sequence[Sequence[int]], p: int, inverse: bool = False
) -> tuple[int, int, list[int], list[int]]:
    """Rank, determinant, kept rows and pivot rows of ``m`` modulo a prime p < 2**_field_bits(len(m)).

    Each row is one int of 64-bit fields, field 0 the current column.  Each step shifts field 0
    out of every row and adds (p - v) times the pivot row, reduced and scaled to lead with 1,
    where v is the row's field 0 mod p; so a field gains at most (p - 1)**2 a step, and only the
    pivot row is ever reduced.  The pivot rows are the indices in ``m`` of the rows that pivot.

    Without ``inverse`` the pivot row is dropped, and no row is kept.  With it this is
    Gauss-Jordan on m | I: row j carries a 1 in field n + j, and each pivot row is kept and
    updated at every later step, as the live rows are.  It stops at the first column t without
    a pivot, where row t of m's transpose depends mod p on the t before it.  The kept rows are
    the pivot rows' last n fields, reduced; at full rank the k-th is row k of the inverse of m.
    """
    n = len(m)
    rows = [_packed([e % p for e in row]) for row in m]
    if inverse:
        rows = [x | 1 << 64 * (n + j) for j, x in enumerate(rows)]
    order = list(range(n))  # the index in m of each live row
    width = 2 * n if inverse else n
    rank, det, pivots = 0, 1, []
    for col in range(n):
        heads = [(x & 0xFFFF_FFFF_FFFF_FFFF) % p for x in rows]
        kept = rank if inverse else 0  # the live rows follow the kept ones
        k = next((k for k in range(len(order)) if heads[kept + k]), None)
        if k is None:
            if inverse:
                break
            rows = [x >> 64 for x in rows]
            continue
        top, lead = rows.pop(kept + k) >> 64, heads.pop(kept + k)
        pivots.append(order.pop(k))
        det = (-det if k & 1 else det) * lead % p  # the pivot row moved up past k rows
        scale = pow(lead, -1, p)
        top = _packed([f * scale % p for f in _unpacked(top, width - col - 1)])
        rows = [(x >> 64) + (p - v) * top if v else x >> 64 for x, v in zip(rows, heads)]
        if inverse:
            rows.insert(rank, top)
        rank += 1
    kept = [_packed([f % p for f in _unpacked(x >> 64 * (n - rank), n)]) for x in rows[:rank]] if inverse else []
    return rank, det if rank == n else 0, kept, pivots


def _packed(fields: Iterable[int], words: int = 1) -> int:
    """Non-negative values below 2**(64 * words) as one int, the first in the lowest field."""
    if words > 1:
        return int.from_bytes(b"".join(f.to_bytes(8 * words, "little") for f in fields), "little")
    packed = array("Q", fields)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _unpacked(x: int, count: int, words: int = 1) -> Sequence[int]:
    """The ``count`` fields of ``words`` 64-bit words each of a packed int, the lowest first."""
    raw = x.to_bytes(8 * words * count, "little")
    if words > 1:
        return [int.from_bytes(raw[i : i + 8 * words], "little") for i in range(0, len(raw), 8 * words)]
    fields = array("Q", raw)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


_PRIMES: dict[int, list[int]] = {}  # per field width: the primes below 2**bits found so far, largest first


def _prime(bits: int, k: int) -> int:
    """The k-th largest prime below 2**bits, counting from 0."""
    primes = _PRIMES.setdefault(bits, [])
    candidate = primes[-1] - 2 if primes else (1 << bits) - 1
    while len(primes) <= k:
        if _is_prime(candidate):
            primes.append(candidate)
        candidate -= 2
    return primes[k]


def _is_prime(q: int) -> bool:
    """Miller-Rabin with bases 2, 7 and 61, which is exact for odd q from 63 to 4,759,123,140."""
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2**s with d odd
    d = (q - 1) >> s
    return all(pow(a, d, q) == 1 or any(pow(a, d << r, q) == q - 1 for r in range(s)) for a in (2, 7, 61))
