"""Everything that runs modulo word-size primes: exact ranks and determinants of large integer matrices.

``matrix.integer_rank`` and ``matrix.integer_det`` call ``rank`` and ``determinant`` from order
``matrix.MODULAR_ORDER`` on.  Both start from one packed elimination modulo a prime p,
``_eliminated_mod``, and certify what it finds by identities checked in integers.

* ``rank`` runs one forward elimination modulo p.  Its r pivot rows P and pivot columns Q give a
  block B = A[P][Q] that is invertible modulo p, so rank A >= r.  Gauss-Jordan inverts B once
  modulo p (fewer than r pivots there raises), and ``_combined`` lifts every other row against that
  one inverse: N A[P] = d A[t], checked on all n columns, shows rank A <= r.  A row that is no such
  combination shows that p divided a minor of order r + 1; the next prime starts over.
* ``determinant`` runs Gauss-Jordan modulo p on A's transpose beside the identity.  At full rank
  Dixon's p-adic lifting (*Numer. Math.* 40, 1982) solves A x = b exactly, and the least common
  denominator s of x divides det A, so the primes find only det A / s (Abbott, Bronstein and
  Mulders, ISSAC 1999).  ``_full_rank`` takes the fewest that take a product past Hadamard's
  bound, one at a time in this process, folding each residue into the Chinese remainder sum, and
  one more to check.  Below full rank it stops at the first row t that depends mod p on the rows
  before it; that dependency, lifted as the rank's are, proves det A = 0.  If it fails, p divided
  a minor, and the next prime starts over.  The determinant never calls ``rank``.

Each step of a lifting is two packed products: M^-1 r mod p, whose 64-bit fields stay below
n (p - 1)**2 < 2**64 by ``_field_bits``, and M y, with M's columns shifted to be non-negative and
packed in fields of whole 64-bit words.  Every result rests on an identity checked in integers; one
that no unlucky prime explains raises ``ArithmeticError``.  The module imports nothing from the
package and is imported on first use, so importing the package compiles none of it.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from operator import mul
from typing import Iterable, Sequence


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank of a square integer matrix, which is only read."""
    n = len(m)
    for k in itertools.count():
        p = _prime(_field_bits(n), k)
        r, _, _, pivots, columns = _eliminated_mod(m, p)
        if r == n:
            return n
        t, _, inverse, _, _ = _eliminated_mod([[m[i][c] for c in columns] for i in pivots], p, inverse=True)
        if t < r:
            raise ArithmeticError("Gauss-Jordan finds fewer pivots than the elimination that it inverts")
        chosen = set(pivots)
        others = [row for i, row in enumerate(m) if i not in chosen]
        if _combined([m[i] for i in pivots], columns, inverse, p, others) is not None:
            return r


def determinant(m: Sequence[Sequence[int]]) -> int:
    """det m for a square integer matrix m, which is only read."""
    n = len(m)
    columns = [*zip(*m)]
    for k in itertools.count():
        p = _prime(_field_bits(n), k)
        t, det_p, inverse, pivots, _ = _eliminated_mod(columns, p, inverse=True)
        if t == n:
            return _full_rank(m, columns, p, k + 1, det_p, inverse)
        # with B = m[<t][pivots], field c of kept row k is entry (k, c) of the inverse of B's
        # transpose mod p, for c in pivots; repacked, these are the rows of B's inverse
        kept = [_unpacked(x, n) for x in inverse]
        inverse = [_packed([row[c] for row in kept]) for c in pivots]
        if _combined(m[:t], pivots, inverse, p, [m[t]]):
            return 0  # otherwise p divided a minor, and the next prime starts over


def _full_rank(m, columns, p: int, start: int, det_p: int, inverse: list[int]) -> int:
    """det m from its residue and m's inverse modulo p; the primes from the start-th on find the rest.

    Those primes are the fewest that do not divide s and take the product of p and theirs past
    2H / s, with H Hadamard's bound, and one more, to check; each residue is folded in as found.
    """
    n = len(m)
    # small and fixed, but not constant: rows of equal sum c solve A x = (1, ..., 1) by x = 1/c
    b = [i * i % 7 - 3 for i in range(n)]
    square = math.prod(_squares(m, columns))  # H**2
    [(x, d)] = _combined(columns, range(n), inverse, p, [b], square)
    s = d // math.gcd(d, *x)  # the least common denominator of the solution, which divides det m
    usable = (q for q in map(_prime, itertools.repeat(_field_bits(n)), itertools.count(start)) if s % q)
    quotient, product = 0, 1  # q's residue is det m's over s, which q does not divide
    for q, det_q in itertools.chain([(p, det_p)], ((q, _eliminated_mod(m, q)[1]) for q in usable)):
        if (s * product) ** 2 > 4 * square:
            break  # q is the check prime
        quotient += product * ((det_q * pow(s, -1, q) - quotient) * pow(product, -1, q) % q)
        product *= q
    quotient -= product if 2 * quotient > product else 0  # balanced
    if det_q != s * quotient % q:
        raise ArithmeticError("a check prime disagrees with the lifted determinant")
    return s * quotient


def _combined(vectors, pivots: Sequence[int], inverse: list[int], p: int,
              targets: Sequence[Sequence[int]], square: int = 0) -> list[tuple[list[int], int]] | None:
    """For each target t, N and d > 0 with N_1 v_1 + ... + N_r v_r = d t, the v the vectors; None
    if some target is no such combination.

    M, whose columns are the vectors at the coordinates ``pivots``, is invertible mod p, and
    ``inverse`` holds the columns of its inverse mod p, packed.  Every target is lifted against
    that one inverse: x = M^-1 t[pivots] is the sum of y p**i, where each step takes
    y = M^-1 r mod p and then r = (r - M y) / p, which is exact.  By Cramer's rule
    x = num / det M, and Hadamard's bound, by rows or by columns, bounds |det M| by D (``square``
    is D**2 where the caller has it) and every |num| by U.  A rational reconstruction x = N / d is
    tried after the first step, again once the steps since the last try reach a share 1 / m of
    all steps so far, for m targets still lifting (after 1, 2, 4, ... steps for one), and once
    p**k passes 2 U D.  A try that fails stops at the first residue of one target, at about the
    cost of one target's step; so while more targets lift than steps have run, every step tries,
    and a block of dense dependencies stops at the first step that suffices.  A candidate stands only if the combination holds exactly
    at every coordinate, one outside the pivots first.  Past the bound it is the solution itself:
    if it fails only outside the pivots, that target is no combination; if it fails at the pivots,
    the arithmetic is broken, which raises.
    """
    r, n = len(vectors), len(targets[0])
    system = [[v[c] for c in pivots] for v in vectors]  # the columns of M
    rows = [*zip(*system)]
    widest = [max(abs(t[c]) for t in targets) for c in pivots]  # bounds every target at each pivot
    square = square or math.prod(_squares(system, rows))  # D**2
    numerator = math.prod(_squares([widest, *system], [[*row, e] for row, e in zip(rows, widest)]))  # U**2
    lines = [*zip(*vectors)] if vectors else [()] * n  # the vectors at each coordinate
    reach = max(sum(map(abs, line)) for line in lines)
    tallest = max(max(map(abs, t)) for t in targets)
    inside = set(pivots)
    order = sorted(range(n), key=inside.__contains__)
    lows = [min(0, *column) for column in system]
    shifted = [[e - low for e in column] for column, low in zip(system, lows)]
    words = (r * p * max(map(max, shifted), default=0)).bit_length() // 64 + 1
    packed = [_packed(column, words) for column in shifted]
    candidates: dict[int, tuple[list[int], int]] = {}

    def holds(chosen: list[int], coordinates) -> bool:
        """Whether N v = d t at these coordinates for these targets' candidates, packed across them."""
        common = math.lcm(*(candidates[i][1] for i in chosen))
        scaled = [[e * (common // d) for e in numerators] for numerators, d in map(candidates.get, chosen)]
        largest = max((abs(e) for numerators in scaled for e in numerators), default=0)
        size = (largest * reach + common * tallest).bit_length() // 64 + 1  # 64-bit words a field
        half = 1 << 64 * size - 1
        base = _packed([half] * len(chosen), size)

        def spread(columns):  # field j of each int is the j-th chosen target's; every sum's stays below half
            return [_packed([e + half for e in column], size) - base for column in columns]

        lefts, rights = spread(zip(*scaled)), spread(zip(*map(targets.__getitem__, chosen)))
        return all(sum(map(mul, lines[c], lefts)) == common * rights[c] for c in coordinates)

    pending = {i: [t[c] for c in pivots] for i, t in enumerate(targets)}  # each target's residual r
    sums = {i: [0] * r for i in pending}
    modulus, steps, tries = 1, 0, 1
    while pending:
        for i, rest in pending.items():
            y = [f % p for f in _unpacked(sum(map(mul, [e % p for e in rest], inverse)), r)]
            offset = sum(map(mul, y, lows))
            pending[i] = [(e - f - offset) // p for e, f in zip(rest, _unpacked(sum(map(mul, y, packed)), r, words))]
            sums[i] = [e + modulus * f for e, f in zip(sums[i], y)]
        modulus *= p
        steps += 1
        final = modulus**2 > 4 * numerator * square
        if steps < tries and not final:
            continue
        tries = steps + max(1, steps // len(pending))
        chosen = []
        for i in [*pending]:
            candidate = _reconstructed(sums[i], modulus, math.isqrt(numerator if final else modulus // 4))
            if candidate is not None:
                candidates[i] = candidate
                chosen.append(i)
            elif final:
                raise ArithmeticError("a lifted solution does not solve its system")
            else:  # the others are likely no nearer: the next try starts with them
                pending[i] = pending.pop(i)
                break
        if chosen and not holds(chosen, order):
            for i in [*chosen]:
                if holds([i], order):
                    continue
                if holds([i], pivots):  # the one solution, which fails outside the pivots
                    return None
                if final:
                    raise ArithmeticError("a lifted solution does not solve its system")
                chosen.remove(i)
        for i in chosen:
            del pending[i], sums[i]
    return [candidates[i] for i in range(len(targets))]


def _squares(*families) -> list[int]:
    """The squared norms of the vectors of whichever family's have the fewest bits in all.

    Their product squares Hadamard's bound.  One large entry makes a product by columns far
    larger, and slower to form, than the one by rows, so only the smaller product is formed.
    """
    squares = [[sum(map(mul, vector, vector)) for vector in family] for family in families]
    return min(squares, key=lambda family: sum(map(int.bit_length, family)))


def _reconstructed(residues: list[int], modulus: int, bound: int) -> tuple[list[int], int] | None:
    """N and d > 0 with N_i = d residues_i mod modulus, |N_i| <= bound and 2 bound d < modulus,
    one d for all; None as soon as d passes that bound.

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
            d *= v
            if 2 * bound * d >= modulus:
                return None
            numerators = [e * v for e in numerators]
        numerators.append(y)
    return numerators, d


def _field_bits(n: int) -> int:
    """The prime width at order n: every p < 2**bits keeps a field's bound, p + n * (p - 1)**2, below 2**64."""
    return (64 - n.bit_length()) // 2


def _eliminated_mod(
    m: Sequence[Sequence[int]], p: int, inverse: bool = False
) -> tuple[int, int, list[int], list[int], list[int]]:
    """Rank, determinant, kept rows, pivot rows and pivot columns of ``m`` modulo a prime p < 2**_field_bits(len(m)).

    Each row is one int of 64-bit fields, field 0 the current column.  Each step shifts field 0
    out of every row and adds (p - v) times the pivot row, reduced and scaled to lead with 1,
    where v is the row's field 0 mod p; so a field gains at most (p - 1)**2 a step, and only the
    pivot row is ever reduced.  The pivot rows are the indices in ``m`` of the rows that pivot,
    the k-th at the k-th pivot column.

    Without ``inverse`` the pivot row is dropped, and no row is kept.  At a column without a
    pivot the live rows are reduced mod p, and those that are 0 mod p leave: they never pivot.
    With ``inverse`` this is
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
    rank, det, pivots, columns = 0, 1, [], []
    for col in range(n):
        heads = [(x & 0xFFFF_FFFF_FFFF_FFFF) % p for x in rows]
        kept = rank if inverse else 0  # the live rows follow the kept ones
        k = next((k for k in range(len(order)) if heads[kept + k]), None)
        if k is None:
            if inverse:
                break
            rows = [_packed([f % p for f in _unpacked(x >> 64, n - col - 1)]) for x in rows]
            order = [i for i, x in zip(order, rows) if x]
            rows = [x for x in rows if x]
            if not rows:
                break
            continue
        top, lead = rows.pop(kept + k) >> 64, heads.pop(kept + k)
        pivots.append(order.pop(k))
        columns.append(col)
        det = (-det if k & 1 else det) * lead % p  # the pivot row moved up past k rows
        scale = pow(lead, -1, p)
        top = _packed([f * scale % p for f in _unpacked(top, width - col - 1)])
        rows = [(x >> 64) + (p - v) * top if v else x >> 64 for x, v in zip(rows, heads)]
        if inverse:
            rows.insert(rank, top)
        rank += 1
    kept = [_packed([f % p for f in _unpacked(x >> 64 * (n - rank), n)]) for x in rows[:rank]] if inverse else []
    return rank, det if rank == n else 0, kept, pivots, columns


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
