"""Square matrices over the exact rationals.

Entries are stored as given when they are ``int``s; every other exact value
becomes a ``fractions.Fraction`` (reduced form, positive denominator), and
a Fraction with denominator 1 is stored as its int, so equal matrices have
equal grids.  ``rows`` and ``entry`` still hand out ``Fraction``s.  Matrices
are immutable; every operation returns a new value.  Addressing is 1-based
to match the one-line permutation convention in :mod:`dihedrant.perm`.

Floats are rejected at construction: every identity this package checks is
exact, and a silently binary-rounded entry would poison all of them.

The module also holds the package's one exact-integer layer, which every
functional, scheme and search runs on: ``ExactMatrix._cleared`` turns a
matrix's rows into integer rows once, ``signed_product_sum`` is the one
loop over signed permutation products, and ``echelon`` is the one
elimination, serving both rank and determinant: fraction-free below order
``MODULAR_ORDER``, and from it on modulo primes shared out by :func:`dihedrant.forks._joined`.
"""

from __future__ import annotations

import itertools
import math
import re
import reprlib
import sys
from array import array
from fractions import Fraction
from typing import Iterable, Sequence

from .forks import _joined
from .perm import Permutation


class _Brief(reprlib.Repr):
    """Quotes rejected values in error messages, cut to a few hundred characters."""

    def repr_int(self, x: int, level: int) -> str:  # past 2,000 bits str(x) may exceed the digit limit
        return super().repr_int(x, level) if x.bit_length() <= 2000 else f"<int of {x.bit_length()} bits>"


_ENTRY_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_brief = _Brief()
_brief.maxlevel = 1
_INT = {int}
_NOT_ROWS = (str, bytes, bytearray, dict, set, frozenset)  # iterable, but not an ordered row


def _not_a_row(value) -> bool:
    """Not iterable, one of _NOT_ROWS, or a memoryview of one (of bytes: its items are byte values too)."""
    try:
        iter(value)
    except TypeError:
        return True
    return isinstance(value.obj if isinstance(value, memoryview) else value, _NOT_ROWS)


class MatrixFormatError(ValueError):
    """A matrix entry, file or document that does not satisfy the format."""


def _parse(text: str) -> int | Fraction:
    """The one strict parser: an ASCII integer or 'p/q', surrounding whitespace allowed."""
    value = text.strip()
    if not _ENTRY_RE.fullmatch(value):
        raise MatrixFormatError(f"not an integer or p/q value: {_brief.repr(text)}")
    try:
        return int(value) if "/" not in value else _exact(Fraction(value))
    except ZeroDivisionError:
        raise MatrixFormatError(f"zero denominator: {_brief.repr(text)}") from None
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits() allows
        raise MatrixFormatError(str(exc)) from None


def _exact(value) -> int | Fraction:
    """An entry as ExactMatrix stores it: an int, or a Fraction that is not one."""
    kind = type(value)
    if kind is int:
        return value
    if isinstance(value, str):
        return _parse(value)
    if kind is not Fraction:
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            raise ValueError(f"entries must be exact (int, Fraction, or 'p/q'), got {_brief.repr(value)}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def parse_scalar(text: str) -> Fraction:
    """Parse an ASCII integer or 'p/q' string, surrounding whitespace allowed; reject the rest."""
    return Fraction(_parse(text))


class ExactMatrix:
    """An immutable n x n matrix of exact rationals."""

    __slots__ = ("_grid", "_int_rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        if _not_a_row(rows):
            raise ValueError(f"rows must be a sequence of rows, not a {type(rows).__name__}")
        grid = []
        for i, row in enumerate(rows, start=1):
            if _not_a_row(row):
                raise ValueError(f"row {i} is a {type(row).__name__}, not a sequence of entries")
            row = tuple(row)
            grid.append(row if {*map(type, row)} == _INT else tuple(map(_exact, row)))
        n = len(grid)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for i, row in enumerate(grid, start=1):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n} (matrix must be square)")
        self._grid = tuple(grid)
        self._int_rows = None

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self._grid)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(Fraction, row)) for row in self._grid)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j, 1-based."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"position ({i},{j}) outside 1..{self.n}")
        return Fraction(self._grid[i - 1][j - 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._grid == other._grid

    def __hash__(self) -> int:
        return hash(self._grid)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self._grid)
        return f"ExactMatrix([{body}])"

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(zip(*self._grid))

    def permute_columns(self, sigma: Permutation) -> "ExactMatrix":
        """New matrix whose j-th column is this matrix's sigma(j)-th column."""
        self._check_perm(sigma)
        return ExactMatrix(
            tuple(row[j - 1] for j in sigma.images) for row in self._grid
        )

    def permute_rows(self, sigma: Permutation) -> "ExactMatrix":
        """New matrix whose i-th row is this matrix's sigma(i)-th row."""
        self._check_perm(sigma)
        return ExactMatrix(self._grid[i - 1] for i in sigma.images)

    def linear_combination_row(self, j: int, alpha, beta, b: Sequence) -> "ExactMatrix":
        """Replace row j by alpha*(row j) + beta*b, other rows unchanged."""
        if not 1 <= j <= self.n:
            raise ValueError(f"row {j} outside 1..{self.n}")
        vec = tuple(map(_exact, b))
        if len(vec) != self.n:
            raise ValueError(f"replacement row has {len(vec)} entries, expected {self.n}")
        a, c = _exact(alpha), _exact(beta)
        new_row = tuple(a * x + c * y for x, y in zip(self._grid[j - 1], vec))
        return ExactMatrix(
            new_row if i == j - 1 else row for i, row in enumerate(self._grid)
        )

    def rank(self) -> int:
        """Exact rank over the rationals (row scaling does not change it)."""
        return echelon(self._cleared()[0], det=False)[0]

    def _cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Each row scaled by the lcm of its denominators, and the product of the scales.

        The dihedrant, the determinant and every scheme are linear in each row, so their
        value is their value on these integer rows divided by the product; rank does not
        change.  Computed once; the rows are tuples, and nothing writes to them.
        """
        if self._int_rows is None:
            ints = []
            scales = 1
            for row in self._grid:
                if {*map(type, row)} != _INT:
                    scale = math.lcm(*(e.denominator for e in row))
                    scales *= scale
                    row = tuple(e.numerator * (scale // e.denominator) for e in row)
                ints.append(row)
            self._int_rows = tuple(ints), scales
        return self._int_rows

    def _check_perm(self, sigma: Permutation) -> None:
        if sigma.n != self.n:
            raise ValueError(f"permutation of order {sigma.n} on a {self.n}x{self.n} matrix")


# ---------------------------------------------------------------------------
# the exact-integer layer


# Least order that runs the modular path.  Best of 15 on 2 CPUs (Python 3.11), ms for Bareiss / modular on
# 1 span / on 2, at n = 32, 40, 48, 64: entries in [-9, 9] 4.3/5.3/4.3, 5.5/6.4/6.5, 10.7/10.0/8.6 and
# 29.5/24.8/17.0; entries p/q with |p|, q <= 9, cleared, 4.8/7.9/10.2, 11.2/15.3/16.3, 23.0/26.2/25.7
# and 111.8/109.3/64.0.
MODULAR_ORDER = 48


def echelon(m: Sequence[Sequence[int]], det: bool = True) -> tuple[int, int | None]:
    """Rank and determinant of a square integer matrix; the determinant is 0 below full rank.

    ``m`` is only read.  Below order ``MODULAR_ORDER`` the fraction-free (Bareiss) loop
    ``_eliminated`` runs on a copy.  From that order on, Gaussian elimination runs modulo
    word-size primes (``_eliminated_mod``), shared out by the one fork-join
    :func:`dihedrant.forks._joined`, and the Chinese remainder theorem joins them.  With H
    the product of the row norms (Hadamard's bound on the determinant), the determinant is the
    balanced residue once the primes' product exceeds 2H; the rank is the largest rank mod p,
    r, once the product exceeds the product of the r + 1 largest row norms, which bounds every
    minor of order r + 1.  One more prime must then agree: no larger rank and, if the
    determinant is sought, the same determinant modulo it, else ``ArithmeticError``.  With
    ``det`` false only the rank is sought: on this path a full rank modulo any prime ends the
    work, and the determinant is None.
    """
    n = len(m)
    if n < MODULAR_ORDER:
        return _eliminated([list(row) for row in m])
    squares = sorted((sum(e * e for e in row) for row in m), reverse=True)  # the squared row norms
    bounds = [*itertools.accumulate(squares, int.__mul__, initial=1)]  # bounds[k]: of the k largest

    def certified(product: int, rank: int) -> bool:  # the rank, and the determinant if sought
        return (rank == n or product**2 > bounds[rank + 1]) and (not det or rank < n or product**2 > 4 * bounds[n])

    bits = (64 - n.bit_length()) // 2  # so that p + n * p * p < 2**64 for every p < 2**bits
    used, product, residue, rank, checked = 0, 1, 0, 0, False
    while not used or not (certified(product, rank) and (checked or (rank == n and not det))):
        batch, planned = [], product
        while used and not certified(planned, rank):  # enough primes to certify the rank seen so far
            batch.append(_prime(bits, used + len(batch)))
            planned *= batch[-1]
        batch.append(_prime(bits, used + len(batch)))  # the first prime, or one more to check
        used += len(batch)
        residues = _joined(lambda primes: [_eliminated_mod(m, p) for p in primes], batch)
        for p, (rank_p, det_p) in zip(batch, residues):
            if not certified(product, rank):
                residue += product * ((det_p - residue) * pow(product, -1, p) % p)
                product *= p
                residue -= product if 2 * residue > product else 0  # kept balanced
                rank = max(rank, rank_p)
            elif rank_p > rank or (det and det_p != residue % p):
                raise ArithmeticError("a check prime disagrees with the multi-modular rank and determinant")
            else:
                checked = True
    return rank, residue if det else None


def _eliminated(m: list[list[int]]) -> tuple[int, int]:
    """Bareiss elimination in place (determinant 1 at order 0); each update divides by the previous
    pivot, which Sylvester's identity makes exact, so a remainder means broken arithmetic and raises."""
    n = len(m)
    rank, sign, prev = 0, 1, 1
    for col in range(n):
        top = m[rank]
        if top[col] == 0:
            pivot = next((r for r in range(rank + 1, n) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], top
            top = m[rank]
            sign = -sign
        lead = top[col]
        cols = range(col + 1, n)
        for row in m[rank + 1 :]:
            factor = row[col]
            if prev == 1:  # always so on the first step: dividing by 1 is exact and free
                for c in cols:
                    row[c] = row[c] * lead - factor * top[c]
                continue
            for c in cols:
                q, r = divmod(row[c] * lead - factor * top[c], prev)
                if r:
                    raise ArithmeticError("fraction-free elimination produced a non-integer quotient")
                row[c] = q
        prev = lead
        rank += 1
    return (n, sign * prev) if rank == n else (rank, 0)


def _eliminated_mod(m: Sequence[Sequence[int]], p: int) -> tuple[int, int]:
    """Rank and determinant of ``m`` modulo the prime p, which needs p + len(m) * p * p < 2**64.

    Each row is one int of 64-bit fields, field 0 the current column.  Each step shifts field 0
    out of every live row and adds (p - v) times the pivot row, reduced and scaled to lead with 1,
    where v is the row's field 0 mod p; so a field gains less than p * p a step, and only the
    pivot row is ever reduced.
    """
    order = sys.byteorder
    rows = m if order == "little" else [row[::-1] for row in m]  # so that field 0 is the low word
    live = [int.from_bytes(array("Q", [e % p for e in row]), order) for row in rows]
    n = len(m)
    rank, det = 0, 1
    for col in range(n):
        heads = [(x & 0xFFFF_FFFF_FFFF_FFFF) % p for x in live]
        k = next((k for k, v in enumerate(heads) if v), None)
        if k is None:
            live = [x >> 64 for x in live]
            continue
        top, lead = live.pop(k) >> 64, heads.pop(k)
        det = (-det if k & 1 else det) * lead % p  # the pivot row moved up past k rows
        scale = pow(lead, -1, p)
        fields = memoryview(top.to_bytes(8 * (n - col - 1), order)).cast("Q")
        top = int.from_bytes(array("Q", [f * scale % p for f in fields]), order)
        live = [(x >> 64) + (p - v) * top if v else x >> 64 for x, v in zip(live, heads)]
        rank += 1
    return (rank, det) if rank == n else (rank, 0)


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


def signed_product_sum(rows: Sequence[Sequence], terms: Iterable[tuple[Sequence[int], int]]):
    """Sum of sign * prod_i rows[i][images[i] - 1] over the (images, sign) pairs.

    ``images`` is a permutation in 1-based one-line notation.  The sum is
    exact for int and Fraction entries alike, so term order does not matter.
    """
    n = len(rows)
    total = 0
    for images, sign in terms:
        if len(images) != n:
            raise ValueError(f"permutation of order {len(images)} on a {n}x{n} matrix")
        product = 1
        for i, j in enumerate(images):
            product *= rows[i][j - 1]
        total += product if sign > 0 else -product
    return total
