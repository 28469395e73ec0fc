"""Square matrices over the exact rationals.

A matrix is stored in one form: its rows cleared to integers, each scaled by
the lcm of its denominators, and those per-row scales.  The dihedrant, the
determinant and every scheme are linear in each row, so this form is the whole
matrix; it is canonical, so equality and hashing compare it.  ``ExactMatrix``'s
constructor alone builds it, a row at a time, from the (numerator, denominator)
pairs of ``_pair``, the one entry reader, and names a bad value by its row and
column.  The entries (``int``s, and ``fractions.Fraction``s where an entry is
not an integer) are rebuilt from it on first use; ``rows`` and ``entry`` hand
out ``Fraction``s.  Matrices are immutable; every operation returns a new value.
Addressing is 1-based, as in the one-line permutations of :mod:`dihedrant.perm`.

Floats are rejected at construction: every identity this package checks is
exact, and a silently binary-rounded entry would poison all of them.

The module also holds the package's one exact-integer layer, which every
functional, scheme and search runs on: ``ExactMatrix._cleared`` returns the
integer rows built at construction, ``signed_product_sum`` is the one
loop over signed permutation products, and ``integer_det`` and
``integer_rank`` each certify what they return.  Below order
``MODULAR_ORDER`` both run the fraction-free (Bareiss) loop.  From it on they
call :mod:`dihedrant.modular`, imported on first use, which owns everything
that runs modulo primes: the packed kernel, the primes, the liftings and the
one choice of the primes of a determinant's quotient.
"""

from __future__ import annotations

import math
import re
import reprlib
from fractions import Fraction
from typing import Iterable, Sequence

from .perm import Permutation, _check_int


class _Brief(reprlib.Repr):
    """Quotes rejected values in error messages, cut to a few hundred characters."""

    def repr_int(self, x: int, level: int) -> str:  # past 2,000 bits str(x) may exceed the digit limit
        return super().repr_int(x, level) if x.bit_length() <= 2000 else f"<int of {x.bit_length()} bits>"


# The one grammar: an ASCII integer or p/q.  \s is exactly the characters for which str.isspace() holds,
# so the surrounding whitespace is what str.strip() would remove.
_INTEGER = r"\s*([+-]?[0-9]+)"
_ENTRY_RE = re.compile(_INTEGER + r"(?:/([0-9]+))?\s*")
_INT_RE = re.compile(_INTEGER + r"\s*")
_brief = _Brief()
_brief.maxlevel = 1
_INT = {int}
_STR = {str}
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


def _pair(entry) -> tuple[int, int]:
    """The one entry reader: an int, a Fraction, or a str in the one grammar, as a (numerator,
    denominator) pair with a positive denominator; anything else raises, naming the value.

    A p/q string's pair is as written, not reduced: ``_cleared_row`` divides out a whole
    row's common factor at once, one gcd per row in place of one per cell.
    """
    kind = type(entry)
    if kind is int:
        return entry, 1
    if isinstance(entry, str):
        match = _ENTRY_RE.fullmatch(entry)
        if match is None:
            raise MatrixFormatError(f"not an integer or p/q value: {_brief.repr(entry)}")
        p, q = match.groups()
        try:
            p = int(p)
            if q is None:
                return p, 1
            q = int(q)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits() allows
            raise MatrixFormatError(str(exc)) from None
        if not q:
            raise MatrixFormatError(f"zero denominator: {_brief.repr(entry)}")
        return p, q
    if kind is not Fraction:
        if not isinstance(entry, (int, Fraction)) or isinstance(entry, bool):
            raise ValueError(f"entries must be exact (int, Fraction, or 'p/q'), got {_brief.repr(entry)}")
        entry = Fraction(entry)
    return entry.numerator, entry.denominator


def _cleared_row(row: tuple, i: int) -> tuple[tuple[int, ...], int]:
    """Row i scaled to integers by the lcm of its denominators, and that scale.

    A row of ints is its own cleared row, and a row of integer strings is read by ``int()``.
    Any other row, or one where ``int()`` refuses a cell, is read cell by cell by ``_pair``;
    when that fails, the cells are read again one at a time, so the first bad one is named
    by its row and column.  Scaled by the lcm of the pairs' denominators, the row is divided
    by its gcd with that lcm, which leaves the least scale whether or not each p/q was reduced.
    """
    kinds = {*map(type, row)}
    if kinds == _INT:
        return row, 1
    if kinds == _STR and all(map(_INT_RE.fullmatch, row)):
        try:
            return tuple(map(int, row)), 1
        except ValueError:  # the digit limit, or int() refusing U+001C..U+001F, which \s matches
            pass
    try:
        pairs = tuple(map(_pair, row))
    except ValueError:
        for j, entry in enumerate(row, start=1):
            try:
                _pair(entry)
            except ValueError as exc:
                raise type(exc)(f"row {i}, column {j}: {exc}") from None
        raise
    scale = math.lcm(*{q for _, q in pairs})  # of the distinct denominators: a few, where a row has many
    cleared = [p * (scale // q) for p, q in pairs]
    g = math.gcd(scale, *cleared)  # above 1 only where a p/q string is not in lowest terms
    if g > 1:
        scale //= g
        cleared = [e // g for e in cleared]
    return tuple(cleared), scale


def parse_scalar(text: str) -> Fraction:
    """Parse an ASCII integer or 'p/q' string, surrounding whitespace allowed; reject the rest."""
    if not isinstance(text, str):
        raise MatrixFormatError(f"not a string: {_brief.repr(text)}")
    return Fraction(*_pair(text))


class ExactMatrix:
    """An immutable n x n matrix of exact rationals."""

    __slots__ = ("_cells", "_int_rows", "_scales")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        if _not_a_row(rows):
            raise ValueError(f"rows must be a sequence of rows, not a {type(rows).__name__}")
        ints, scales = [], []
        for i, row in enumerate(rows, start=1):
            if _not_a_row(row):
                raise ValueError(f"row {i} is a {type(row).__name__}, not a sequence of entries")
            cleared, scale = _cleared_row(tuple(row), i)
            ints.append(cleared)
            scales.append(scale)
        n = len(ints)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for i, row in enumerate(ints, start=1):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n} (matrix must be square)")
        self._cells = None
        self._int_rows = tuple(ints), math.prod(scales)
        self._scales = tuple(scales)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        _check_int("n", n)
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def _grid(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The entries, rebuilt on first use from the cleared rows and their scales: ints, and
        Fractions where an entry is not an integer.  A row of scale 1 is its own cleared row."""
        if self._cells is None:
            self._cells = tuple(
                row if scale == 1 else tuple(e // scale if e % scale == 0 else Fraction(e, scale) for e in row)
                for row, scale in zip(self._int_rows[0], self._scales)
            )
        return self._cells

    @property
    def n(self) -> int:
        return len(self._scales)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(Fraction, row)) for row in self._grid)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j, 1-based."""
        if not (type(i) is type(j) is int and 1 <= i <= self.n and 1 <= j <= self.n):  # no floats, no bools
            raise ValueError(f"position ({i!r},{j!r}) is not two ints in 1..{self.n}")
        return Fraction(self._grid[i - 1][j - 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._scales == other._scales and self._int_rows == other._int_rows  # both canonical

    def __hash__(self) -> int:
        return hash(self._int_rows)

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
        if not (type(j) is int and 1 <= j <= self.n):  # a float fails as an index, True would replace row 1
            raise ValueError(f"row {j!r} is not an int in 1..{self.n}")
        if _not_a_row(b):
            raise ValueError(f"replacement row is a {type(b).__name__}, not a sequence of entries")
        vec = [Fraction(*_pair(entry)) for entry in b]
        if len(vec) != self.n:
            raise ValueError(f"replacement row has {len(vec)} entries, expected {self.n}")
        a, c = Fraction(*_pair(alpha)), Fraction(*_pair(beta))
        new_row = tuple(a * x + c * y for x, y in zip(self._grid[j - 1], vec))
        return ExactMatrix(
            new_row if i == j - 1 else row for i, row in enumerate(self._grid)
        )

    def rank(self) -> int:
        """Exact rank over the rationals (row scaling does not change it)."""
        return integer_rank(self._cleared()[0])

    def _cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Each row scaled by the lcm of its denominators, and the product of the scales.

        The dihedrant, the determinant and every scheme are linear in each row, so their
        value is their value on these integer rows divided by the product; rank does not
        change.  Built by the constructor as it checks each row; the rows are tuples (a row
        given as ints is that tuple itself), and nothing writes to them.
        """
        return self._int_rows

    def _check_perm(self, sigma: Permutation) -> None:
        if not isinstance(sigma, Permutation):
            raise ValueError(f"sigma must be a Permutation, got a {type(sigma).__name__}")
        if sigma.n != self.n:
            raise ValueError(f"permutation of order {sigma.n} on a {self.n}x{self.n} matrix")


# ---------------------------------------------------------------------------
# the exact-integer layer


# Least order that runs the modular paths.  Bareiss against them, ms, best of 15 on one pinned CPU (Python
# 3.11), at n = 32, 40, 48 and 64.  A full-rank det: entries in [-9, 9] 3.2/4.5, 10.0/4.3, 17.0/10.1 and
# 32.2/15.5; cleared p/q, |p|, q <= 9, 4.7/4.0, 12.6/7.1, 27.1/11.5 and 81.8/19.9.  The rank of rank n/2,
# one prime and lifted row dependencies: ints 1.9/2.2, 4.5/2.1, 5.9/4.3 and 21.0/7.0; p/q 2.0/1.3, 4.3/1.9,
# 12.8/4.4 and 24.3/4.7.  A singular det or a full rank takes 0.3-3 ms.  One threshold for both.
MODULAR_ORDER = 48


def integer_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, which is only read: Bareiss on a copy, or ``modular``'s."""
    if len(m) < MODULAR_ORDER:
        return _eliminated([list(row) for row in m])[1]
    from . import modular

    return modular.determinant(m)


def integer_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank of a square integer matrix, which is only read: Bareiss on a copy, or ``modular``'s."""
    if len(m) < MODULAR_ORDER:
        return _eliminated([list(row) for row in m])[0]
    from . import modular

    return modular.rank(m)


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
