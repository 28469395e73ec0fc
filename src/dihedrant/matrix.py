"""Square matrices over the exact rationals.

``ExactMatrix``'s constructor alone turns values into entries, in one pass
per row: it checks and parses each value, naming a bad one by row and column,
and clears the row to integers.  ``int``s are stored as given; every other
exact value becomes a ``fractions.Fraction`` (reduced form, positive
denominator), and a Fraction with denominator 1 is stored as its int, so
equal matrices have equal grids.  ``rows`` and ``entry`` still hand out
``Fraction``s.  Matrices are immutable; every operation returns a new value.
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

from .perm import Permutation


class _Brief(reprlib.Repr):
    """Quotes rejected values in error messages, cut to a few hundred characters."""

    def repr_int(self, x: int, level: int) -> str:  # past 2,000 bits str(x) may exceed the digit limit
        return super().repr_int(x, level) if x.bit_length() <= 2000 else f"<int of {x.bit_length()} bits>"


_ENTRY_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
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


def _parse(text: str) -> int | Fraction:
    """The one strict parser: an ASCII integer or 'p/q', surrounding whitespace allowed."""
    value = text.strip()
    if not _ENTRY_RE.fullmatch(value):
        raise MatrixFormatError(f"not an integer or p/q value: {_brief.repr(text)}")
    try:
        if "/" not in value:
            return int(value)
        p, q = value.split("/")
        value = Fraction(int(p), int(q))  # from the two ints: Fraction(str) would run a second regex
    except ZeroDivisionError:
        raise MatrixFormatError(f"zero denominator: {_brief.repr(text)}") from None
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits() allows
        raise MatrixFormatError(str(exc)) from None
    return value.numerator if value.denominator == 1 else value


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
    if not isinstance(text, str):
        raise MatrixFormatError(f"not a string: {_brief.repr(text)}")
    return Fraction(_parse(text))


class ExactMatrix:
    """An immutable n x n matrix of exact rationals."""

    __slots__ = ("_grid", "_int_rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        if _not_a_row(rows):
            raise ValueError(f"rows must be a sequence of rows, not a {type(rows).__name__}")
        grid, ints, scales = [], [], 1
        for i, row in enumerate(rows, start=1):
            if _not_a_row(row):
                raise ValueError(f"row {i} is a {type(row).__name__}, not a sequence of entries")
            row = tuple(row)
            kinds = {*map(type, row)}
            if kinds != _INT:
                try:
                    row = tuple(map(_parse if kinds == _STR else _exact, row))  # strs skip _exact's frame
                except ValueError:  # checked alone, the first bad entry fails again and names its column
                    for j, entry in enumerate(row, start=1):
                        try:
                            _exact(entry)
                        except ValueError as exc:
                            raise type(exc)(f"row {i}, column {j}: {exc}") from None
                    raise
                kinds = {*map(type, row)}
            grid.append(row)
            if kinds != _INT:  # a Fraction among the entries
                scale = math.lcm(*(e.denominator for e in row))
                scales *= scale
                row = tuple(e.numerator * (scale // e.denominator) for e in row)
            ints.append(row)
        n = len(grid)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for i, row in enumerate(grid, start=1):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n} (matrix must be square)")
        self._grid = tuple(grid)
        self._int_rows = tuple(ints), scales

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
        if not (type(i) is type(j) is int and 1 <= i <= self.n and 1 <= j <= self.n):  # no floats, no bools
            raise ValueError(f"position ({i!r},{j!r}) is not two ints in 1..{self.n}")
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
        if not (type(j) is int and 1 <= j <= self.n):  # a float fails as an index, True would replace row 1
            raise ValueError(f"row {j!r} is not an int in 1..{self.n}")
        if _not_a_row(b):
            raise ValueError(f"replacement row is a {type(b).__name__}, not a sequence of entries")
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
        return integer_rank(self._cleared()[0])

    def _cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Each row scaled by the lcm of its denominators, and the product of the scales.

        The dihedrant, the determinant and every scheme are linear in each row, so their
        value is their value on these integer rows divided by the product; rank does not
        change.  Built by the constructor as it checks each row; the rows are tuples (an
        integer row is the stored row itself), and nothing writes to them.
        """
        return self._int_rows

    def _check_perm(self, sigma: Permutation) -> None:
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
