"""Shared test helpers: fixture paths, RNG, and independent oracles."""

from __future__ import annotations

import itertools
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest
from hypothesis import settings

from dihedrant.perm import dihedral_group, sig

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.load_profile("deterministic")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the usable CPUs, counted as the fork guard counts them
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def int_digit_limit():
    """Start the test under CPython's default 4,300-digit int/str limit; restore the old limit after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pid of each child that ``os.fork`` makes in this process from here on (none without ``os.fork``)."""
    children = []
    if hasattr(os, "fork"):  # patching a missing fork in would make the search think it has one
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
    return children


@pytest.fixture
def fractions_built(monkeypatch) -> list:
    """One item per ``Fraction`` constructed from here on; clear it to start a count."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


def gauss_rank(rows) -> int:
    """Rank oracle: plain rational Gaussian elimination, no Bareiss tricks."""
    m = [[Fraction(e) for e in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col] / lead
            for c in range(col, n_cols):
                m[r][c] -= factor * m[rank][c]
        rank += 1
    return rank


def gauss_det(rows) -> Fraction:
    """Determinant oracle: plain rational Gaussian elimination, no Bareiss, no clearing."""
    m = [[Fraction(e) for e in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        lead = m[col][col]
        det *= lead
        for r in range(col + 1, n):
            factor = m[r][col] / lead
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def random_rational_rows(rng: Random, n_rows: int, n: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n_rows)]


def low_rank_rows(rng: Random, n: int, rank: int) -> list[list[Fraction]]:
    """n rows that are rational combinations of ``rank`` random rows, with a zero column.

    The zero column sits inside the matrix, so elimination must skip a
    column before it runs out of pivots.
    """
    basis = random_rational_rows(rng, rank, n)
    for row in basis:
        row[n // 2] = Fraction(0)
    rows = []
    for _ in range(n):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rank)]
        rows.append([sum((c * v[j] for c, v in zip(coeffs, basis)), Fraction(0)) for j in range(n)])
    return rows


def random_int_rows(rng: Random, n: int, lo: int = -5, hi: int = 5) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def plain_search(n: int, lo: int, hi: int, require_nonzero: bool = False) -> list[tuple[tuple[int, ...], ...]]:
    """Search oracle: every matrix in odometer order, dih and det evaluated on each one.

    Hits are integer row tuples, like the search's.  dih is an exact sum over
    ``dihedral_group(n)`` and det is ``cofactor_det``; nothing comes from
    ``analysis`` or the integer layer in ``matrix``.
    """
    return [rows for rows, dih in _plain_hits(n, lo, hi) if dih != 0 or not require_nonzero]


def cofactor_det(rows) -> int:
    """Determinant oracle on integer rows: Laplace expansion along the first row, plain ints."""
    if not rows:
        return 1
    first, rest = rows[0], rows[1:]
    return sum(
        (-1) ** j * a * cofactor_det([row[:j] + row[j + 1 :] for row in rest])
        for j, a in enumerate(first)
        if a
    )


def plain_random_search(
    n: int, lo: int, hi: int, count: int, seed: int, require_nonzero: bool = False
) -> list[tuple[tuple[int, ...], ...]]:
    """Random-search oracle: sample i is drawn row by row by ``Random((seed << 32) + i).randint``.

    dih is an exact sum over ``dihedral_group(n)`` and det is ``cofactor_det``,
    as in ``plain_search``; nothing comes from ``analysis``.
    """
    hits = []
    for i in range(count):
        randint = Random((seed << 32) + i).randint
        flat = tuple(randint(lo, hi) for _ in range(n * n))
        rows, dih = _plain_evaluation(n, flat)
        if (dih != 0 or not require_nonzero) and dih == cofactor_det(rows):
            hits.append(rows)
    return hits


@lru_cache(maxsize=None)
def _plain_hits(n: int, lo: int, hi: int) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    hits = []
    for flat in itertools.product(range(lo, hi + 1), repeat=n * n):
        rows, dih = _plain_evaluation(n, flat)
        if dih == cofactor_det(rows):
            hits.append((rows, dih))
    return tuple(hits)


def _plain_evaluation(n: int, flat: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows of a row-major n x n matrix, and its dih summed over ``dihedral_group(n)``."""
    dih = sum(sign * math.prod(map(flat.__getitem__, cells)) for cells, sign in _dihedral_cells(n))
    return tuple(flat[i * n : (i + 1) * n] for i in range(n)), dih


@lru_cache(maxsize=None)
def _dihedral_cells(n: int) -> tuple[tuple[list[int], int], ...]:
    """Each element of D_n as the flat positions (i, sigma(i)) of its product, with its sign."""
    return tuple(([i * n + j - 1 for i, j in enumerate(elem.perm.images)], sig(elem)) for elem in dihedral_group(n))
