"""Seeded inputs for the benchmark workloads: the same seed gives the same inputs.

The ``large`` workloads read matrix files.  Each kind has one full-rank
matrix (written as JSON) and one matrix of rank n/2 (written as CSV), whose
rows past the first n/2 are signed copies of earlier rows, shuffled in, so
elimination has to search for pivots.  Every case carries its expected
values, computed by :mod:`oracles` when the file is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

from oracles import PRIMES, det_residues, dih_by_diagonals, rank_mod

LARGE_ORDERS = {"int": 128, "rat": 64}


@dataclass(frozen=True)
class LargeCase:
    path: Path
    rank: int
    dih: Fraction
    det_residues: tuple[int, ...]


def _entry(rng: Random, kind: str):
    if kind == "int":
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_rows(rng: Random, n_rows: int, n: int, kind: str) -> list[list]:
    return [[_entry(rng, kind) for _ in range(n)] for _ in range(n_rows)]


def full_rank_rows(rng: Random, n: int, kind: str) -> list[list]:
    while True:
        rows = _random_rows(rng, n, n, kind)
        if rank_mod(rows, PRIMES[0]) == n:
            return rows


def half_rank_rows(rng: Random, n: int, kind: str) -> list[list]:
    rank = n // 2
    while True:
        base = _random_rows(rng, rank, n, kind)
        if rank_mod(base, PRIMES[0]) == rank:
            break
    copies = [[-e for e in rng.choice(base)] if rng.random() < 0.5 else list(rng.choice(base))
              for _ in range(n - rank)]
    rows = base + copies
    rng.shuffle(rows)
    return rows


def _cell(e) -> str:
    return str(e) if isinstance(e, int) else f"{e.numerator}/{e.denominator}"


def _write(path: Path, rows: list[list]) -> None:
    if path.suffix == ".json":
        obj = [[e if isinstance(e, int) else _cell(e) for e in row] for row in rows]
        path.write_text(json.dumps(obj), encoding="utf-8")
    else:
        path.write_text("".join(",".join(_cell(e) for e in row) + "\n" for row in rows), encoding="utf-8")


def write_large_inputs(seed: int, kind: str, directory: Path) -> list[LargeCase]:
    """Write the full-rank and half-rank files of one kind ("int" or "rat")."""
    n = LARGE_ORDERS[kind]
    rng = Random(f"large-{kind}-{seed}")
    cases = []
    for name, rows, rank in (
        (f"{kind}-full.json", full_rank_rows(rng, n, kind), n),
        (f"{kind}-half.csv", half_rank_rows(rng, n, kind), n // 2),
    ):
        path = directory / name
        _write(path, rows)
        cases.append(LargeCase(path, rank, Fraction(dih_by_diagonals(rows)), det_residues(rows)))
    return cases
