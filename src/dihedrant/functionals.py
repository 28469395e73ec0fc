"""The three scalar functionals on exact matrices.

* ``dihedrant``: the signed sum over the dihedral group,
  dih(A) = sum over sigma in D_n of sig(sigma) * prod_i a[i, sigma(i)].
  This is exactly what the false Sarrus rule (repeat the first n-1 columns,
  add the falling diagonals, subtract the rising ones) computes.
* ``leibniz_det``: the full n!-term expansion
  det(A) = sum over sigma in S_n of sgn(sigma) * prod_i a[i, sigma(i)].
  Kept deliberately naive; it is the independent oracle the tests trust.
  It still sums all n! products; each sign is the parity of the
  permutation's inversions, read off its place in lexicographic order.
* ``elimination_det``: the exact determinant that scales past the oracle
  cap: fraction-free (Bareiss) elimination below ``matrix.MODULAR_ORDER``,
  and from it on a determinant lifted modulo powers of one prime and
  certified in integers (:mod:`dihedrant.modular`).

``dihedrant`` and ``elimination_det`` run on the integer rows each matrix
clears as it is built, through the package's one signed-product loop and
its one elimination kernel.  ``leibniz_det`` shares only the signed-product
loop: it reads the stored entries (ints, and Fractions where an entry is not
an integer) as they are and never touches the clearing step or the
elimination kernel, so comparing it with ``elimination_det`` compares two
independent routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .matrix import ExactMatrix, integer_det, signed_product_sum
from .perm import dihedral_group, sig, symmetric_group


@lru_cache(maxsize=None)
def dihedral_terms(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The 2n (images, sig) pairs of D_n, built once per order."""
    return tuple((elem.perm.images, sig(elem)) for elem in dihedral_group(n))


def symmetric_terms(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The n! (images, sgn) pairs of S_n, in the lexicographic order of ``symmetric_group``.

    In that order the image at position i is the k-th smallest of the n - i
    values not yet placed, for k running 0..n-i-1 with the later positions
    fastest, and it stands before exactly k of them.  So the inversion count
    is the sum of the k, and the sign is the product of the (-1)**k: one
    ``itertools.product`` stream, with no cycle walk per permutation.
    """
    parities = [[(-1) ** k for k in range(n - i)] for i in range(n)]
    return zip((p.images for p in symmetric_group(n)), map(math.prod, itertools.product(*parities)))


def dihedrant(A: ExactMatrix) -> Fraction:
    """The false Sarrus functional: rotations count +, reflections count -.

    Identically zero for n <= 2 (each reflection repeats a rotation's
    product) and equal to the determinant for n = 3, where D_3 = S_3.
    """
    ints, scales = A._cleared()
    return Fraction(signed_product_sum(ints, dihedral_terms(A.n)), scales)


def leibniz_det(A: ExactMatrix) -> Fraction:
    """Determinant by brute-force expansion over all of S_n.

    The products run on the stored entries, plain ints wherever an entry
    is an integer.  Raises ResourceLimitError above the symmetric-group cap.
    """
    return Fraction(signed_product_sum(A._grid, symmetric_terms(A.n)))


def elimination_det(A: ExactMatrix) -> Fraction:
    """Determinant by ``matrix.integer_det`` on the cleared rows; agrees with leibniz_det."""
    ints, scales = A._cleared()
    return Fraction(integer_det(ints), scales)
