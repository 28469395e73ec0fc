"""The three scalar functionals on exact matrices.

* ``dihedrant``: the signed sum over the dihedral group,
  dih(A) = sum over sigma in D_n of sig(sigma) * prod_i a[i, sigma(i)].
  This is exactly what the false Sarrus rule (repeat the first n-1 columns,
  add the falling diagonals, subtract the rising ones) computes.
* ``leibniz_det``: the full n!-term expansion
  det(A) = sum over sigma in S_n of sgn(sigma) * prod_i a[i, sigma(i)].
  Kept deliberately naive; it is the independent oracle the tests trust.
* ``elimination_det``: fraction-free (Bareiss) elimination, the scalable
  reference for orders beyond the oracle cap.

``dihedrant`` and ``elimination_det`` run on the integer rows of
:func:`dihedrant.matrix.cleared_rows`, through the package's one
signed-product loop and its one elimination kernel.  ``leibniz_det`` shares
only the signed-product loop: it reads the matrix entries as they are and
never touches the clearing step or the elimination kernel, so comparing it
with ``elimination_det`` compares two independent routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .matrix import ExactMatrix, cleared_rows, echelon, signed_product_sum
from .perm import dihedral_group, sgn, sig, symmetric_group


@lru_cache(maxsize=None)
def dihedral_terms(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The 2n (images, sig) pairs of D_n, built once per order."""
    return tuple((elem.perm.images, sig(elem)) for elem in dihedral_group(n))


def dihedrant(A: ExactMatrix) -> Fraction:
    """The false Sarrus functional: rotations count +, reflections count -.

    Identically zero for n <= 2 (each reflection repeats a rotation's
    product) and equal to the determinant for n = 3, where D_3 = S_3.
    """
    ints, scales = cleared_rows(A.rows)
    return Fraction(signed_product_sum(ints, dihedral_terms(A.n)), scales)


def leibniz_det(A: ExactMatrix) -> Fraction:
    """Determinant by brute-force expansion over all of S_n.

    The products run on plain ints when every entry is an integer.  Raises
    ResourceLimitError above the symmetric-group cap.
    """
    grid = A.rows
    if all(e.denominator == 1 for row in grid for e in row):
        grid = [[e.numerator for e in row] for row in grid]
    return Fraction(signed_product_sum(grid, ((p.images, sgn(p)) for p in symmetric_group(A.n))))


def elimination_det(A: ExactMatrix) -> Fraction:
    """Determinant by fraction-free elimination; agrees with leibniz_det."""
    ints, scales = cleared_rows(A.rows)
    return Fraction(echelon(ints)[1], scales)
