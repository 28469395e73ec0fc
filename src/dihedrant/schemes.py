"""Sarrus-style schemes as explicit lists of signed monomials.

A scheme is a bag of (permutation, sign) pairs; evaluating it on a matrix A
sums sign * prod_i a[i, sigma(i)].  Two families are built here:

* ``false_sarrus_scheme(n)``: the 2n-term diagonal band obtained by copying
  the first n-1 columns behind the matrix.  It evaluates to the dihedrant,
  which equals the determinant only for n = 3.
* ``corrected_scheme_4x4()``: three 8-term schemes whose union covers all
  24 permutations of S_4 exactly once, each monomial carrying its true
  parity sign.  S_4 splits into three right cosets of D_4; the chosen
  representatives are the identity and the column transpositions (1 2) and
  (2 3).  Claim ``scheme:4x4`` (``analysis.check_corrected_scheme``) is the
  one check that they partition S_4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import ExactMatrix, signed_product_sum
from .perm import (
    DihedralElement,
    Permutation,
    compose,
    dihedral_group,
    sgn,
    sig,
)

_COSET_REPRESENTATIVES_4 = (
    (1, 2, 3, 4),
    (2, 1, 3, 4),
    (1, 3, 2, 4),
)


@dataclass(frozen=True)
class SignedMonomial:
    """One product term: sign * a[1,perm(1)] * ... * a[n,perm(n)]."""

    perm: Permutation
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class Scheme:
    """An ordered list of signed monomials of one order, with a label."""

    n: int
    monomials: tuple[SignedMonomial, ...]
    label: str

    def __post_init__(self) -> None:
        for m in self.monomials:
            if m.perm.n != self.n:
                raise ValueError(f"monomial {m.perm} does not act on 1..{self.n}")
        pairs = [(m.perm.images, m.sign) for m in self.monomials]
        if len(set(pairs)) != len(pairs):
            raise ValueError("scheme repeats a (permutation, sign) monomial")

    def evaluate(self, A: ExactMatrix) -> Fraction:
        """Sum of the monomials; each is linear in every row, so integer rows serve."""
        ints, scales = A._cleared()
        terms = ((m.perm.images, m.sign) for m in self.monomials)
        return Fraction(signed_product_sum(ints, terms), scales)


def false_sarrus_scheme(n: int) -> Scheme:
    """The diagonal-band scheme: rotations with +, reflections with -.

    For n = 3 this is the classic rule of Sarrus; for every n it evaluates
    to the dihedrant, not the determinant.
    """
    monomials = tuple(
        SignedMonomial(elem.perm, sig(elem)) for elem in dihedral_group(n)
    )
    return Scheme(n, monomials, f"false-sarrus n={n}")


def corrected_scheme_4x4() -> list[Scheme]:
    """Three 8-term schemes that together expand a 4x4 determinant.

    Scheme j holds the right coset D_4 * sigma_j, every monomial signed by
    the true parity of its permutation (a uniform band sign cannot work:
    within D_4 itself, parity disagrees with the band sign on half the
    elements).  That the union is all of S_4 is claim ``scheme:4x4``'s to check.
    """
    dihedral_perms = [elem.perm for elem in dihedral_group(4)]
    schemes = []
    for rep_images in _COSET_REPRESENTATIVES_4:
        rep = Permutation(rep_images)
        monomials = tuple(
            SignedMonomial(p, sgn(p))
            for p in (compose(tau, rep) for tau in dihedral_perms)
        )
        label = "coset D4*(" + " ".join(str(v) for v in rep_images) + ")"
        schemes.append(Scheme(4, monomials, label))
    return schemes


def scheme_signs_within_D4() -> list[tuple[DihedralElement, int]]:
    """Each D_4 element with its true parity; half disagree with the band sign."""
    return [(elem, sgn(elem.perm)) for elem in dihedral_group(4)]


def render_scheme_text(scheme: Scheme) -> str:
    """Deterministic plain-text table, one line per monomial.

    Each line is the sign followed by the factors a[i, sigma(i)] in row
    order; indices are juxtaposed ("a11") up to order 9 and comma-separated
    above that.
    """
    lines = []
    for m in scheme.monomials:
        factors = " ".join(_factor(i, j, scheme.n) for i, j in enumerate(m.perm.images, start=1))
        lines.append(("+ " if m.sign > 0 else "- ") + factors)
    return "\n".join(lines)


def _factor(i: int, j: int, n: int) -> str:
    return f"a{i}{j}" if n <= 9 else f"a{i},{j}"
