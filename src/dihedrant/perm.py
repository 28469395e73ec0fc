"""Permutations of {1..n} and the dihedral group D_n.

Permutations are kept in one-line notation: ``images[i-1]`` is the image of
``i``, so all public semantics are 1-based.  The dihedral group D_n is the
set of the 2n symmetries of a regular n-gon with vertices labeled 1..n,
viewed as permutations: n rotations and n reflections.  Both families are
generated from the same wrap-around rule

    mod1(x, n) = ((x - 1) mod n) + 1

which maps any integer into {1..n}.

Two sign characters live here: ``sgn`` is the ordinary permutation parity
(computed from the cycle decomposition), and ``sig`` assigns +1 to every
rotation and -1 to every reflection regardless of n and k.  They coincide
on D_3 and nowhere else in general.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

DEFAULT_SYMMETRIC_CAP = 10


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed its configured budget."""


def mod1(x: int, n: int) -> int:
    """Map an integer into {1..n} with period n.

    >>> [mod1(x, 4) for x in (-1, 0, 1, 4, 5)]
    [3, 4, 1, 4, 1]
    """
    return (x - 1) % n + 1


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} in one-line notation.

    >>> s = Permutation((3, 1, 2))
    >>> s(1), s(3)
    (3, 2)
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)  # a list would leave the permutation unhashable and unequal to its tuple
        n = len(images)
        if n < 1:
            raise ValueError("permutation must act on at least one point")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in images):
            raise ValueError(f"images must be ints: {images}")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"point {i} outside 1..{self.n}")
        return self.images[i - 1]

    def __str__(self) -> str:
        return "(" + " ".join(str(v) for v in self.images) + ")"


class DihedralKind(Enum):
    ROTATION = "rotation"
    REFLECTION = "reflection"


@dataclass(frozen=True)
class DihedralElement:
    """One symmetry of the labeled n-gon: the k-th rotation or reflection."""

    perm: Permutation
    kind: DihedralKind
    index: int

    @property
    def name(self) -> str:
        prefix = "rho" if self.kind is DihedralKind.ROTATION else "mu"
        return f"{prefix}_{self.index}"


def rotation_perm(n: int, k: int) -> Permutation:
    """The rotation sending vertex 1 to vertex k: i -> mod1(i + k - 1, n).

    >>> rotation_perm(5, 3).images
    (3, 4, 5, 1, 2)
    """
    _check_order_index(n, k)
    return Permutation(tuple(mod1(i + k - 1, n) for i in range(1, n + 1)))


def reflection_perm(n: int, k: int) -> Permutation:
    """The reflection sending vertex 1 to vertex k: i -> mod1(k + 1 - i, n).

    Its axis passes through the midpoint between vertices 1 and k.

    >>> reflection_perm(4, 4).images
    (4, 3, 2, 1)
    """
    _check_order_index(n, k)
    return Permutation(tuple(mod1(k + 1 - i, n) for i in range(1, n + 1)))


def _check_order_index(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"index k={k} outside 1..{n}")


@lru_cache(maxsize=None)
def _dihedral_elements(n: int) -> tuple[DihedralElement, ...]:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    rotations = (
        DihedralElement(rotation_perm(n, k), DihedralKind.ROTATION, k)
        for k in range(1, n + 1)
    )
    reflections = (
        DihedralElement(reflection_perm(n, k), DihedralKind.REFLECTION, k)
        for k in range(1, n + 1)
    )
    return tuple(rotations) + tuple(reflections)


def dihedral_group(n: int) -> list[DihedralElement]:
    """All 2n elements of D_n: rho_1..rho_n, then mu_1..mu_n.

    For n <= 2 the underlying permutations repeat (each reflection moves the
    vertices like some rotation); both copies are kept, since the dihedrant's
    cancellation at those orders sums over all 2n elements.
    """
    return list(_dihedral_elements(n))


def symmetric_group(n: int) -> Iterator[Permutation]:
    """Yield all n! permutations of {1..n} in lexicographic order of images.

    Refuses n above ``DEFAULT_SYMMETRIC_CAP`` (10): the enumeration is meant
    as a desk-scale oracle, not a production path.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > DEFAULT_SYMMETRIC_CAP:
        raise ResourceLimitError(
            f"n={n} exceeds the symmetric group cap of {DEFAULT_SYMMETRIC_CAP}"
            f" (n! would be {math.factorial(n)})"
        )
    yield from map(_bijection, itertools.permutations(range(1, n + 1)))


def _bijection(images: tuple[int, ...]) -> Permutation:
    """The Permutation of images that are a bijection by construction, without re-sorting them."""
    perm = object.__new__(Permutation)
    object.__setattr__(perm, "images", images)
    return perm


def compose(tau: Permutation, sigma: Permutation) -> Permutation:
    """tau after sigma: the permutation i -> tau(sigma(i))."""
    if tau.n != sigma.n:
        raise ValueError(f"cannot compose orders {tau.n} and {sigma.n}")
    return Permutation(tuple(tau.images[j - 1] for j in sigma.images))


def sgn(sigma: Permutation) -> int:
    """Permutation parity via cycle decomposition: (-1)**(n - #cycles)."""
    seen = [False] * sigma.n
    cycles = 0
    for start in range(1, sigma.n + 1):
        if seen[start - 1]:
            continue
        cycles += 1
        j = start
        while not seen[j - 1]:
            seen[j - 1] = True
            j = sigma.images[j - 1]
    return 1 if (sigma.n - cycles) % 2 == 0 else -1


def sig(elem: DihedralElement) -> int:
    """+1 for rotations, -1 for reflections, independent of n and k."""
    return 1 if elem.kind is DihedralKind.ROTATION else -1
