"""Permutations, the dihedral group, and the two sign characters."""

import itertools
from random import Random

import pytest
from hypothesis import given, strategies as st

from dihedrant.perm import (
    DihedralKind,
    Permutation,
    ResourceLimitError,
    compose,
    dihedral_group,
    mod1,
    reflection_perm,
    rotation_perm,
    sgn,
    sig,
    symmetric_group,
)


def perms_of(n: int):
    return st.permutations(tuple(range(1, n + 1))).map(lambda xs: Permutation(tuple(xs)))


# ---------------------------------------------------------------------------
# construction and validation

def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())


@pytest.mark.parametrize("images", [(2.0, 1.0), (True,), (2, True), (1, 2.0)])
def test_permutation_rejects_images_that_are_not_ints(images):
    # each passed the bijection check, then failed sgn or permute_columns with a bare TypeError
    with pytest.raises(ValueError, match="must be ints"):
        Permutation(images)


def test_permutation_stores_its_images_as_a_tuple():
    s = Permutation([2, 1])
    assert s.images == (2, 1) and type(s.images) is tuple
    assert s == Permutation((2, 1)) and hash(s) == hash(Permutation((2, 1)))
    assert sgn(s) == -1


def test_permutation_is_one_based():
    s = Permutation((3, 1, 2))
    assert s(1) == 3 and s(2) == 1 and s(3) == 2
    with pytest.raises(ValueError):
        s(0)
    with pytest.raises(ValueError):
        s(4)


def test_mod1_wraps_into_range():
    assert [mod1(x, 4) for x in range(-3, 10)] == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1]


@given(st.integers(1, 8).flatmap(perms_of))
def test_images_are_always_a_bijection(s):
    assert sorted(s.images) == list(range(1, s.n + 1))


# ---------------------------------------------------------------------------
# rotations and reflections

def test_rotation_values():
    assert rotation_perm(5, 3).images == (3, 4, 5, 1, 2)
    assert rotation_perm(4, 1).images == (1, 2, 3, 4)
    # mod1(i+3, 4) for i = 1..4, worked by hand
    assert rotation_perm(4, 4).images == (4, 1, 2, 3)


def test_rotation_defining_values():
    # rho_k(1) = k, rho_k(n-k+1) = n, rho_k(n-k+2) = 1, rho_k(n) = k-1
    for n in range(2, 9):
        for k in range(2, n + 1):
            rho = rotation_perm(n, k)
            assert rho(1) == k
            assert rho(n - k + 1) == n
            assert rho(n - k + 2) == 1
            assert rho(n) == k - 1


def test_reflection_values():
    assert reflection_perm(4, 4).images == (4, 3, 2, 1)
    # mu_1 at n=3 fixes vertex 1 and swaps 2,3 (axis through vertex 1)
    assert reflection_perm(3, 1).images == (1, 3, 2)
    assert reflection_perm(2, 1).images == (1, 2)


def test_reflection_defining_values():
    # mu_k(1) = k, mu_k(2) = k-1, mu_k(k) = 1, mu_k(k+1) = n, mu_k(n) = k+1
    for n in range(3, 9):
        for k in range(2, n):
            mu = reflection_perm(n, k)
            assert mu(1) == k
            assert mu(2) == k - 1
            assert mu(k) == 1
            assert mu(k + 1) == n
            assert mu(n) == k + 1


def test_index_out_of_range_is_rejected():
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            rotation_perm(4, bad)
        with pytest.raises(ValueError):
            reflection_perm(4, bad)


# ---------------------------------------------------------------------------
# group enumeration

def test_dihedral_group_order_and_layout():
    for n in range(1, 9):
        elems = dihedral_group(n)
        assert len(elems) == 2 * n
        assert [e.kind for e in elems[:n]] == [DihedralKind.ROTATION] * n
        assert [e.kind for e in elems[n:]] == [DihedralKind.REFLECTION] * n
        assert [e.index for e in elems] == list(range(1, n + 1)) * 2


def test_dihedral_group_n3_is_full_symmetric_group():
    assert {e.perm.images for e in dihedral_group(3)} == {
        p.images for p in symmetric_group(3)
    }


def test_dihedral_group_small_orders_keep_duplicates():
    ones = dihedral_group(1)
    assert len(ones) == 2
    assert all(e.perm.images == (1,) for e in ones)
    twos = dihedral_group(2)
    assert len(twos) == 4
    assert len({e.perm.images for e in twos}) == 2


def test_dihedral_group_n4_has_distinct_permutations():
    assert len({e.perm.images for e in dihedral_group(4)}) == 8


def test_symmetric_group_enumeration():
    assert len(list(symmetric_group(3))) == 6
    assert [p.images for p in symmetric_group(1)] == [(1,)]
    perms = [p.images for p in symmetric_group(4)]
    assert len(perms) == 24 and len(set(perms)) == 24
    assert perms == sorted(perms)  # documented lexicographic order


def test_symmetric_group_yields_what_the_validated_constructor_builds():
    for n in range(1, 8):
        for p in symmetric_group(n):
            checked = Permutation(p.images)
            assert p == checked and hash(p) == hash(checked) and type(p.images) is tuple


def test_symmetric_group_cap():
    with pytest.raises(ResourceLimitError, match="10"):
        next(symmetric_group(11))
    assert next(symmetric_group(10)) == rotation_perm(10, 1)


# ---------------------------------------------------------------------------
# composition, inversion, parity

def test_compose_examples():
    s = Permutation((2, 3, 1))
    assert compose(rotation_perm(3, 1), s) == s
    assert compose(rotation_perm(4, 2), rotation_perm(4, 2)) == rotation_perm(4, 3)
    assert compose(reflection_perm(4, 2), reflection_perm(4, 2)) == rotation_perm(4, 1)


def test_compose_order_of_application():
    # result(i) = tau(sigma(i))
    tau = Permutation((2, 1, 3))
    sigma = Permutation((3, 1, 2))
    assert compose(tau, sigma).images == (3, 2, 1)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(rotation_perm(3, 1), rotation_perm(4, 1))


def test_reflections_are_involutions():
    for n in range(1, 9):
        for k in range(1, n + 1):
            mu = reflection_perm(n, k)
            assert compose(mu, mu) == rotation_perm(n, 1)


@given(st.integers(1, 7).flatmap(perms_of))
def test_inverse_composes_to_identity(s):
    # the inverse sends each point to its position in the one-line images
    inv = Permutation(tuple(s.images.index(i) + 1 for i in range(1, s.n + 1)))
    assert compose(s, inv) == rotation_perm(s.n, 1)
    assert compose(inv, s) == rotation_perm(s.n, 1)


def test_sgn_examples():
    assert sgn(rotation_perm(4, 1)) == 1
    assert sgn(Permutation((2, 1, 3, 4))) == -1
    assert sgn(reflection_perm(4, 4)) == 1  # (1 4)(2 3), two transpositions


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(perms_of(n), perms_of(n))))
def test_sgn_is_multiplicative(pair):
    tau, sigma = pair
    assert sgn(compose(tau, sigma)) == sgn(tau) * sgn(sigma)


def test_sig_examples():
    elems = dihedral_group(5)
    assert sig(elems[0]) == 1  # rho_1, the identity
    assert sig(elems[5 + 2]) == -1  # mu_3
    d1 = dihedral_group(1)
    assert sig(d1[1]) == -1  # the reflection copy of the identity


# ---------------------------------------------------------------------------
# dihedral group laws

def test_closure_and_composition_kind_law():
    # rotation*rotation and reflection*reflection land on rotations,
    # mixed compositions land on reflections
    for n in range(3, 9):
        by_perm = {e.perm: e for e in dihedral_group(n)}
        for a, b in itertools.product(dihedral_group(n), repeat=2):
            composed = by_perm.get(compose(a.perm, b.perm))
            assert composed is not None
            mixed = a.kind != b.kind
            expected = DihedralKind.REFLECTION if mixed else DihedralKind.ROTATION
            assert composed.kind == expected


def test_sig_is_multiplicative_on_dihedral_elements():
    for n in range(3, 9):
        by_perm = {e.perm: e for e in dihedral_group(n)}
        for a, b in itertools.product(dihedral_group(n), repeat=2):
            composed = by_perm[compose(a.perm, b.perm)]
            assert sig(composed) == sig(a) * sig(b)


def test_sig_of_inverse_matches():
    for n in range(3, 9):
        by_perm = {e.perm: e for e in dihedral_group(n)}
        for elem in dihedral_group(n):
            inverses = [e for p, e in by_perm.items() if compose(p, elem.perm) == rotation_perm(n, 1)]
            assert len(inverses) == 1
            assert sig(inverses[0]) == sig(elem)


def test_sig_equals_sgn_exactly_at_order_three():
    assert all(sig(e) == sgn(e.perm) for e in dihedral_group(3))
    for n in (4, 5, 6):
        assert any(sig(e) != sgn(e.perm) for e in dihedral_group(n))


def test_dihedral_group_excludes_outsiders():
    assert Permutation((2, 1, 3, 4)) not in {e.perm for e in dihedral_group(4)}
