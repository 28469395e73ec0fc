"""Scheme expansion: the 2n-term band and the three-coset 4x4 scheme."""

from fractions import Fraction
from random import Random

import pytest

from dihedrant.analysis import check_corrected_scheme
from dihedrant.cli import main
from dihedrant.functionals import dihedrant, leibniz_det
from dihedrant.matrix import ExactMatrix
from dihedrant import schemes
from dihedrant.matrix_io import matrix_to_json
from dihedrant.perm import Permutation, sgn, sig
from dihedrant.schemes import (
    Scheme,
    SignedMonomial,
    corrected_scheme_4x4,
    false_sarrus_scheme,
    render_scheme_text,
    scheme_signs_within_D4,
)

from conftest import random_int_rows, random_rational_rows

RANK3 = ExactMatrix([[1, 2, 3, 4], [1, 2, 3, 4], [1, 0, 0, 0], [0, 0, 0, 1]])
MINUS15 = ExactMatrix([[1, 0, 0, -1], [1, -3, 0, -3], [1, 1, 5, 5], [0, 0, 0, 1]])


def test_monomial_evaluation_and_validation():
    m = SignedMonomial(Permutation((2, 1)), -1)
    assert Scheme(2, (m,), "one term").evaluate(ExactMatrix([[1, 2], [3, 4]])) == -6
    with pytest.raises(ValueError):
        SignedMonomial(Permutation((1, 2)), 2)
    with pytest.raises(ValueError):
        Scheme(3, (m,), "wrong order")


def test_scheme_rejects_duplicate_monomials():
    mono = SignedMonomial(Permutation((1, 2)), 1)
    with pytest.raises(ValueError):
        Scheme(2, (mono, mono), "dup")


# ---------------------------------------------------------------------------
# the band scheme

def test_band_scheme_order_three_is_the_sarrus_rule():
    scheme = false_sarrus_scheme(3)
    assert [(m.perm.images, m.sign) for m in scheme.monomials] == [
        ((1, 2, 3), 1),
        ((2, 3, 1), 1),
        ((3, 1, 2), 1),
        ((1, 3, 2), -1),
        ((2, 1, 3), -1),
        ((3, 2, 1), -1),
    ]
    rng = Random(67)
    for _ in range(50):
        A = ExactMatrix(random_int_rows(rng, 3))
        assert scheme.evaluate(A) == leibniz_det(A)


def test_band_scheme_order_four_terms():
    scheme = false_sarrus_scheme(4)
    assert len(scheme.monomials) == 8
    assert [m.sign for m in scheme.monomials] == [1, 1, 1, 1, -1, -1, -1, -1]
    assert scheme.monomials[0].perm.images == (1, 2, 3, 4)
    assert scheme.monomials[4].perm.images == (1, 4, 3, 2)


def test_band_scheme_order_one_cancels():
    scheme = false_sarrus_scheme(1)
    assert [(m.perm.images, m.sign) for m in scheme.monomials] == [((1,), 1), ((1,), -1)]
    assert scheme.evaluate(ExactMatrix([[7]])) == 0


def test_band_scheme_evaluates_to_dihedrant():
    rng = Random(71)
    for n in range(1, 9):
        scheme = false_sarrus_scheme(n)
        for _ in range(10):
            A = ExactMatrix(random_int_rows(rng, n, -3, 3))
            assert scheme.evaluate(A) == dihedrant(A)
        A = ExactMatrix(random_rational_rows(rng, n, n))
        assert scheme.evaluate(A) == dihedrant(A)


@pytest.mark.parametrize("n", [True, 3.0], ids=repr)
def test_the_band_scheme_takes_only_an_int_order(n):
    # True built a Scheme with n=True
    with pytest.raises(ValueError, match=f"^n must be an int, got {n!r}$"):
        false_sarrus_scheme(n)


# ---------------------------------------------------------------------------
# corrected 4x4 scheme

def test_corrected_scheme_partitions_s4():
    schemes = corrected_scheme_4x4()
    assert len(schemes) == 3
    seen = set()
    for scheme in schemes:
        images = {m.perm.images for m in scheme.monomials}
        assert len(images) == 8
        assert not images & seen
        seen |= images
    assert len(seen) == 24
    # per-monomial signs are true parities
    for scheme in schemes:
        for m in scheme.monomials:
            assert m.sign == sgn(m.perm)


def test_corrected_scheme_rejects_representatives_that_do_not_partition_s4(monkeypatch, capsys):
    # (2 3 4 1) is a rotation, so its coset repeats the identity's.  The schemes still build, and
    # claim scheme:4x4 reports the broken partition as its first failing trial, the identity its witness
    monkeypatch.setattr(schemes, "_COSET_REPRESENTATIVES_4", ((1, 2, 3, 4), (2, 3, 4, 1), (1, 3, 2, 4)))
    assert len({m.perm.images for s in corrected_scheme_4x4() for m in s.monomials}) == 16
    report = check_corrected_scheme(seed=0, trials=20)
    assert report.trials == 22 and report.failures >= 1
    assert report.witness == matrix_to_json(ExactMatrix.identity(4))
    assert main(["verify", "scheme:4x4", "--trials", "20"]) == 1
    assert f"witness: {report.witness}" in capsys.readouterr().out


def test_corrected_scheme_first_block_is_the_band_coset():
    first = corrected_scheme_4x4()[0]
    band = false_sarrus_scheme(4)
    assert [m.perm.images for m in first.monomials] == [m.perm.images for m in band.monomials]


def test_corrected_scheme_sums_to_determinant():
    schemes = corrected_scheme_4x4()
    rng = Random(73)
    for idx in range(100):
        rows = random_rational_rows(rng, 4, 4) if idx % 4 == 0 else random_int_rows(rng, 4, -9, 9)
        A = ExactMatrix(rows)
        total = sum((s.evaluate(A) for s in schemes), Fraction(0))
        assert total == leibniz_det(A)


def test_corrected_scheme_on_recorded_matrices():
    schemes = corrected_scheme_4x4()
    assert sum((s.evaluate(RANK3) for s in schemes), Fraction(0)) == 0
    assert sum((s.evaluate(MINUS15) for s in schemes), Fraction(0)) == -15


def test_parity_disagrees_with_band_sign_on_half_of_d4():
    rows = scheme_signs_within_D4()
    assert len(rows) == 8
    by_name = {elem.name: parity for elem, parity in rows}
    assert by_name["rho_1"] == 1
    assert by_name["rho_2"] == -1  # odd rotation, wrong under the band sign
    disagreements = sum(1 for elem, parity in rows if parity != sig(elem))
    assert disagreements == 4


# ---------------------------------------------------------------------------
# rendering

def test_render_order_three():
    text = render_scheme_text(false_sarrus_scheme(3))
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[0] == "+ a11 a22 a33"
    assert lines[3] == "- a11 a23 a32"


def test_render_order_one():
    assert render_scheme_text(false_sarrus_scheme(1)) == "+ a11\n- a11"


def test_render_is_stable():
    a = render_scheme_text(false_sarrus_scheme(5))
    b = render_scheme_text(false_sarrus_scheme(5))
    assert a == b


def test_render_uses_separators_above_order_nine():
    text = render_scheme_text(false_sarrus_scheme(10))
    assert text.splitlines()[0].startswith("+ a1,1 a2,2")
