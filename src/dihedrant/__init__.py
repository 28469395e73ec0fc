"""Exact arithmetic for the false Sarrus rule and its corrected schemes.

The false Sarrus rule extends the 3x3 diagonal-band mnemonic to larger
matrices and computes the dihedrant: the signed product sum over the
dihedral group D_n instead of all of S_n.  This package provides the
dihedrant and determinant functionals over exact rationals, the structural
identities the dihedrant satisfies, sign classification for rotations and
reflections, a corrected 24-term scheme for 4x4 determinants, and seeded
search/verification tooling behind the ``dihedrant`` CLI.
"""

from .analysis import (
    SearchConfig,
    SearchMode,
    SignRow,
    TheoremReport,
    check_antitriangular,
    check_corner_pattern,
    check_sign_formulas,
    claim_ids,
    classify_signs,
    corner_pattern_mask,
    rank2_multilinear_expansion,
    run_claim,
    run_claims,
    search_dih_equals_det,
    transposition_count_reflection,
    transposition_count_rotation,
)
from .functionals import dihedrant, elimination_det, leibniz_det
from .matrix import ExactMatrix
from .matrix_io import MatrixFormatError, load_matrix, parse_scalar
from .perm import (
    DEFAULT_SYMMETRIC_CAP,
    DihedralElement,
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
from .schemes import (
    Scheme,
    SignedMonomial,
    corrected_scheme_4x4,
    false_sarrus_scheme,
    render_scheme_text,
    scheme_signs_within_D4,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SYMMETRIC_CAP",
    "DihedralElement",
    "DihedralKind",
    "ExactMatrix",
    "MatrixFormatError",
    "Permutation",
    "ResourceLimitError",
    "Scheme",
    "SearchConfig",
    "SearchMode",
    "SignRow",
    "SignedMonomial",
    "TheoremReport",
    "check_antitriangular",
    "check_corner_pattern",
    "check_sign_formulas",
    "claim_ids",
    "classify_signs",
    "compose",
    "corner_pattern_mask",
    "corrected_scheme_4x4",
    "dihedral_group",
    "dihedrant",
    "elimination_det",
    "false_sarrus_scheme",
    "leibniz_det",
    "load_matrix",
    "mod1",
    "parse_scalar",
    "rank2_multilinear_expansion",
    "reflection_perm",
    "render_scheme_text",
    "rotation_perm",
    "run_claim",
    "run_claims",
    "scheme_signs_within_D4",
    "search_dih_equals_det",
    "sgn",
    "sig",
    "symmetric_group",
    "transposition_count_reflection",
    "transposition_count_rotation",
]
