"""Exact-arithmetic lattice gluing and certification toolkit.

Builds an even unimodular lattice of signature (3, 19) carrying an
isometry with characteristic polynomial (X^2 - 3X + 1) * Phi_50(X),
checks every step of the construction in exact arithmetic, and
reconstructs the set of degree-2 Salem traces realizable this way.
"""

from .arith import euler_phi, factorize, is_perfect_square
from .certify import CertificationReport, CheckResult, assemble_k3, build_l1, build_l2, certify
from .cyclotomic import (
    CycloField,
    RealSubfieldElement,
    cyclotomic_poly,
    real_embedding_signs,
    real_subfield,
    twist_element_parts,
)
from .gluing import GlueMap, GluingResult, NoGlueMapError, extend_isometry, find_glue_map, glue
from .lattices import (
    GlueGroup,
    Isometry,
    Lattice,
    check_isometry,
    glue_group,
    induced_glue_action,
    orthogonal_complement,
    twist,
)
from .latticeio import LatticeParseError, format_lattice, parse_lattice, read_lattice_file
from .matrices import IntMatrix, charpoly, hermite_normal_form, smith_normal_form
from .polynomials import IntPoly
from .salem import admissible_values, cross_validate, salem_value, square_condition_filter, theorem_b_set

__all__ = [
    "CertificationReport",
    "CheckResult",
    "CycloField",
    "GlueGroup",
    "GlueMap",
    "GluingResult",
    "IntMatrix",
    "IntPoly",
    "Isometry",
    "Lattice",
    "LatticeParseError",
    "NoGlueMapError",
    "RealSubfieldElement",
    "admissible_values",
    "assemble_k3",
    "build_l1",
    "build_l2",
    "certify",
    "charpoly",
    "check_isometry",
    "cross_validate",
    "cyclotomic_poly",
    "euler_phi",
    "extend_isometry",
    "factorize",
    "find_glue_map",
    "format_lattice",
    "glue",
    "glue_group",
    "hermite_normal_form",
    "induced_glue_action",
    "is_perfect_square",
    "orthogonal_complement",
    "parse_lattice",
    "read_lattice_file",
    "real_embedding_signs",
    "real_subfield",
    "salem_value",
    "smith_normal_form",
    "square_condition_filter",
    "theorem_b_set",
    "twist",
    "twist_element_parts",
]
