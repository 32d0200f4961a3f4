"""Exact rational cohomology and deformation theory for n-ary skew bracket
algebras (Filippov/Nambu type) and their morphisms.

The package computes, overdetermined by exact arithmetic end to end:
validation of structures and morphisms, coboundary matrices of the
self-valued and module-valued complexes, the morphism complex and its
cohomology, and order-by-order deformation tools (infinitesimals,
obstructions, extensions, and equivalence by automorphism series).
"""

from .algebra import NLieAlgebra, ValidationReport, validate_algebra
from .cochains import (
    Cochain,
    CochainSpace,
    CohomologyReport,
    coboundary_matrix_module,
    coboundary_matrix_self,
    cohomology,
    module_cohomology,
    self_cohomology,
)
from .deformations import (
    DeformedAlgebra,
    DeformedMorphism,
    FormalAutomorphism,
    apply_automorphism,
    extend_deformation,
    extend_order,
    first_order_equivalence,
    formal_inverse,
    infinitesimal,
    linear_map_cochain,
    nambu_residual,
    obstruction,
    validate_deformation,
)
from .linalg import Matrix, kernel_basis, quotient_data, rank, solve
from .morphisms import (
    Morphism,
    TripleComplex,
    morphism_cohomology,
    triple,
    triple_complex,
    validate_morphism,
)

__version__ = "0.1.0"

__all__ = [
    "Cochain",
    "CochainSpace",
    "CohomologyReport",
    "DeformedAlgebra",
    "DeformedMorphism",
    "FormalAutomorphism",
    "Matrix",
    "Morphism",
    "NLieAlgebra",
    "TripleComplex",
    "ValidationReport",
    "apply_automorphism",
    "coboundary_matrix_module",
    "coboundary_matrix_self",
    "cohomology",
    "extend_deformation",
    "extend_order",
    "first_order_equivalence",
    "formal_inverse",
    "infinitesimal",
    "kernel_basis",
    "linear_map_cochain",
    "module_cohomology",
    "morphism_cohomology",
    "nambu_residual",
    "obstruction",
    "quotient_data",
    "rank",
    "self_cohomology",
    "solve",
    "triple",
    "triple_complex",
    "validate_algebra",
    "validate_deformation",
    "validate_morphism",
]
