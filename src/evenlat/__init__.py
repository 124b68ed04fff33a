"""Exact arithmetic for even integral lattices and their discriminant forms.

The package computes with Gram matrices over Z using arbitrary-precision
integers and rationals only: the Hermite normal form (no transform), the
Smith normal form with transforms, saturated kernels, discriminant
quadratic forms, isotropic subgroups and the overlattice
correspondence, configurations of rational curves with
branched-cover pullbacks and involution quotients, and a verification
harness that reproduces the published lattice computations for the
triple-double K3 family and its symplectic quotient.
"""

__version__ = "0.1.0"

from .exactlinalg import (
    IntMat,
    RatMat,
    hnf,
    kernel_saturated,
    signature,
    snf,
    snf_rational,
    solve_rational,
)
from .lattice import (
    DualVector,
    Lattice,
    SublatticeData,
    direct_sum,
    discriminant_group,
    is_primitive,
    make_named,
    norm_gcd,
    orthogonal_complement,
    parse_lattice_expr,
    rescale,
    saturation,
    scale_gcd,
    sublattice,
)
from .discform import (
    FiniteQuadraticModule,
    IsotropicSubgroup,
    are_isomorphic,
    b_value,
    from_lattice,
    isotropic_elements,
    isotropic_subgroups,
    negate,
    nikulin_unique,
    overlattice,
    q_value,
    two_elem_invariants,
)
from .curves import (
    CoverStep,
    CurveConfig,
    EvenFourCertificate,
    InvolutionAction,
    double_cover_pullback,
    find_even_four_certificate,
    hexagon_config,
    present,
    quotient_by_involution,
    triple_double_tower,
)
from .ratfun import mobius_images
from .reconstruct import Reconstruction24, reconstruct_24, reconstruct_xprime
from .verify import VerificationReport, run_all

__all__ = [
    "IntMat", "RatMat", "hnf", "snf", "snf_rational", "signature",
    "solve_rational", "kernel_saturated",
    "Lattice", "DualVector", "SublatticeData", "make_named",
    "parse_lattice_expr", "direct_sum", "rescale", "discriminant_group",
    "sublattice", "saturation", "orthogonal_complement", "is_primitive",
    "scale_gcd", "norm_gcd", "nikulin_unique", "two_elem_invariants",
    "FiniteQuadraticModule", "IsotropicSubgroup", "from_lattice", "q_value",
    "b_value", "isotropic_elements", "isotropic_subgroups", "overlattice",
    "are_isomorphic", "negate",
    "CurveConfig", "CoverStep", "InvolutionAction",
    "EvenFourCertificate", "double_cover_pullback", "quotient_by_involution",
    "find_even_four_certificate", "present", "hexagon_config",
    "triple_double_tower",
    "mobius_images",
    "Reconstruction24", "reconstruct_24", "reconstruct_xprime",
    "VerificationReport", "run_all",
]
