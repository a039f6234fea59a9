"""Exact matrix decompositions, shuffle identities, and archimedean
factors for exterior-square L-functions, with unramified Euler factors
and a seeded verification suite."""

from .decomp import (
    DegenerateMinorError,
    NHNFactors,
    UDLFactors,
    nhn_decompose,
    nhn_matches_udl,
    udl_explicit,
    verify_udl_reconstruction,
)
from .euler import (
    ConvergenceGuardError,
    SatakeData,
    VanishingFactorError,
    ext2_factor,
    ext2_reciprocal_poly,
    partial_L,
    poly_degree,
    satake_from_json,
    standard_factor,
    standard_reciprocal_poly,
)
from .lfactors import (
    DSBlock,
    EmbeddingParams,
    FERatioResult,
    GammaExpr,
    HolomorphyReport,
    IdentityMismatchError,
    PoleProximityError,
    PoleRecord,
    ReprData,
    SignBlock,
    casselman_embedding,
    contragredient,
    fe_ratio_check,
    holomorphy_check,
    l_inf,
    normalize,
    omega_closed_form,
    partial_products,
    pole_enumeration,
    random_repr_data,
    repr_from_json,
    repr_to_json,
    script_g,
    script_g_full,
    script_g_tilde,
    validate,
)
from .matrices import Matrix, generic_matrix, genmatrix_from_json, genmatrix_to_json
from .polynomials import Polynomial, PolyRing
from .ratfunc import RatFunc
from .rational import (
    RationalComplex,
    format_rational,
    parse_rational,
    parse_rational_complex,
)
from .specialfn import (
    CutoffSpec,
    PoleError,
    QuadratureToleranceError,
    g_delta,
    g_delta_integral,
    gamma_c,
    gamma_r,
    gcancel,
)
from .suite import CHECKS, CheckResult, run_check, run_suite
from .unfold import (
    KappaSigns,
    UnfoldVars,
    WhittakerForm,
    altsum_check,
    build_block_A,
    build_B,
    kappa_signs,
    lower_factor_recursive,
    shuffled_whittaker_eval,
    shuffled_whittaker_oracle,
    sigma,
    superdiag_closed_form,
    superdiag_closed_form_x,
    superdiag_sum,
    unfolded_gamma_table,
    whittaker_eval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
