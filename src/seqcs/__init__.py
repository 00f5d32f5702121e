"""Exact-arithmetic toolkit for systems of linear forms over prime fields.

Computes cover-based complexity certificates for linear-form systems,
executes certificate-shortening Cauchy-Schwarz reductions, solves exact
affine covering problems, and checks norm inequalities for form averages by
exhaustive enumeration on small F_p^n.
"""

from .analysis import (
    FunctionTable,
    GvnReport,
    gowers_norm,
    gowers_norm_direct,
    gvn_check,
    lambda_average,
    random_one_bounded,
)
from .complexity import (
    CoverCertificate,
    WitnessCertificate,
    admissible_cover,
    complexity_report,
    cs_complexity_at,
    sequential_witness,
    tensor_criterion,
    verify_witness,
)
from .covering import AffineCover, AffineSubspace, min_cover_excluding, verify_cover
from .field import Prime, completing_transform, in_affine_span, in_span, rref
from .phi_km import (
    counterexample_family,
    gray_code_check,
    phi_system,
    phi_witness,
    phi_witness_certificate,
    s_km_points,
)
from .reduction import ReductionChain, ReductionStep, build_chain, cs_step, numeric_step_check
from .systems import (
    AssociatedSet,
    LinearSystem,
    SystemValidationError,
    associated_set,
    load_system,
    normalize_translation_invariant,
    validate,
)

__version__ = "0.1.0"
