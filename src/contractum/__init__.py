"""contractum: executable fixed-point checking for b-rectangular metric
spaces — axiom validation, contraction verification, Picard iteration, and
a nonlinear Fredholm integral solver."""

from .errors import (
    ClosureError,
    ContractumError,
    ExpressionError,
    FunctionDomainError,
    InsufficientDataError,
    MalformedSpaceError,
    NumericError,
    ParameterError,
    SizeLimitError,
)
from .spaces import (
    CoefficientReport,
    FiniteSpace,
    QuadrilateralWitness,
    SampledSpace,
    TaxonomyFlags,
    TriangleWitness,
    classify_space,
    load_space,
    minimal_coefficient,
    validate_space,
)
from .families import (
    AuxiliaryPair,
    FamilyTag,
    builtin_pair,
    check_increasing,
    check_limit_heuristics,
    check_phi_positive,
    resolve_F,
    resolve_phi,
)
from .contractions import (
    ContractionSpec,
    PairVerdict,
    Status,
    Variant,
    VerificationSummary,
    check_pair,
    m_value,
    verify_over_finite,
    verify_over_sample,
)
from .picard import (
    FixedPointResult,
    IterationConfig,
    IterationStatus,
    IterationTrace,
    TraceDiagnostics,
    UniquenessReport,
    audit_trace,
    iterate,
    verify_uniqueness,
)
from .integral import (
    IntegralProblem,
    IntegralSolution,
    KernelConditionReport,
    apply_operator,
    lambda_bound,
    refined_residual,
    solve,
    verify_kernel_condition,
)
from .expressions import compile_expression

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryPair", "ClosureError", "CoefficientReport", "ContractionSpec",
    "ContractumError", "ExpressionError", "FamilyTag", "FiniteSpace",
    "FixedPointResult", "FunctionDomainError", "InsufficientDataError",
    "IntegralProblem", "IntegralSolution", "IterationConfig",
    "IterationStatus", "IterationTrace", "KernelConditionReport",
    "MalformedSpaceError", "NumericError", "PairVerdict", "ParameterError",
    "QuadrilateralWitness", "SampledSpace", "SizeLimitError", "Status", "TaxonomyFlags",
    "TraceDiagnostics", "TriangleWitness", "UniquenessReport", "Variant",
    "VerificationSummary", "apply_operator", "audit_trace", "builtin_pair",
    "check_increasing", "check_limit_heuristics", "check_pair",
    "check_phi_positive", "classify_space", "compile_expression",
    "iterate", "lambda_bound", "load_space", "m_value",
    "minimal_coefficient", "refined_residual", "resolve_F", "resolve_phi",
    "solve", "validate_space", "verify_kernel_condition",
    "verify_over_finite", "verify_over_sample", "verify_uniqueness",
]
