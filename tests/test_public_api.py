"""The package's public surface: what ``contractum`` exports, and the names
that are gone from it."""

import importlib

import contractum

EXPECTED = {
    "AuxiliaryPair", "ClosureError", "CoefficientReport", "ContractionSpec",
    "ContractumError", "ExpressionError", "FiniteSpace", "FixedPointResult",
    "FunctionDomainError", "InsufficientDataError", "IntegralProblem",
    "IntegralSolution", "IterationConfig", "IterationStatus", "IterationTrace",
    "KernelConditionReport", "MalformedSpaceError", "NumericError", "PairVerdict",
    "ParameterError", "QuadrilateralWitness", "SampledSpace", "SizeLimitError",
    "Status", "TaxonomyFlags", "TraceDiagnostics", "TriangleWitness",
    "UniquenessReport", "Variant", "VerificationSummary", "apply_operator",
    "audit_trace", "builtin_pair", "check_pair", "classify_space",
    "compile_expression", "iterate", "lambda_bound", "load_space",
    "minimal_coefficient", "refined_residual", "resolve_F", "resolve_phi", "solve",
    "validate_space", "verify_kernel_condition", "verify_over_finite",
    "verify_over_sample", "verify_uniqueness",
}

# (module, owner or None for the module itself, name)
REMOVED = [
    ("families", None, "DEFAULT_GRID"),
    ("families", None, "FamilyTag"),
    ("families", None, "check_increasing"),
    ("families", None, "check_phi_positive"),
    ("families", None, "check_limit_heuristics"),
    ("families", None, "IncreasingCheck"),
    ("families", None, "PositivityCheck"),
    ("families", None, "LimitTrendReport"),
    ("families", "AuxiliaryPair", "family"),
    ("families", "AuxiliaryPair", "k_exponent"),
    ("families", "AuxiliaryPair", "description"),
    ("contractions", None, "m_value"),
    ("spaces", "FiniteSpace", "from_table"),
    ("spaces", "FiniteSpace", "permuted"),
    ("spaces", "TaxonomyFlags", "witnesses"),
    ("picard", "IterationTrace", "log_scaled1"),
    ("picard", "IterationTrace", "log_scaled2"),
]


def test_public_surface():
    assert len(EXPECTED) == 49
    assert len(contractum.__all__) == len(set(contractum.__all__))
    assert set(contractum.__all__) == EXPECTED
    for name in contractum.__all__:
        assert getattr(contractum, name) is not None
    for module, owner, name in REMOVED:
        mod = importlib.import_module(f"contractum.{module}")
        assert not hasattr(contractum, name)
        assert not hasattr(getattr(mod, owner) if owner else mod, name)
