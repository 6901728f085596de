"""Auxiliary (F, phi) pairs and the registries that name them.

A contraction inequality is stated for a pair (F, phi): F maps positive
reals to reals and must be strictly increasing; phi maps positive reals
to positive reals. The theorem also asks of F a limit condition at zero
(type-F) or continuity (type-Im). The checker evaluates the inequality
only and tests none of these conditions; meeting them is the caller's part.

F_REGISTRY and PHI_REGISTRY name the built-in functions; resolve_F and
resolve_phi also take const_tau(value) for a constant phi and otherwise
compile an expression in t.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import ExpressionError
from .expressions import compile_expression


@dataclass(frozen=True)
class AuxiliaryPair:
    """The (F, phi) pair an inequality is evaluated with."""

    F: Callable[[float], float]
    phi: Callable[[float], float]


# compiled, so that they also take arrays; called with a float they
# evaluate exactly as the math functions they name
F_REGISTRY: dict[str, Callable[[float], float]] = {
    "ln": compile_expression("ln(t)", ("t",)),
    "ln_sqrt": compile_expression("ln(sqrt(t))", ("t",)),
    "ln_plus_sqrt": compile_expression("ln(t) + sqrt(t)", ("t",)),
    "x_plus_ln": compile_expression("t + ln(t)", ("t",)),
}

PHI_REGISTRY: dict[str, Callable[[float], float]] = {
    "inv_1p": compile_expression("1/(1 + t)", ("t",)),
    "inv_2p": compile_expression("1/(2 + t)", ("t",)),
}

_CONST_TAU = re.compile(r"^const_tau\(\s*([^)]+)\s*\)$")


def constant_phi(tau: float) -> Callable[[float], float]:
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return lambda t: tau


def resolve_function(spec: str, registry: dict) -> Callable[[float], float]:
    """Look up a named function, a const_tau(value) form, or compile an
    expression in t."""
    name = spec.strip()
    if name in registry:
        return registry[name]
    m = _CONST_TAU.match(name)
    if m:
        try:
            return constant_phi(float(m.group(1)))
        except ValueError as exc:
            raise ExpressionError(f"bad const_tau argument: {exc}", token=m.group(1))
    return compile_expression(name, ("t",))


def resolve_F(spec: str) -> Callable[[float], float]:
    return resolve_function(spec, F_REGISTRY)


def resolve_phi(spec: str) -> Callable[[float], float]:
    return resolve_function(spec, PHI_REGISTRY)


def builtin_pair(f_name: str, phi_name: str) -> AuxiliaryPair:
    return AuxiliaryPair(F=F_REGISTRY[f_name], phi=PHI_REGISTRY[phi_name])
