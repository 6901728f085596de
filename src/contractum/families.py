"""Auxiliary (F, phi) pairs: declared family membership plus the sampled
numeric checks that are mechanically possible.

F maps positive reals to reals and must be strictly increasing; phi maps
positive reals to positive reals. The two family tags differ in their
fourth condition: the F-family requires x^k * F(x) -> 0 near zero for some
k in (0, 1), the Im-family requires F continuous. Limit and continuity
conditions cannot be certified from finitely many evaluations, so family
membership is declared by the caller and only spot-checked; the trend
checks below are labeled advisory.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ExpressionError, FunctionDomainError
from .expressions import compile_expression

# spans the magnitudes appearing in all built-in examples
DEFAULT_GRID = tuple(np.geomspace(1e-6, 1e3, 64))


class FamilyTag(str, Enum):
    F = "F-family"
    IM = "Im-family"


@dataclass(frozen=True)
class AuxiliaryPair:
    """A declared (F, phi) pair with its family tag and, for the F-family,
    the exponent witnessing the power-weighted vanishing condition."""

    F: Callable[[float], float]
    phi: Callable[[float], float]
    family: FamilyTag = FamilyTag.F
    k_exponent: float | None = None
    description: str = ""

    def __post_init__(self):
        if self.k_exponent is not None and not 0 < self.k_exponent < 1:
            raise ValueError(f"k_exponent must lie in (0, 1), got {self.k_exponent}")


def _require_positive(grid: Sequence[float]) -> None:
    for g in grid:
        if not g > 0:
            raise FunctionDomainError(
                f"grid entry {g!r} is outside the positive reals", argument=g)


@dataclass(frozen=True)
class IncreasingCheck:
    ok: bool
    violation: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "violation": list(self.violation) if self.violation else None}


def check_increasing(pair: AuxiliaryPair, grid: Sequence[float]) -> IncreasingCheck:
    """True iff F(grid[i]) < F(grid[i+1]) for all consecutive i; on failure
    carries the offending pair of abscissae."""
    _require_positive(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    prev_x = grid[0]
    prev_f = pair.F(prev_x)
    for x in grid[1:]:
        f = pair.F(x)
        if not f > prev_f:
            return IncreasingCheck(ok=False, violation=(prev_x, x))
        prev_x, prev_f = x, f
    return IncreasingCheck(ok=True)


@dataclass(frozen=True)
class PositivityCheck:
    ok: bool
    minimum: float
    argmin: float

    def to_dict(self) -> dict:
        return {"ok": self.ok, "minimum": self.minimum, "argmin": self.argmin}


def check_phi_positive(pair: AuxiliaryPair, grid: Sequence[float],
                       tol: float = 1e-15) -> PositivityCheck:
    """True iff min over the grid of phi exceeds the strict-positivity
    tolerance; reports the minimum and where it occurs."""
    _require_positive(grid)
    values = [(pair.phi(x), x) for x in grid]
    minimum, argmin = min(values)
    return PositivityCheck(ok=minimum > tol, minimum=float(minimum), argmin=float(argmin))


@dataclass(frozen=True)
class LimitTrendReport:
    """Sampled trends standing in for the limit conditions. advisory is
    always True: finitely many evaluations cannot certify a limit."""

    f_diverging_down: bool
    weighted_vanishing: bool | None
    k_exponent: float | None
    advisory: bool = True

    def to_dict(self) -> dict:
        return {"f_diverging_down": self.f_diverging_down,
                "weighted_vanishing": self.weighted_vanishing,
                "k_exponent": self.k_exponent,
                "advisory": self.advisory}


def check_limit_heuristics(pair: AuxiliaryPair,
                           decay_sequence: Sequence[float]) -> LimitTrendReport:
    """Trends of F along a decay sequence x_n -> 0: is F(x_n) monotonically
    heading down (divergence proxy), and is |x_n^k * F(x_n)| shrinking over
    the tail for the declared k (vanishing proxy)?"""
    if len(decay_sequence) < 8:
        raise ValueError("decay sequence must have at least 8 terms")
    _require_positive(decay_sequence)
    if any(b >= a for a, b in zip(decay_sequence, decay_sequence[1:])):
        raise ValueError("decay sequence must be strictly decreasing")

    f_values = [pair.F(x) for x in decay_sequence]
    diverging = all(b < a for a, b in zip(f_values, f_values[1:]))

    vanishing: bool | None = None
    if pair.k_exponent is not None:
        k = pair.k_exponent
        weighted = [abs(x ** k * f) for x, f in zip(decay_sequence, f_values)]
        tail = weighted[len(weighted) // 2:]
        vanishing = all(b < a for a, b in zip(tail, tail[1:]))

    return LimitTrendReport(f_diverging_down=diverging,
                            weighted_vanishing=vanishing,
                            k_exponent=pair.k_exponent)


# ---------------------------------------------------------------------------
# registries


F_REGISTRY: dict[str, Callable[[float], float]] = {
    "ln": math.log,
    "ln_sqrt": lambda t: math.log(math.sqrt(t)),
    "ln_plus_sqrt": lambda t: math.log(t) + math.sqrt(t),
    "x_plus_ln": lambda t: t + math.log(t),
}

PHI_REGISTRY: dict[str, Callable[[float], float]] = {
    "inv_1p": lambda t: 1.0 / (1.0 + t),
    "inv_2p": lambda t: 1.0 / (2.0 + t),
}

_CONST_TAU = re.compile(r"^const_tau\(\s*([^)]+)\s*\)$")


def constant_phi(tau: float) -> Callable[[float], float]:
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return lambda t: tau


def resolve_function(spec: str, registry: dict, variable: str = "t") -> Callable[[float], float]:
    """Look up a named function, a const_tau(value) form, or compile an
    expression in ``variable``."""
    name = spec.strip()
    if name in registry:
        return registry[name]
    m = _CONST_TAU.match(name)
    if m:
        try:
            return constant_phi(float(m.group(1)))
        except ValueError as exc:
            raise ExpressionError(f"bad const_tau argument: {exc}", token=m.group(1))
    return compile_expression(name, (variable,))


def resolve_F(spec: str) -> Callable[[float], float]:
    return resolve_function(spec, F_REGISTRY)


def resolve_phi(spec: str) -> Callable[[float], float]:
    return resolve_function(spec, PHI_REGISTRY)


def builtin_pair(f_name: str, phi_name: str, family: FamilyTag = FamilyTag.F,
                 k_exponent: float | None = 0.5) -> AuxiliaryPair:
    return AuxiliaryPair(F=F_REGISTRY[f_name], phi=PHI_REGISTRY[phi_name],
                         family=family, k_exponent=k_exponent,
                         description=f"F={f_name}, phi={phi_name}")
