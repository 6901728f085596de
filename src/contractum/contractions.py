"""Contraction inequality checking for a self-map over a finite space or
a sampled continuous domain.

Five inequality variants are supported. With d' = d(Tx, Ty), the guard
d' > 0 must hold for a pair to be testable (otherwise the verdict is
vacuous), and then:

* type-F:      F(s * d')  + phi(d(x,y)) <= F(d(x, y))
* type-Im:     F(s^2 * d') + phi(d(x,y)) <= F(M(x, y))
* Kannan:      F(s^2 * d') + phi(d(x,y)) <= F((d(x,Tx) + d(y,Ty)) / 2)
* Reich:       F(s^2 * d') + phi(d(x,y)) <= F((d(x,y) + d(x,Tx) + d(y,Ty)) / 3)
* beta-combo:  F(s^2 * d') + phi(d(x,y)) <= F(b1 d(x,y) + b2 d(Tx,x)
                                               + b3 d(Ty,y) + b4 d(y,Tx))

where M(x, y) = max{d(x,y), d(x,Tx), d(y,Ty), d(y,Tx)}. A margin of
rhs - lhs >= -1e-9 counts as holding (F compositions amplify rounding near
small distances); reported margins are raw.

M and the beta combination are not symmetric in (x, y), so those variants
are checked in both orientations of every unordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from .errors import ClosureError, FunctionDomainError
from .families import AuxiliaryPair
from .spaces import SampledSpace

MARGIN_TOL = 1e-9
GUARD_TOL = 1e-12


class Variant(str, Enum):
    TYPE_F = "typeF"
    TYPE_IM = "typeIm"
    KANNAN = "kannan"
    REICH = "reich"
    BETA_COMBO = "beta"


#: variants whose right-hand side is not symmetric under swapping x and y
_ASYMMETRIC = frozenset({Variant.TYPE_IM, Variant.BETA_COMBO})


class Status(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class ContractionSpec:
    """Which inequality to test, with its coefficient and auxiliary pair.

    The type-F variant presumes an F-family pair; the others presume an
    Im-family (continuous) F. The tag is declared, not certifiable, so a
    mismatch is the caller's responsibility and is not rejected here.

    ``tau`` models the constant-perturbation shortcut: when set, phi is
    replaced by the constant function tau. ``betas`` are required for the
    beta-combo variant (four nonnegative weights summing to at most 1) and
    must be absent otherwise.
    """

    variant: Variant
    s: float
    pair: AuxiliaryPair
    betas: tuple[float, float, float, float] | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"coefficient s must be >= 1, got {self.s}")
        if self.variant is Variant.BETA_COMBO:
            if self.betas is None:
                raise ValueError("beta-combo requires four beta weights")
            betas = tuple(float(b) for b in self.betas)
            if len(betas) != 4 or any(b < 0 for b in betas):
                raise ValueError("betas must be four nonnegative reals")
            if sum(betas) > 1 + 1e-12:
                raise ValueError(f"betas must sum to at most 1, got {sum(betas)}")
            object.__setattr__(self, "betas", betas)
        elif self.betas is not None:
            raise ValueError(f"variant {self.variant.value} does not take betas")
        if self.tau is not None and not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    def phi(self, t: float) -> float:
        return self.tau if self.tau is not None else self.pair.phi(t)


@dataclass(frozen=True)
class PairVerdict:
    x: Any
    y: Any
    status: Status
    lhs: float | None = None
    rhs: float | None = None

    @property
    def margin(self) -> float | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {"x": str(self.x), "y": str(self.y), "status": self.status.value,
                "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


def _apply_map(space, T, x):
    tx = T(x)
    if not space.contains(tx):
        raise ClosureError(x)
    return tx


def m_value(space, T: Callable, x, y) -> float:
    """The comparison maximum max{d(x,y), d(x,Tx), d(y,Ty), d(y,Tx)}."""
    return _rhs_argument(Variant.TYPE_IM, space, x, y,
                         _apply_map(space, T, x), _apply_map(space, T, y))


def _rhs_argument(variant: Variant, space, x, y, tx, ty, betas=None) -> float:
    d = space.distance
    if variant is Variant.TYPE_F:
        return d(x, y)
    if variant is Variant.TYPE_IM:
        return max(d(x, y), d(x, tx), d(y, ty), d(y, tx))
    if variant is Variant.KANNAN:
        return (d(x, tx) + d(y, ty)) / 2.0
    if variant is Variant.REICH:
        return (d(x, y) + d(x, tx) + d(y, ty)) / 3.0
    b1, b2, b3, b4 = betas
    return b1 * d(x, y) + b2 * d(tx, x) + b3 * d(ty, y) + b4 * d(y, tx)


def check_pair(spec: ContractionSpec, space, T: Callable, x, y, *,
               tol: float = MARGIN_TOL) -> PairVerdict:
    """Verdict for one ordered pair.

    Vacuous when the guard d(Tx, Ty) > 0 fails; for the Kannan, Reich and
    beta-combo variants a zero right-hand-side argument (both points fixed,
    or all weight on vanishing displacements) is also vacuous because F is
    undefined at 0. A nonpositive F argument in any non-vacuous position
    raises FunctionDomainError carrying (x, y, argument).
    """
    tx = _apply_map(space, T, x)
    ty = _apply_map(space, T, y)
    d_txy = space.distance(tx, ty)
    if d_txy <= GUARD_TOL:
        return PairVerdict(x=x, y=y, status=Status.VACUOUS)

    arg = _rhs_argument(spec.variant, space, x, y, tx, ty, spec.betas)
    if spec.variant in (Variant.KANNAN, Variant.REICH, Variant.BETA_COMBO):
        if arg <= GUARD_TOL:
            return PairVerdict(x=x, y=y, status=Status.VACUOUS)
    elif arg <= 0:
        raise FunctionDomainError(
            f"F argument {arg!r} is not positive for pair ({x!r}, {y!r})",
            argument=arg, context=(x, y, arg))

    d_xy = space.distance(x, y)
    if d_xy <= 0:
        raise FunctionDomainError(
            f"phi argument {d_xy!r} is not positive for pair ({x!r}, {y!r})",
            argument=d_xy, context=(x, y, d_xy))

    scale = spec.s if spec.variant is Variant.TYPE_F else spec.s ** 2
    lhs = spec.pair.F(scale * d_txy)
    rhs = spec.pair.F(arg) - spec.phi(d_xy)
    status = Status.HOLDS if rhs - lhs >= -tol else Status.VIOLATED
    return PairVerdict(x=x, y=y, status=status, lhs=lhs, rhs=rhs)


@dataclass
class VerificationSummary:
    """Aggregated verdicts. A pair counts as violated if any tested
    orientation is violated; vacuity is symmetric (the guard d(Tx,Ty) is),
    so the three counters partition the pairs."""

    total: int = 0
    holds: int = 0
    vacuous: int = 0
    violated: int = 0
    violations: list[PairVerdict] = field(default_factory=list)
    verdicts: list[PairVerdict] | None = None

    @property
    def passed(self) -> bool:
        return self.violated == 0

    def to_dict(self) -> dict:
        out = {"total": self.total, "holds": self.holds,
               "vacuous": self.vacuous, "violated": self.violated,
               "passed": self.passed,
               "violations": [v.to_dict() for v in self.violations]}
        if self.verdicts is not None:
            out["verdicts"] = [v.to_dict() for v in self.verdicts]
        return out


def _record(summary: VerificationSummary, orientation_verdicts: list[PairVerdict]) -> None:
    summary.total += 1
    statuses = {v.status for v in orientation_verdicts}
    if Status.VIOLATED in statuses:
        summary.violated += 1
        summary.violations.extend(
            v for v in orientation_verdicts if v.status is Status.VIOLATED)
    elif Status.HOLDS in statuses:
        summary.holds += 1
    else:
        summary.vacuous += 1
    if summary.verdicts is not None:
        summary.verdicts.extend(orientation_verdicts)


def _check_unordered(spec: ContractionSpec, space, T, x, y, tol: float) -> list[PairVerdict]:
    verdicts = [check_pair(spec, space, T, x, y, tol=tol)]
    if spec.variant in _ASYMMETRIC:
        verdicts.append(check_pair(spec, space, T, y, x, tol=tol))
    return verdicts


def verify_over_finite(spec: ContractionSpec, space, T: Callable, *,
                       tol: float = MARGIN_TOL,
                       collect_all: bool = False) -> VerificationSummary:
    """Run check_pair over every unordered pair of the space's points
    (both orientations for the asymmetric variants). Overall pass iff
    zero violations."""
    summary = VerificationSummary(verdicts=[] if collect_all else None)
    points = space.points
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            _record(summary, _check_unordered(spec, space, T, points[i], points[j], tol))
    summary.violations.sort(key=lambda v: (str(v.x), str(v.y)))
    return summary


def verify_over_sample(spec: ContractionSpec, sampler: Callable,
                       metric: Callable[[Any, Any], float], T: Callable,
                       n: int, seed: int, *, tol: float = MARGIN_TOL,
                       collect_all: bool = False) -> VerificationSummary:
    """Monte-Carlo proxy for a continuous domain: ``n`` pairs drawn by
    ``sampler`` (a callable taking a numpy Generator), deterministic for a
    given seed. Report shape matches verify_over_finite."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    domain = SampledSpace(points=(), metric=metric)
    summary = VerificationSummary(verdicts=[] if collect_all else None)
    for _ in range(n):
        x = sampler(rng)
        y = sampler(rng)
        _record(summary, _check_unordered(spec, domain, T, x, y, tol))
    summary.violations.sort(key=lambda v: (str(v.x), str(v.y)))
    return summary
