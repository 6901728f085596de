"""Successive-approximation engine with convergence diagnostics.

The orbit x_{n+1} = T(x_n) is advanced until the computable residual
d(x_n, T x_n) drops to the tolerance (the distance to the true fixed point
is unknowable; the residual is sandwiched against it in the underlying
theory, so it is the honest stopping rule). An exact revisit of an earlier
iterate with a nonzero gap cannot happen for a genuine contraction, so it
is flagged as cycle_detected rather than looping forever.

Diagnostics audit what a convergent contraction orbit must look like:
strictly decreasing consecutive gaps, and coefficient-scaled gaps
s^n * d(x_n, x_{n+1}) trending to zero. The scaled sequences are handled
in log space (n * ln s + ln gap) because s^n overflows quickly for s = 3.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, NumericError


class IterationStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITER_EXCEEDED = "max_iter_exceeded"
    CYCLE_DETECTED = "cycle_detected"


@dataclass(frozen=True)
class IterationConfig:
    tol: float = 1e-9
    max_iter: int = 1_000_000
    record_trace: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class IterationTrace:
    """The recorded orbit with its gap sequences.

    gap1[n] = d(x_n, x_{n+1}) and gap2[n] = d(x_n, x_{n+2}); gap2 is two
    entries shorter than points. The s-scaled versions depend on the
    space's coefficient, which the engine does not know, so they are
    exposed as methods taking s.
    """

    points: list
    gap1: list[float]
    gap2: list[float]

    def __post_init__(self):
        if len(self.gap1) != len(self.points) - 1:
            raise ValueError("gap1 must be one shorter than points")
        if len(self.gap2) != max(0, len(self.points) - 2):
            raise ValueError("gap2 must be two shorter than points")

    def log_scaled1(self, s: float) -> list[float]:
        """n * ln(s) + ln(gap1[n]); -inf where the gap is zero."""
        return _log_scaled(self.gap1, s)

    def log_scaled2(self, s: float) -> list[float]:
        return _log_scaled(self.gap2, s)

    def scaled1(self, s: float) -> list[float]:
        """s^n * gap1[n], computed via log space (may overflow to inf)."""
        return _exp(self.log_scaled1(s))

    def scaled2(self, s: float) -> list[float]:
        return _exp(self.log_scaled2(s))

    def write_csv(self, path, s: float) -> None:
        log1 = self.log_scaled1(s)
        log2 = self.log_scaled2(s)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "x_n", "gap1", "gap2", "log_scaled1", "log_scaled2"])
            for n, p in enumerate(self.points):
                writer.writerow([
                    n,
                    _point_repr(p),
                    self.gap1[n] if n < len(self.gap1) else "",
                    self.gap2[n] if n < len(self.gap2) else "",
                    log1[n] if n < len(log1) else "",
                    log2[n] if n < len(log2) else "",
                ])


def _log_scaled(gaps: Sequence[float], s: float) -> list[float]:
    ls = math.log(s)
    return [n * ls + (math.log(g) if g > 0 else -math.inf) for n, g in enumerate(gaps)]


def _exp(logs: Sequence[float]) -> list[float]:
    """exp of each value; exp(-inf) is exactly 0.0, and a result past the
    float range is inf."""
    out = []
    for v in logs:
        try:
            out.append(math.exp(v))
        except OverflowError:
            out.append(math.inf)
    return out


def _point_repr(p) -> str:
    if isinstance(p, np.ndarray):
        return "max=" + repr(float(np.max(np.abs(p))))
    if isinstance(p, str):
        return p
    return repr(p)


@dataclass
class FixedPointResult:
    point: Any
    residual: float
    iterations: int
    status: IterationStatus
    trace: IterationTrace | None = None

    @property
    def converged(self) -> bool:
        return self.status is IterationStatus.CONVERGED

    def to_dict(self) -> dict:
        return {"point": _point_repr(self.point), "residual": self.residual,
                "iterations": self.iterations, "status": self.status.value}


def _revisit_key(point):
    """The point itself for exact-revisit detection: numbers and labels
    compare by value, an array by its raw bytes."""
    return point.tobytes() if isinstance(point, np.ndarray) else point


def _checked_distance(metric, a, b) -> float:
    d = float(metric(a, b))
    if math.isnan(d) or d < 0:
        raise NumericError(f"metric returned {d!r}", where=(a, b))
    return d


def iterate(T: Callable, x0, metric: Callable[[Any, Any], float],
            config: IterationConfig = IterationConfig()) -> FixedPointResult:
    """Advance the orbit from x0 until the residual d(x_n, T x_n) reaches
    config.tol, max_iter is exhausted, or an exact revisit of a previous
    iterate with nonzero gap is seen (cycle_detected, a hypothesis
    violation for contractions). The returned point is T of the last
    iterate; a fixed starting point converges in 0 iterations.
    """
    x = x0
    seen = {_revisit_key(x0)}
    points = [x0] if config.record_trace else None
    gap1: list[float] = [] if config.record_trace else None

    status = IterationStatus.MAX_ITER_EXCEEDED
    residual = math.inf
    iterations = config.max_iter
    for n in range(config.max_iter):
        fx = T(x)
        r = _checked_distance(metric, x, fx)
        if config.record_trace:
            points.append(fx)
            gap1.append(r)
        if r <= config.tol:
            status = IterationStatus.CONVERGED
            residual = r
            iterations = n
            x = fx
            break
        key = _revisit_key(fx)
        if key in seen:
            status = IterationStatus.CYCLE_DETECTED
            residual = r
            iterations = n + 1
            x = fx
            break
        seen.add(key)
        x = fx
    else:
        # x is already the final iterate; r is its predecessor's residual
        residual = r

    trace = None
    if config.record_trace:
        gap2 = [_checked_distance(metric, points[k], points[k + 2])
                for k in range(len(points) - 2)]
        trace = IterationTrace(points=points, gap1=gap1, gap2=gap2)
    return FixedPointResult(point=x, residual=residual, iterations=iterations,
                            status=status, trace=trace)


# ---------------------------------------------------------------------------
# diagnostics


def _strictly_decreasing_while_positive(seq: Sequence[float]) -> bool:
    """Strict decrease over the positive prefix; once a gap hits zero the
    orbit is constant, so trailing zeros are fine."""
    k = len(seq)
    for i, g in enumerate(seq):
        if g == 0:
            k = i
            break
    if any(seq[i] != 0 for i in range(k, len(seq))):
        return False
    return all(b < a for a, b in zip(seq[:k], seq[1:k]))


def _decreasing_suffix_start(seq: Sequence[float]) -> int:
    """Index where the maximal strictly-decreasing suffix begins."""
    start = len(seq) - 1
    for i in range(len(seq) - 2, -1, -1):
        if seq[i + 1] < seq[i]:
            start = i
        else:
            break
    return max(start, 0)


@dataclass
class TraceDiagnostics:
    gap1_strictly_decreasing: bool
    scaled1_trending_zero: bool
    scaled2_trending_zero: bool
    suffix_start1: int
    suffix_start2: int
    tail_rate: float | None
    rates: list[float]

    def to_dict(self) -> dict:
        return {"gap1_strictly_decreasing": self.gap1_strictly_decreasing,
                "scaled1_trending_zero": self.scaled1_trending_zero,
                "scaled2_trending_zero": self.scaled2_trending_zero,
                "suffix_start1": self.suffix_start1,
                "suffix_start2": self.suffix_start2,
                "tail_rate": self.tail_rate}


def audit_trace(trace: IterationTrace, s: float) -> TraceDiagnostics:
    """Check the recorded orbit against what the theory predicts for a
    genuine contraction: strictly decreasing consecutive gaps, and
    log-scaled gap sequences eventually heading down. Also estimates the
    tail geometric rate gap1[n+1] / gap1[n]."""
    if len(trace.points) < 3:
        raise InsufficientDataError(
            f"trace has {len(trace.points)} points; at least 3 are needed")
    if s < 1:
        raise ValueError(f"coefficient s must be >= 1, got {s}")

    start1 = _decreasing_suffix_start(trace.log_scaled1(s))
    start2 = _decreasing_suffix_start(trace.log_scaled2(s))
    rates = [b / a for a, b in zip(trace.gap1, trace.gap1[1:]) if a > 0]

    # a log-scaled sequence trends to zero when its strictly-decreasing
    # suffix covers at least the last half of the recorded window
    # (asymptotic claims are only checkable as trends)
    return TraceDiagnostics(
        gap1_strictly_decreasing=_strictly_decreasing_while_positive(trace.gap1),
        scaled1_trending_zero=start1 <= len(trace.gap1) // 2,
        scaled2_trending_zero=start2 <= len(trace.gap2) // 2,
        suffix_start1=start1,
        suffix_start2=start2,
        tail_rate=rates[-1] if rates else None,
        rates=rates)


@dataclass
class ScalingConditionReport:
    """Trace-level test of the sequence-rescaling property: if
    phi(a_n) + F(s * a_{n+1}) <= F(a_n) holds at every recorded step, then
    phi(a_n) + F(s^n * a_{n+1}) <= F(s^{n-1} * a_n) must hold as well."""

    premise_all: bool
    conclusion_all: bool
    steps_checked: int

    @property
    def implication_ok(self) -> bool:
        return (not self.premise_all) or self.conclusion_all

    def to_dict(self) -> dict:
        return {"premise_all": self.premise_all, "conclusion_all": self.conclusion_all,
                "steps_checked": self.steps_checked, "implication_ok": self.implication_ok}


def check_scaling_condition(trace: IterationTrace, pair, s: float,
                            tol: float = 1e-12) -> ScalingConditionReport:
    gaps = trace.gap1
    k = len(gaps)
    for i, g in enumerate(gaps):
        if g <= 0:
            k = i
            break
    F, phi = pair.F, pair.phi
    premise = all(
        phi(gaps[n]) + F(s * gaps[n + 1]) <= F(gaps[n]) + tol
        for n in range(k - 1))
    conclusion = all(
        phi(gaps[n]) + F(s ** n * gaps[n + 1]) <= F(s ** (n - 1) * gaps[n]) + tol
        for n in range(1, k - 1))
    return ScalingConditionReport(premise_all=premise, conclusion_all=conclusion,
                                  steps_checked=max(0, k - 1))


# ---------------------------------------------------------------------------
# multi-start uniqueness


@dataclass
class UniquenessReport:
    """Fixed points reached from several starts, compared pairwise.

    conclusive is False when any run failed to converge (then agree is
    None). agree is True iff every pair of limits lies within
    10 * tol of each other in the supplied metric."""

    conclusive: bool
    agree: bool | None
    results: list[FixedPointResult]
    pairwise: list[tuple[int, int, float]]
    threshold: float

    def to_dict(self) -> dict:
        return {"conclusive": self.conclusive, "agree": self.agree,
                "threshold": self.threshold,
                "pairwise": [[i, j, d] for i, j, d in self.pairwise],
                "results": [r.to_dict() for r in self.results]}


def verify_uniqueness(T: Callable, starts: Sequence, metric: Callable,
                      config: IterationConfig = IterationConfig()) -> UniquenessReport:
    if not starts:
        raise ValueError("at least one starting point is required")
    results = [iterate(T, x0, metric, config) for x0 in starts]
    threshold = 10 * config.tol
    if any(not r.converged for r in results):
        return UniquenessReport(conclusive=False, agree=None, results=results,
                                pairwise=[], threshold=threshold)
    pairwise = []
    agree = True
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            d = _checked_distance(metric, results[i].point, results[j].point)
            pairwise.append((i, j, d))
            if d > threshold:
                agree = False
    return UniquenessReport(conclusive=True, agree=agree, results=results,
                            pairwise=pairwise, threshold=threshold)
