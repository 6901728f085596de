"""Successive-approximation engine with convergence diagnostics.

The orbit x_{n+1} = T(x_n) is advanced until the computable residual
d(x_n, T x_n) drops to the tolerance (the distance to the true fixed point
is unknowable; the residual is sandwiched against it in the underlying
theory, so it is the honest stopping rule). An exact revisit of an earlier
iterate with a nonzero gap cannot happen for a genuine contraction, so it
is flagged as cycle_detected rather than looping forever.

Each step applies T, calls the metric once, compares the residual with
the tolerance and records the iterate. The loop keeps no set of visited
points: Brent's cycle finding (Brent 1980, BIT 20) compares a checkpoint
x_c, for c = 0, 1, 3, 7, ..., with the iterates up to x_{2c+1}, so a
cycle is met within about twice the steps to its first repeat. A hit, or
max_iter, ends the loop, and one scan of the recorded orbit then finds
the first revisit. The result is the one a check at every step gives.
gap2 = d(x_n, x_{n+2}) is computed after the loop.

The trace holds the gaps as float64 arrays, built once after the loop;
the audit and the CSV writer read them as they are. Diagnostics audit
what a convergent contraction orbit must look like: strictly decreasing
consecutive gaps, and coefficient-scaled gaps s^n * d(x_n, x_{n+1})
trending to zero. The scaled sequences are handled in log space
(n * ln s + ln gap) because s^n overflows quickly for s = 3; the audit
compares them with np.log and decides near-ties with math.log, which the
trace's columns use.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import Any, Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, NumericError, ParameterError


class IterationStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITER_EXCEEDED = "max_iter_exceeded"
    CYCLE_DETECTED = "cycle_detected"


@dataclass(frozen=True)
class IterationConfig:
    tol: float = 1e-9
    max_iter: int = 1_000_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class IterationTrace:
    """The recorded orbit with its gap sequences.

    gap1[n] = d(x_n, x_{n+1}) and gap2[n] = d(x_n, x_{n+2}), held as
    float64 arrays (sequences are converted); gap2 is two entries shorter
    than points. The s-scaled versions depend on the space's coefficient,
    which the engine does not know, so write_csv takes s and writes them.
    """

    points: list
    gap1: np.ndarray
    gap2: np.ndarray

    def __post_init__(self):
        self.gap1 = np.asarray(self.gap1, dtype=float)
        self.gap2 = np.asarray(self.gap2, dtype=float)
        if len(self.gap1) != len(self.points) - 1:
            raise ValueError("gap1 must be one shorter than points")
        if len(self.gap2) != max(0, len(self.points) - 2):
            raise ValueError("gap2 must be two shorter than points")

    def write_csv(self, path, s: float) -> None:
        gap1, gap2 = self.gap1.tolist(), self.gap2.tolist()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "x_n", "gap1", "gap2", "log_scaled1", "log_scaled2"])
            writer.writerows(zip_longest(
                range(len(self.points)), map(_point_repr, self.points), gap1, gap2,
                _log_scaled(gap1, s), _log_scaled(gap2, s), fillvalue=""))


def _log_scaled(gaps: Sequence[float], s: float, first: int = 0) -> list[float]:
    """n * ln(s) + ln(gaps[k]) at n = first + k; -inf where a gap is not positive."""
    ls = math.log(s)
    return [n * ls + (math.log(g) if g > 0 else -math.inf)
            for n, g in enumerate(gaps, first)]


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
    trace: IterationTrace

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


def _keys(points: list) -> list:
    """The revisit key of each point; the points themselves when none is
    an array, which one pass over their types decides."""
    if any(issubclass(t, np.ndarray) for t in set(map(type, points))):
        return [_revisit_key(p) for p in points]
    return points


def _first_revisit(points: list) -> int | None:
    """Index of the first point whose key equals an earlier point's key."""
    seen = set()
    for n, key in enumerate(_keys(points)):
        if key in seen:
            return n
        seen.add(key)
    return None


def _checked(d: float, a, b) -> float:
    """The distance d from a to b, or NumericError when it is NaN or negative."""
    if math.isnan(d) or d < 0:
        raise NumericError(f"metric returned {d!r}", where=(a, b))
    return d


def _advance(T: Callable, metric: Callable, tol: float, points: list, gaps: list,
             steps: int) -> bool:
    """Take up to ``steps`` steps from points[-1], appending each image to
    points and each residual to gaps. True when a residual reaches tol."""
    add_point, add_gap = points.append, gaps.append
    x = points[-1]
    for _ in range(steps):
        fx = T(x)
        r = metric(x, fx)
        add_point(fx)
        add_gap(r)
        if not r > tol:                       # also true for NaN and negatives
            _checked(float(r), x, fx)
            return True
        x = fx
    return False


def iterate(T: Callable, x0, metric: Callable[[Any, Any], float],
            config: IterationConfig = IterationConfig()) -> FixedPointResult:
    """Advance the orbit from x0 until the residual d(x_n, T x_n) reaches
    config.tol, max_iter is exhausted, or an exact revisit of a previous
    iterate with nonzero gap is seen (cycle_detected, a hypothesis
    violation for contractions). The returned point is T of the last
    iterate; a fixed starting point converges in 0 iterations.

    Iterates must be hashable; x0 is checked at once. Brent's checkpoints
    only decide when to stop (see the module docstring), so the reported
    revisit is the first in the orbit. The one revisit they can miss: 0.0
    and -0.0 are one point, and under a map that tells them apart their
    repeat need not start a cycle, so an orbit that converges before a
    checkpoint meets the repeat reports converged.
    """
    hash(_revisit_key(x0))                    # the revisit scan hashes every iterate
    points, gaps = [x0], []
    checkpoint = 0                            # steps taken so far: 0, 1, 3, 7, ...
    while True:
        stop = min(2 * checkpoint + 1, config.max_iter)
        if _advance(T, metric, config.tol, points, gaps, stop - checkpoint):
            status, end = IterationStatus.CONVERGED, len(gaps)
            break
        if stop == config.max_iter or \
                _revisit_key(points[checkpoint]) in _keys(points[checkpoint + 1:]):
            first = _first_revisit(points)
            status, end = ((IterationStatus.MAX_ITER_EXCEEDED, stop) if first is None
                           else (IterationStatus.CYCLE_DETECTED, first))
            break
        checkpoint = stop

    del points[end + 1:], gaps[end:]
    gap1 = np.array(gaps, dtype=float)
    gap2 = np.fromiter(map(metric, points, points[2:]), dtype=float,
                       count=len(points) - 2)
    bad = np.flatnonzero(~(gap2 >= 0))             # NaN or negative
    if bad.size:
        k = int(bad[0])
        _checked(float(gap2[k]), points[k], points[k + 2])
    trace = IterationTrace(points=points, gap1=gap1, gap2=gap2)
    iterations = end - 1 if status is IterationStatus.CONVERGED else end
    return FixedPointResult(point=points[end], residual=float(gap1[-1]),
                            iterations=iterations, status=status, trace=trace)


# ---------------------------------------------------------------------------
# diagnostics


#: band around a tie, relative to the largest term of a log-scaled
#: sequence, in which math.log re-decides a comparison
_BAND = 2.0 ** -30
#: |ln g| is below this for every positive finite float g
_LOG_RANGE = 745.2


def _suffix_start(g: np.ndarray, s: float) -> int:
    """Index where the maximal strictly decreasing suffix of the log-scaled
    gaps n * ln(s) + ln(g[n]) begins. np.log decides the comparisons; it
    may differ from math.log in the last bit, so those within _BAND of the
    largest term are decided again by _log_scaled, as the trace computes
    them."""
    ls = math.log(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.arange(len(g)) * ls + np.log(np.where(g > 0, g, 0.0))
        rise = logs[1:] - logs[:-1]               # nan between two -inf: no fall
    falls = rise < 0
    for i in np.flatnonzero(np.abs(rise) <= _BAND * (len(g) * ls + _LOG_RANGE)).tolist():
        a, b = _log_scaled(g[i:i + 2].tolist(), s, i)
        falls[i] = b < a
    rises = np.flatnonzero(~falls)
    return int(rises[-1]) + 1 if rises.size else 0


@dataclass
class TraceDiagnostics:
    gap1_strictly_decreasing: bool
    scaled1_trending_zero: bool
    scaled2_trending_zero: bool
    suffix_start1: int
    suffix_start2: int
    tail_rate: float | None

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
    if not s >= 1:
        raise ParameterError(f"coefficient s must be >= 1, got {s}")

    g, gap2 = trace.gap1, trace.gap2
    start1 = _suffix_start(g, s)
    start2 = _suffix_start(gap2, s)
    # strict decrease over the positive prefix; once a gap hits zero the
    # orbit is constant, so trailing zeros are fine
    zero = g == 0
    head = g[:int(zero.argmax()) if zero.any() else len(g)]
    decreasing = bool(zero[len(head):].all() and (head[1:] < head[:-1]).all())
    # the rate of the last step that starts from a positive gap
    starts = np.flatnonzero(g[:-1] > 0)
    last = int(starts[-1]) if starts.size else None

    # a log-scaled sequence trends to zero when its strictly-decreasing
    # suffix covers at least the last half of the recorded window
    # (asymptotic claims are only checkable as trends)
    return TraceDiagnostics(
        gap1_strictly_decreasing=decreasing,
        scaled1_trending_zero=start1 <= len(g) // 2,
        scaled2_trending_zero=start2 <= len(gap2) // 2,
        suffix_start1=start1,
        suffix_start2=start2,
        tail_rate=float(g[last + 1]) / float(g[last]) if last is not None else None)


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
            a, b = results[i].point, results[j].point
            d = _checked(float(metric(a, b)), a, b)
            pairwise.append((i, j, d))
            if d > threshold:
                agree = False
    return UniquenessReport(conclusive=True, agree=agree, results=results,
                            pairwise=pairwise, threshold=threshold)
