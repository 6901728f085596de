"""Nonlinear Fredholm solver: x(t) = lambda * int_a^b K(t, r, x(r)) dr.

The equation is discretized on a uniform grid and solved by successive
approximation of the integral operator, using the powered sup metric
d(x, y) = (max_i |x_i - y_i|)^s that makes the underlying space a
b-rectangular metric space with coefficient derived from s. The operator
is a contraction (and the solution unique) when the kernel satisfies a
Lipschitz-type bound in its third argument and |lambda| (b - a) <= e^(-s);
both hypotheses are checkable here, the kernel one only by sampling.

The operator is applied in Nystrom matrix form: the kernel is evaluated
once on the (t, r) mesh of the grid, in row blocks, and each row is
summed against the quadrature weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ParameterError
from .expressions import array_values
from .picard import FixedPointResult, IterationConfig, iterate

#: grid functions are plain float arrays on the problem's uniform grid
GridFunction = np.ndarray

DEFAULT_SOLVER_TOL = 1e-10  # on the powered metric: keeps s-th powers meaningful

# kernel values per block of mesh rows: bounds the operator's memory for
# any grid size, and holds a whole m <= 512 mesh in one block
_MESH_BLOCK = 1 << 18


@dataclass(frozen=True)
class IntegralProblem:
    """Interval, strength, kernel, coefficient, and grid resolution.

    The kernel is a callable K(t, r, x). It is called once per block of
    mesh rows with numpy arrays (t a column, r and x rows) and returns
    values of their broadcast shape or anything that broadcasts to it,
    such as a scalar; a compiled expression does this. A callable that
    raises TypeError or ValueError on arrays, such as one using ``math``
    functions or an ``if`` on x, is called once per element instead, in
    row-major order. Quadrature is composite trapezoid by default;
    "simpson" is available when m is odd.
    """

    a: float
    b: float
    lam: float
    kernel: Callable
    s: float
    m: int = 65
    quadrature: str = "trapezoid"

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.m < 2:
            raise ParameterError(f"grid size must be >= 2, got {self.m}")
        if not self.s > 1:
            raise ParameterError(f"coefficient s must be > 1, got {self.s}")
        if self.quadrature not in ("trapezoid", "simpson"):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if self.quadrature == "simpson" and self.m % 2 == 0:
            raise ParameterError(f"composite Simpson needs an odd grid size, got {self.m}")

    def grid(self, m: int | None = None) -> np.ndarray:
        return np.linspace(self.a, self.b, self.m if m is None else m)

    def metric(self, x: GridFunction, y: GridFunction) -> float:
        """The powered sup metric (max |x_i - y_i|)^s."""
        return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) ** self.s

    def weights(self, m: int | None = None) -> np.ndarray:
        """Composite quadrature weights on the m-point grid: h/2, h, ..., h,
        h/2 for trapezoid, h/3 * (1, 4, 2, 4, ..., 2, 4, 1) for Simpson."""
        m = self.m if m is None else m
        h = (self.b - self.a) / (m - 1)
        if self.quadrature == "trapezoid":
            w = np.full(m, h)
            w[[0, -1]] = h / 2
            return w
        if m % 2 == 0:
            raise ValueError(f"composite Simpson needs an odd grid size, got {m}")
        w = np.full(m, 2 * h / 3)
        w[1::2] = 4 * h / 3
        w[[0, -1]] = h / 3
        return w


def lambda_bound(a: float, b: float, s: float) -> float:
    """Largest |lambda| admitted by the contraction argument: e^(-s) / (b - a)."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if not s > 1:
        raise ValueError(f"coefficient s must be > 1, got {s}")
    return math.exp(-s) / (b - a)


def kernel_condition_rhs(s: float, gap: float) -> float:
    """The admissible kernel increment for |x - y| = gap:
    s^-(2+s) * e^(-1/(gap+1)) * gap. gap may be an array."""
    return s ** (-(2.0 + s)) * np.exp(-1.0 / (gap + 1.0)) * gap


@dataclass
class KernelConditionReport:
    """Sampled check of the kernel's Lipschitz-type bound. advisory is
    always True: sampling cannot certify the condition."""

    checked: int
    violations: list[tuple[float, float, float, float, float, float]]
    advisory: bool = True

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"checked": self.checked, "passed": self.passed,
                "advisory": self.advisory,
                "violations": [
                    {"t": t, "r": r, "x": x, "y": y, "lhs": lhs, "rhs": rhs}
                    for t, r, x, y, lhs, rhs in self.violations]}


def verify_kernel_condition(problem: IntegralProblem, n: int = 1000,
                            seed: int = 0) -> KernelConditionReport:
    """Check |K(t,r,x) - K(t,r,y)| <= s^-(2+s) e^(-1/(|x-y|+1)) |x-y| on
    ``n`` sampled tuples: (t, r) uniform over the interval, x != y uniform
    over [-3, 3]. The tuples are drawn in one block, t, r, x, y for each
    sample in turn, and a y equal to its x is redrawn. The report is
    advisory."""
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    lo, hi = -3.0, 3.0
    rng = np.random.default_rng(seed)
    draw = rng.uniform((problem.a, problem.a, lo, lo), (problem.b, problem.b, hi, hi),
                       size=(n, 4))
    xy = draw[:, 2:]
    clash = np.flatnonzero(xy[:, 0] == xy[:, 1])
    while clash.size:
        xy[clash, 1] = rng.uniform(lo, hi, size=clash.size)
        clash = clash[xy[clash, 0] == xy[clash, 1]]
    # K(t, r, x) then K(t, r, y) for each sample in turn: row-major order
    k = array_values(problem.kernel, draw[:, 0:1], draw[:, 1:2], xy)
    nan = np.flatnonzero(np.isnan(k).any(axis=1))
    if nan.size:
        raise NumericError("kernel returned NaN", where=tuple(draw[nan[0]].tolist()))
    lhs = np.abs(k[:, 0] - k[:, 1])
    rhs = kernel_condition_rhs(problem.s, np.abs(xy[:, 0] - xy[:, 1]))
    hit = np.flatnonzero(lhs > rhs + 1e-12)
    rows = np.column_stack([draw[hit], lhs[hit], rhs[hit]]).tolist()
    return KernelConditionReport(checked=n, violations=[tuple(row) for row in rows])


def _nystrom(problem: IntegralProblem, grid: np.ndarray, x: GridFunction) -> GridFunction:
    """lambda * sum_j w_j K(t_i, r_j, x_j) at every node t_i of ``grid``,
    with the problem's quadrature weights on that grid."""
    m = len(grid)
    w = problem.weights(m)
    r, xr = grid[None, :], x[None, :]
    rows = max(1, _MESH_BLOCK // m)
    out = np.empty(m)
    for i in range(0, m, rows):
        out[i:i + rows] = array_values(problem.kernel, grid[i:i + rows, None], r, xr) @ w
    return problem.lam * out


def apply_operator(problem: IntegralProblem, x: GridFunction) -> GridFunction:
    """One application of T(x)(t) = lambda * Q(K(t, ., x(.))) with the
    problem's composite quadrature on its m-point grid."""
    x = np.asarray(x, dtype=float)
    grid = problem.grid()
    if x.shape != grid.shape:
        raise ValueError(f"grid function has length {x.shape}, expected {grid.shape}")
    out = _nystrom(problem, grid, x)
    nan = np.flatnonzero(np.isnan(out))
    if nan.size:
        t = float(grid[nan[0]])
        raise NumericError(f"operator value is NaN at t={t!r}", where=(t,))
    return out


@dataclass
class IntegralSolution:
    """A fixed-point run over grid functions, plus the hypothesis flag.

    lambda_bound_exceeded is a warning, not a refusal: the bound is
    sufficient for the contraction argument, not necessary."""

    result: FixedPointResult
    problem: IntegralProblem
    lambda_bound_exceeded: bool

    @property
    def values(self) -> GridFunction:
        return self.result.point

    @property
    def grid(self) -> np.ndarray:
        return self.problem.grid()

    def to_dict(self) -> dict:
        return {"result": self.result.to_dict(),
                "lambda_bound_exceeded": self.lambda_bound_exceeded,
                "sup_norm": float(np.max(np.abs(self.values)))}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x"])
            writer.writerows(zip(self.grid.tolist(), self.values.tolist()))


def solve(problem: IntegralProblem, config: IterationConfig | None = None,
          x0: float | Sequence[float] = 0.0) -> IntegralSolution:
    """Picard iteration of the integral operator under the powered sup
    metric. x0 may be a constant or a grid function. A lambda beyond
    lambda_bound triggers the warning flag, and iteration proceeds."""
    if config is None:
        config = IterationConfig(tol=DEFAULT_SOLVER_TOL)
    grid = problem.grid()
    if np.isscalar(x0):
        start = np.full_like(grid, float(x0))
    else:
        start = np.asarray(x0, dtype=float)
        if start.shape != grid.shape:
            raise ValueError(f"x0 has length {start.shape}, expected {grid.shape}")
    exceeded = abs(problem.lam) > lambda_bound(problem.a, problem.b, problem.s) + 1e-15
    result = iterate(lambda x: apply_operator(problem, x), start,
                     problem.metric, config)
    return IntegralSolution(result=result, problem=problem,
                            lambda_bound_exceeded=exceeded)


def refined_residual(problem: IntegralProblem, values: GridFunction,
                     refine: int = 2) -> float:
    """Self-consistency oracle: substitute the solution back into the
    equation using a finer quadrature (refine=2 gives 2m-1 points, the
    original grid with midpoints inserted) and return the sup-norm of
    x(t) - lambda * Q_fine(K(t, ., x(.))). The solution is interpolated
    linearly onto the fine grid."""
    if refine < 1:
        raise ValueError(f"refine must be >= 1, got {refine}")
    values = np.asarray(values, dtype=float)
    coarse = problem.grid()
    m_fine = refine * (problem.m - 1) + 1
    fine = problem.grid(m_fine)
    x_fine = np.interp(fine, coarse, values)
    return float(np.max(np.abs(x_fine - _nystrom(problem, fine, x_fine))))
