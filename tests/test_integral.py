import math
import tracemalloc

import numpy as np
import pytest

from contractum.errors import ExpressionError, NumericError, ParameterError
from contractum.expressions import compile_expression
from contractum.fixtures import SIN_KERNEL_SCALE, integral_sin_problem, sin_kernel
from contractum.integral import (
    IntegralProblem,
    apply_operator,
    kernel_condition_rhs,
    lambda_bound,
    refined_residual,
    solve,
    verify_kernel_condition,
)
from contractum.picard import IterationConfig


class TestLambdaBound:
    def test_unit_interval_s3(self):
        assert lambda_bound(0.0, 1.0, 3.0) == pytest.approx(math.exp(-3), rel=1e-15)
        assert lambda_bound(0.0, 1.0, 3.0) == pytest.approx(0.0497870683678639, rel=1e-12)

    def test_width_equal_to_exp_minus_s(self):
        s = 2.0
        assert lambda_bound(0.0, math.exp(-s), s) == pytest.approx(1.0, rel=1e-12)

    def test_wider_interval(self):
        assert lambda_bound(0.0, 2.0, 2.0) == pytest.approx(math.exp(-2) / 2, rel=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lambda_bound(1.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            lambda_bound(0.0, 1.0, 1.0)


class TestProblemValidation:
    def test_interval_order(self):
        with pytest.raises(ValueError):
            IntegralProblem(a=1, b=0, lam=0.1, kernel=sin_kernel, s=3)

    def test_grid_size(self):
        with pytest.raises(ValueError):
            IntegralProblem(a=0, b=1, lam=0.1, kernel=sin_kernel, s=3, m=1)

    def test_simpson_needs_odd_grid(self):
        with pytest.raises(ValueError):
            IntegralProblem(a=0, b=1, lam=0.1, kernel=sin_kernel, s=3, m=10,
                            quadrature="simpson")

    @pytest.mark.parametrize("options", [{"s": 1.0}, {"s": float("nan")}, {"m": 1},
                                         {"m": 10, "quadrature": "simpson"}])
    def test_out_of_range_parameter_is_parameter_error(self, options):
        # a ParameterError, so the CLI reports it as malformed input (exit 2)
        with pytest.raises(ParameterError):
            IntegralProblem(**{"a": 0, "b": 1, "lam": 0.1, "kernel": sin_kernel, "s": 3,
                               **options})

    def test_metric_is_powered_sup(self):
        prob = integral_sin_problem(m=5)
        x = np.zeros(5)
        y = np.array([0.0, 0.5, -2.0, 0.1, 0.0])
        assert prob.metric(x, y) == pytest.approx(2.0 ** 3, rel=1e-15)


class TestKernelCondition:
    def test_scaled_sine_passes(self):
        # |c sin x - c sin y| <= c |x - y| and c = e^-1 * s^-(2+s) is
        # exactly the bound's worst-case prefactor
        rep = verify_kernel_condition(integral_sin_problem(m=9), n=2000, seed=1)
        assert rep.passed
        assert rep.advisory

    def test_zero_kernel_trivially_passes(self):
        prob = IntegralProblem(a=0, b=1, lam=0.1, kernel=lambda t, r, x: 0.0, s=3, m=9)
        assert verify_kernel_condition(prob, n=100, seed=0).passed

    def test_identity_kernel_violates(self):
        prob = IntegralProblem(a=0, b=1, lam=0.1, kernel=lambda t, r, x: x, s=3, m=9)
        rep = verify_kernel_condition(prob, n=200, seed=1)
        assert not rep.passed
        t, r, x, y, lhs, rhs = rep.violations[0]
        assert lhs > rhs

    def test_nan_kernel_raises(self):
        prob = IntegralProblem(a=0, b=1, lam=0.1,
                               kernel=lambda t, r, x: float("nan"), s=3, m=9)
        with pytest.raises(NumericError):
            verify_kernel_condition(prob, n=10, seed=0)

    def test_rhs_formula(self):
        assert kernel_condition_rhs(3.0, 1.0) == pytest.approx(
            3.0 ** -5 * math.exp(-0.5), rel=1e-15)


class TestApplyOperator:
    def test_zero_kernel_gives_zero(self):
        prob = IntegralProblem(a=0, b=1, lam=0.3, kernel=lambda t, r, x: 0.0, s=3, m=17)
        assert np.all(apply_operator(prob, np.ones(17)) == 0.0)

    def test_constant_kernel_exact(self):
        # trapezoid integrates constants exactly
        prob = IntegralProblem(a=0, b=1, lam=1.0, kernel=lambda t, r, x: 1.0, s=3, m=33)
        out = apply_operator(prob, np.zeros(33))
        assert np.all(out == pytest.approx(1.0, rel=1e-15))

    def test_constant_state_sine_kernel(self):
        prob = integral_sin_problem(m=33)
        out = apply_operator(prob, np.full(33, math.pi / 2))
        expected = prob.lam * SIN_KERNEL_SCALE * 1.0  # sin(pi/2) over unit width
        assert out == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        prob = integral_sin_problem(m=33)
        with pytest.raises(ValueError):
            apply_operator(prob, np.zeros(5))


class TestSolve:
    def test_zero_kernel_reaches_zero_immediately(self):
        prob = IntegralProblem(a=0, b=1, lam=0.5, kernel=lambda t, r, x: 0.0, s=3, m=9)
        sol = solve(prob, x0=0.7)
        assert sol.result.converged
        assert sol.result.iterations <= 1
        assert np.all(sol.values == 0.0)

    def test_sine_instance_two_starts_agree(self):
        prob = integral_sin_problem(m=65)
        cfg = IterationConfig(tol=1e-10)
        a = solve(prob, cfg, x0=0.5)
        b = solve(prob, cfg, x0=-1.0)
        assert a.result.converged and b.result.converged
        assert prob.metric(a.values, b.values) <= 10 * cfg.tol
        assert not a.lambda_bound_exceeded

    def test_sine_instance_self_consistency(self):
        prob = integral_sin_problem(m=65)
        sol = solve(prob, IterationConfig(tol=1e-10), x0=0.5)
        # substitute back through a 129-point quadrature
        assert refined_residual(prob, sol.values, refine=2) <= 1e-6

    def test_lambda_over_bound_flags_warning(self):
        prob = integral_sin_problem(m=33, lam=2 * math.exp(-3))
        sol = solve(prob, x0=0.5)
        assert sol.lambda_bound_exceeded
        assert sol.result.converged  # warn-and-proceed, not a refusal

    def test_grid_function_start(self):
        prob = integral_sin_problem(m=17)
        sol = solve(prob, x0=np.linspace(0, 1, 17))
        assert sol.result.converged

    def test_solution_csv(self, tmp_path):
        prob = integral_sin_problem(m=9)
        sol = solve(prob, x0=0.5)
        path = tmp_path / "solution.csv"
        sol.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 10

    def test_simpson_mode(self):
        prob = integral_sin_problem(m=65, quadrature="simpson")
        sol = solve(prob, x0=0.5)
        assert sol.result.converged
        assert refined_residual(prob, sol.values, refine=2) <= 1e-6


def test_admissible_instance_has_strictly_decreasing_gaps():
    # with lambda under the bound and the kernel condition satisfied, the
    # operator is a contraction, so consecutive orbit gaps must shrink
    from contractum.picard import audit_trace

    prob = integral_sin_problem(m=33)
    sol = solve(prob, IterationConfig(tol=1e-12), x0=0.5)
    assert sol.result.converged
    diag = audit_trace(sol.result.trace, prob.s)
    assert diag.gap1_strictly_decreasing


def test_grid_refinement_shrinks_changes_at_quadrature_order():
    # kernel with genuine (t, r) dependence so quadrature error dominates
    c = SIN_KERNEL_SCALE
    kernel = lambda t, r, x: c * math.sin(x + t * r)
    tight = IterationConfig(tol=1e-15)
    sols = {}
    for m in (17, 33, 65):
        prob = IntegralProblem(a=0, b=1, lam=math.exp(-3), kernel=kernel, s=3, m=m)
        sols[m] = solve(prob, tight, x0=0.5).values
    d1 = float(np.max(np.abs(sols[17] - sols[33][::2])))
    d2 = float(np.max(np.abs(sols[33] - sols[65][::2])))
    assert d2 < d1 / 1.8  # at least first order; trapezoid gives ~4x


# -- the Nystrom operator against a pure-Python double loop --------------------


def oracle_operator(problem, grid, x):
    """lambda * Q(K(t, ., x(.))) at every t of ``grid`` by explicit composite
    sums, one scalar kernel call per (t, r)."""
    m = len(grid)
    h = (problem.b - problem.a) / (m - 1)
    out = []
    for t in grid:
        f = [problem.kernel(t, r, xr) for r, xr in zip(grid, x)]
        if problem.quadrature == "trapezoid":
            q = h * (sum(f) - (f[0] + f[-1]) / 2)
        else:
            q = h / 3 * (f[0] + f[-1] + 4 * sum(f[1:-1:2]) + 2 * sum(f[2:-1:2]))
        out.append(problem.lam * q)
    return out


def oracle_refined_residual(problem, values):
    coarse = problem.grid()
    fine = problem.grid(2 * problem.m - 1)
    x = np.interp(fine, coarse, values).tolist()
    op = oracle_operator(problem, fine.tolist(), x)
    return max(abs(xi - oi) for xi, oi in zip(x, op))


ORACLE_KERNELS = {
    "expression": compile_expression("0.6*sin(x)*cos(t-r) + t*r", ("t", "r", "x")),
    "constant": compile_expression("0.5", ("t", "r", "x")),
    "x-only": compile_expression("sin(x)", ("t", "r", "x")),
    "gaussian": compile_expression("x*exp(-(t-r)^2) + 0.5", ("t", "r", "x")),
    "math-lambda": lambda t, r, x: SIN_KERNEL_SCALE * math.sin(x + t * r),
    "if-lambda": lambda t, r, x: x * r if x > 0 else 0.5 * x - t,
}


class TestNystromOracle:
    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    @pytest.mark.parametrize("m, quadrature", [(9, "trapezoid"), (33, "trapezoid"),
                                               (9, "simpson"), (33, "simpson")])
    def test_operator_and_refined_residual(self, name, m, quadrature):
        prob = IntegralProblem(a=-0.5, b=1.5, lam=0.7, kernel=ORACLE_KERNELS[name], s=3,
                               m=m, quadrature=quadrature)
        x = np.sin(3 * prob.grid()) + 0.3
        want = oracle_operator(prob, prob.grid().tolist(), x.tolist())
        assert apply_operator(prob, x) == pytest.approx(np.array(want), rel=1e-13, abs=1e-15)
        assert refined_residual(prob, x) == pytest.approx(
            oracle_refined_residual(prob, x), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("m", [3, 5, 9, 65])
    def test_weights_are_the_composite_rules(self, m):
        h = 2.0 / (m - 1)
        trap = IntegralProblem(a=-1, b=1, lam=0.1, kernel=sin_kernel, s=3, m=m).weights()
        assert trap.tolist() == pytest.approx([h / 2] + [h] * (m - 2) + [h / 2], rel=1e-15)
        simp = IntegralProblem(a=-1, b=1, lam=0.1, kernel=sin_kernel, s=3, m=m,
                               quadrature="simpson").weights()
        inner = [4 * h / 3 if i % 2 else 2 * h / 3 for i in range(1, m - 1)]
        assert simp.tolist() == pytest.approx([h / 3] + inner + [h / 3], rel=1e-15)
        # Simpson is exact for cubics on [-1, 1]
        t = np.linspace(-1, 1, m)
        assert simp @ t ** 2 == pytest.approx(2 / 3, rel=1e-14)
        assert simp @ t ** 3 == pytest.approx(0.0, abs=1e-15)

    def test_names_the_loops_first_failure(self):
        prob = IntegralProblem(a=0, b=1, lam=0.1, s=3, m=17,
                               kernel=compile_expression("ln(x - t*r)", ("t", "r", "x")))
        x = np.full(17, 0.25)
        with pytest.raises(ExpressionError) as want:
            oracle_operator(prob, prob.grid().tolist(), x.tolist())
        with pytest.raises(ExpressionError) as got:
            apply_operator(prob, x)
        assert str(got.value) == str(want.value)
        assert "t=0.25, r=1.0, x=0.25" in str(got.value)

    def test_nan_value_names_the_first_t(self):
        prob = IntegralProblem(a=0, b=1, lam=0.1, s=3, m=9,
                               kernel=lambda t, r, x: math.nan if t > 0.5 else 1.0)
        with pytest.raises(NumericError) as exc:
            apply_operator(prob, np.zeros(9))
        assert exc.value.where == (0.625,)

    def test_memory_is_bounded_by_row_blocks(self):
        # one full mesh of kernel values at m = 2049 is m * m * 8 bytes = 33.6 MB
        m = 2049
        prob = IntegralProblem(a=0, b=1, lam=0.5, s=3, m=m, kernel=compile_expression(
            "0.6*sin(x)*cos(t-r) + t*r", ("t", "r", "x")))
        x = np.sin(prob.grid())
        tracemalloc.start()
        try:
            out = apply_operator(prob, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.all(np.isfinite(out))


def old_kernel_sample(a, b, n, seed, lo=-3.0, hi=3.0):
    """The kernel check's former draw: t, r, x, y one scalar at a time,
    redrawing y while it equals x."""
    rng = np.random.default_rng(seed)
    sample = []
    for _ in range(n):
        t, r = float(rng.uniform(a, b)), float(rng.uniform(a, b))
        x, y = float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))
        while y == x:
            y = float(rng.uniform(lo, hi))
        sample.append((t, r, x, y))
    return sample


class TestKernelCheckSample:
    @pytest.mark.parametrize("seed", range(5))
    def test_sample_is_the_scalar_draw(self, seed):
        # every tuple violates a kernel this steep, so the report lists the sample
        prob = IntegralProblem(a=-0.5, b=2.0, lam=0.1, kernel=lambda t, r, x: 1e6 * x,
                               s=3, m=9)
        rep = verify_kernel_condition(prob, n=300, seed=seed)
        assert [v[:4] for v in rep.violations] == old_kernel_sample(-0.5, 2.0, 300, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_first_failure_is_the_scalar_loops(self, seed):
        # K(t, r, x) then K(t, r, y), sample by sample
        k = compile_expression("ln(x + 2.9 - t)", ("t", "r", "x"))
        prob = IntegralProblem(a=0, b=1, lam=0.1, kernel=k, s=3, m=9)
        first = None
        for t, r, x, y in old_kernel_sample(0.0, 1.0, 200, seed):
            try:
                k(t, r, x)
                k(t, r, y)
            except ExpressionError as exc:
                first = str(exc)
                break
        assert first is not None
        with pytest.raises(ExpressionError) as exc:
            verify_kernel_condition(prob, n=200, seed=seed)
        assert str(exc.value) == first
