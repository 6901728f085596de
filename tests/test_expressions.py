import math
import os
import subprocess
import sys

import numpy as np
import pytest

from contractum.errors import ExpressionError
from contractum.expressions import compile_expression


def test_arithmetic_and_power():
    f = compile_expression("x^2 + 3*x - 1", ("x",))
    assert f(2.0) == pytest.approx(9.0)


def test_functions_and_constants():
    f = compile_expression("exp(-1) * sin(x) + pi - pi", ("x",))
    assert f(math.pi / 2) == pytest.approx(math.exp(-1))


def test_unary_minus_and_division():
    f = compile_expression("-(x - 1) / 2", ("x",))
    assert f(5.0) == -2.0


def test_multiple_variables_positional():
    k = compile_expression("t + 2*r + 4*x", ("t", "r", "x"))
    assert k(1.0, 1.0, 1.0) == 7.0


def test_ln_alias():
    f = compile_expression("ln(x)", ("x",))
    g = compile_expression("log(x)", ("x",))
    assert f(math.e) == g(math.e) == pytest.approx(1.0)


def test_unknown_variable_named():
    with pytest.raises(ExpressionError) as exc:
        compile_expression("x + y", ("x",))
    assert exc.value.token == "y"


def test_unknown_function_named():
    with pytest.raises(ExpressionError) as exc:
        compile_expression("floor(x)", ("x",))
    assert exc.value.token == "floor"


def test_syntax_error_reported():
    with pytest.raises(ExpressionError):
        compile_expression("x +* 2", ("x",))


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "x.real",
    "[1, 2]",
    "x if x else 0",
    "lambda t: t",
    "x < 1",
])
def test_disallowed_constructs_rejected(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, ("x",))


def test_power_of_negative_base_is_an_expression_error():
    # Python gives a complex number for (-0.5) ** 0.5
    with pytest.raises(ExpressionError, match="x=-0.5"):
        compile_expression("x^0.5 - 1", ("x",))(-0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, before the float re-run
@pytest.mark.parametrize("text, x", [("1/x", 0.0), ("x^0.5", -0.5)])
def test_numpy_scalar_arguments_follow_float_rules(text, x):
    f = compile_expression(text, ("x",))
    with pytest.raises(ExpressionError, match=f"x={x}:"):
        f(np.float64(x))
    good = f(np.float64(4.0))
    assert type(good) is float and good == f(4.0)


def test_integer_literals_cannot_grow_big_ints():
    # literals are floats, so 2^2^40 overflows at once; a regression would
    # hang, hence the subprocess with a timeout
    code = ("from contractum.errors import ExpressionError\n"
            "from contractum.expressions import compile_expression\n"
            "f = compile_expression('2^2^40', ('x',))\n"
            "try:\n"
            "    f(1.0)\n"
            "except ExpressionError as exc:\n"
            "    print('ExpressionError', exc)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ExpressionError")


def test_literal_beyond_float_range_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("1" + "0" * 400 + " * x", ("x",))


class TestArrayMode:
    T = np.linspace(0.0, 1.0, 5)[:, None]
    R = np.linspace(0.0, 1.0, 5)[None, :]
    X = np.linspace(-1.0, 2.0, 5)[None, :]

    @pytest.mark.parametrize("text", [
        "0.5*sin(x)*cos(t-r) + t*r",
        "x*exp(-(t-r)^2) + 0.5",
        "abs(x)^1.5 - ln(1 + t) + sqrt(r) / (2 + tan(r))",
        "-x^2 + e^t - pi",
    ])
    def test_matches_scalar_mode(self, text):
        k = compile_expression(text, ("t", "r", "x"))
        out = k(self.T, self.R, self.X)
        assert out.shape == (5, 5)
        for i in range(5):
            for j in range(5):
                want = k(float(self.T[i, 0]), float(self.R[0, j]), float(self.X[0, j]))
                assert out[i, j] == pytest.approx(want, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("text", ["0.5", "sin(x)"])
    def test_broadcasts_to_the_mesh(self, text):
        m = 7
        t = np.linspace(0.0, 1.0, m)
        k = compile_expression(text, ("t", "r", "x"))
        out = k(t[:, None], t[None, :], t[None, :])
        assert out.shape == (m, m)
        want = [[k(float(ti), float(rj), float(rj)) for rj in t] for ti in t]
        assert out == pytest.approx(np.array(want), rel=1e-15)

    @pytest.mark.parametrize("text", ["ln(x - t*r)", "1/(x - t)", "x^(0.5 + r) - 1",
                                      "exp(1000*x*t)"])
    def test_names_the_scalar_modes_first_failure(self, text):
        k = compile_expression(text, ("t", "r", "x"))
        first = None
        for i in range(5):
            for j in range(5):
                try:
                    k(float(self.T[i, 0]), float(self.R[0, j]), float(self.X[0, j]))
                except ExpressionError as exc:
                    first = str(exc)
                    break
            if first:
                break
        assert first is not None
        with pytest.raises(ExpressionError) as exc:
            k(self.T, self.R, self.X)
        assert str(exc.value) == first

    def test_overflow_to_inf_follows_scalar_mode(self):
        # Python float multiplication overflows to inf without an error, so
        # the scalar mode decides the elements numpy flagged
        f = compile_expression("x*x", ("x",))
        out = f(np.array([1e200, 3.0]))
        assert out.tolist() == [f(1e200), 9.0] == [math.inf, 9.0]
