"""The fast path of an interval orbit: `iterate --domain` steps with the
compiled expression's bare lambda and computes gap2 with numpy. Its
reports, trace CSVs, errors and NaN handling must be those of the checked
path, in which every step calls the checked evaluate and gap2 calls the
scalar metric."""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractum import cli, expressions, picard
from contractum.cli import dispatch
from contractum.errors import NumericError
from contractum.picard import IterationConfig, abs_distance, iterate

# derandomized, whatever HYPOTHESIS_PROFILE says
CI = settings.get_profile("ci")


def _checked_compile(text, variables):
    """compile_expression without the bare lambda: every call is checked."""
    evaluate = expressions.compile_expression(text, variables)
    return lambda *args: evaluate(*args)


def _run(argv, tmp: Path, checked: bool):
    """Exit code, stdout without the wall clock, stderr and the trace CSV's
    bytes of ``iterate argv --trace tmp/trace.csv``."""
    trace = tmp / "trace.csv"
    trace.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if checked:
            mp.setattr(cli, "compile_expression", _checked_compile)
            mp.setattr(cli, "abs_distance", lambda x, y: abs(x - y))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(["--json", "iterate", *argv, "--trace", str(trace)])
    text = re.sub(r'"wall_clock_s": [^,}]*', "", out.getvalue())
    return code, text, err.getvalue(), trace.read_bytes() if trace.exists() else None


def assert_same_as_checked(argv):
    with tempfile.TemporaryDirectory() as tmp:
        fast = _run(argv, Path(tmp), checked=False)
        assert fast == _run(argv, Path(tmp), checked=True)
    return fast


def _affine(q, target, sign):
    c = (1 - q) * target
    return ["--domain", "interval:0,1", "--map", f"{q!r}*x + {c!r}",
            "--x0", repr(target + sign * 0.3)]


class TestSameOutput:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
    @settings(CI, max_examples=4, deadline=None)
    @given(target=st.floats(0.3, 0.7), sign=st.sampled_from([-1.0, 1.0]))
    def test_affine_orbits(self, q, target, sign):
        code, text, _, trace = assert_same_as_checked(_affine(q, target, sign))
        assert code == 0 and '"converged"' in text and trace

    @settings(CI, max_examples=15, deadline=None)
    @given(st.sampled_from([0.3, 0.6, 0.9]), st.floats(-1, 1), st.floats(-2, 2))
    def test_sine_orbits(self, a, c, x0):
        code, text, _, _ = assert_same_as_checked(
            ["--domain", "interval:-2,2", "--map", f"{a!r}*sin(x) + {c!r}", "--x0", repr(x0)])
        assert code == 0 and '"converged"' in text

    @settings(CI, max_examples=10, deadline=None)
    @given(st.floats(0.1, 1.0))
    def test_cycle(self, x0):
        code, text, _, _ = assert_same_as_checked(
            ["--domain", "interval:-1,1", "--map=-x", "--x0", repr(x0)])
        assert code == 1 and '"cycle_detected"' in text

    def test_max_iter(self):
        code, text, _, _ = assert_same_as_checked(
            ["--domain", "interval:0,1", "--map", "0.999999*x + 1e-07", "--x0", "0.9",
             "--max-iter", "3000"])
        assert code == 1 and '"max_iter_exceeded"' in text


class TestSameErrors:
    @pytest.mark.parametrize("argv, message", [
        (["--domain", "interval:0,1", "--map", "1/(x-0.5)", "--x0", "0.5"],
         "cannot evaluate '1/(x-0.5)' at x=0.5: float division by zero"),
        # complex, so the lambda returns a non-float
        (["--domain", "interval:0,3", "--map", "(x-2)^0.5", "--x0", "1"],
         "cannot evaluate '(x-2)^0.5' at x=1.0"),
        (["--domain", "interval:0,1", "--map", "(x+10)^400", "--x0", "1"],
         "cannot evaluate '(x+10)^400' at x=1.0"),
        # fails at the third step, not the first
        (["--domain", "interval:0,2", "--map", "sqrt(x-0.5)", "--x0", "1"],
         "cannot evaluate 'sqrt(x-0.5)' at x=0.4550898605622274: math domain error"),
        (["--domain", "interval:0,1", "--map", "x/2+2", "--x0", "0.5"],
         "map sends 0.5 outside the represented point set"),
        (["--domain", "interval:0,100", "--map", "2*x", "--x0", "1"],
         "map sends 64.0 outside the represented point set"),
    ])
    def test_error_text(self, argv, message):
        code, text, err, trace = assert_same_as_checked(argv)
        assert (code, text, trace) == (2, "", None)
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestSameNaN:
    @pytest.mark.parametrize("images, where", [
        ({1.0: math.inf, math.inf: -math.inf, -math.inf: math.inf}, (math.inf, math.inf)),
        ({1.0: 2.0, 2.0: math.nan}, (2.0, math.nan)),
    ])
    def test_nan_gap_raises_at_the_same_point(self, images, where):
        raised = []
        for metric in (abs_distance, lambda x, y: abs(x - y)):
            with pytest.raises(NumericError) as exc:
                iterate(images.__getitem__, 1.0, metric)
            raised.append((str(exc.value), repr(exc.value.where)))
        assert raised[0] == raised[1]
        assert raised[0][1] == repr(where)

    @settings(CI, max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30, unique=True),
           st.sampled_from([1e-300, 1e-9, 0.5]))
    def test_gap2_bits_match_the_scalar_metric(self, values, tol):
        # T walks the list and stays at its last value; inf - inf is NaN
        after = dict(zip(values, values[1:] + values[-1:]))
        outcomes = []
        for metric in (abs_distance, lambda x, y: abs(x - y)):
            try:
                r = iterate(after.__getitem__, values[0], metric, IterationConfig(tol=tol))
                outcomes.append((r.status, r.trace.gap1.tobytes(), r.trace.gap2.tobytes()))
            except NumericError as exc:
                outcomes.append((str(exc), repr(exc.where)))
        assert outcomes[0] == outcomes[1]


class TestFastPathTaken:
    def test_affine_orbit_makes_no_checked_call(self, monkeypatch, capsys):
        calls = []

        def counting_compile(text, variables):
            evaluate = expressions.compile_expression(text, variables)

            def counted(*args):
                calls.append(args)
                return evaluate(*args)
            counted.scalar = evaluate.scalar
            return counted

        def no_fromiter(*args, **kwargs):
            raise AssertionError("gap2 took the scalar path")

        monkeypatch.setattr(cli, "compile_expression", counting_compile)
        monkeypatch.setattr(picard.np, "fromiter", no_fromiter)
        assert dispatch(["iterate", "--domain", "interval:0,1", "--map", "0.9*x + 0.05",
                         "--x0", "0.2"]) == 0
        assert "status: converged" in capsys.readouterr().out
        assert calls == []

    def test_non_float_orbit_takes_the_scalar_metric(self):
        # numpy would subtract 2^53 + 1 as 2^53 and give 2^53 - 1
        images = {2 ** 53 + 1: 5.0, 5.0: 1, 1: 1}
        r = iterate(images.__getitem__, 2 ** 53 + 1, abs_distance)
        assert r.trace.gap2.tolist() == [float(2 ** 53), 4.0]

    def test_compiled_expression_carries_its_lambda(self):
        f = expressions.compile_expression("x/2 + 1", ("x",))
        assert f.scalar(3.0) == f(3.0) == 2.5
