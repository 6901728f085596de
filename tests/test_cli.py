import json
import time

import pytest

from contractum import cli
from contractum.cli import dispatch


def run_json(capsys, argv):
    code = dispatch(["--json"] + argv)
    out = json.loads(capsys.readouterr().out)
    return code, out


class TestExitCodes:
    def test_validate_pass(self, space_file):
        assert dispatch(["validate-space", str(space_file), "--s", "3"]) == 0

    def test_validate_violation(self, space_file):
        assert dispatch(["validate-space", str(space_file), "--s", "1"]) == 1

    def test_malformed_csv_names_pair(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0,1\n2,0\n")
        assert dispatch(["validate-space", str(bad), "--s", "3"]) == 2
        err = capsys.readouterr().err
        assert "'a'" in err and "'b'" in err

    def test_unknown_flag_is_usage_error(self, space_file):
        with pytest.raises(SystemExit) as exc:
            dispatch(["validate-space", str(space_file), "--nope"])
        assert exc.value.code == 2

    def test_missing_file(self):
        assert dispatch(["validate-space", "/does/not/exist.json", "--s", "3"]) == 2

    def test_identity_map_fails_check(self):
        assert dispatch(["check", "--fixture", "example-3.4", "--variant", "typeF",
                         "--map", "identity", "--grid", "8"]) == 1

    def test_non_convergence_exit_one(self):
        assert dispatch(["iterate", "--domain", "interval:0,10", "--map", "x+1",
                         "--x0", "0", "--max-iter", "5"]) == 1


class TestReports:
    def test_validate_json_manifest(self, space_file, capsys):
        code, out = run_json(capsys, ["validate-space", str(space_file), "--s", "3"])
        assert code == 0
        assert out["manifest"]["command"] == "validate-space"
        assert out["manifest"]["inputs"]["s"] == 3.0
        assert "version" in out["manifest"]
        assert out["report"]["holds"] is True

    def test_classify_reports_paper_witnesses(self, space_file, capsys):
        code, out = run_json(capsys, ["classify", str(space_file)])
        assert code == 0
        tri = out["report"]["triangle_witnesses"][0]
        assert [tri["x"], tri["z"], tri["y"]] == ["0", "1/3", "1/4"]
        quad = out["report"]["quadrilateral_witnesses"][0]
        assert [quad["x"], quad["u"], quad["v"], quad["y"]] == ["1/2", "0", "1/3", "1/4"]

    def test_min_s_brute_force_value(self, space_file, capsys):
        code, out = run_json(capsys, ["min-s", str(space_file)])
        assert code == 0
        assert out["report"]["minimal_s"] == pytest.approx(25 / 24, abs=1e-12)

    @pytest.mark.parametrize("argv, code", [(["validate-space", "--s", "1"], 1),
                                            (["classify"], 0), (["min-s"], 0)],
                             ids=["validate-space", "classify", "min-s"])
    def test_table_command_makes_one_kernel_pass(self, argv, code, space_file, monkeypatch):
        from contractum import spaces
        kernel = spaces._pair_denominator_minima
        calls = []
        monkeypatch.setattr(spaces, "_pair_denominator_minima",
                            lambda D: calls.append(D.shape) or kernel(D))
        assert dispatch([argv[0], str(space_file), *argv[1:]]) == code
        assert calls == [(4, 4)]

    def test_check_summary_shape(self, capsys):
        code, out = run_json(capsys, ["check", "--fixture", "example-3.4",
                                      "--variant", "typeF", "--grid", "8"])
        assert code == 0
        report = out["report"]
        assert report["passed"] is True
        assert report["total"] == report["holds"] + report["vacuous"] + report["violated"]

    def test_check_space_file_with_value_map(self, space_file, capsys):
        # identity expression lifted to the label world of a table
        code, out = run_json(capsys, ["check", "--space", str(space_file),
                                      "--map", "x", "--variant", "typeF",
                                      "--s", "3", "--F", "ln_plus_sqrt",
                                      "--phi", "inv_1p"])
        assert code == 1  # identity is never a contraction here
        assert out["report"]["violated"] == out["report"]["total"]

    def test_check_beta_variant(self, capsys):
        code, out = run_json(capsys, ["check", "--fixture", "example-3.4",
                                      "--variant", "beta", "--grid", "8",
                                      "--betas", "0.25,0.25,0.25,0.25"])
        assert code in (0, 1)
        assert out["report"]["total"] > 0

    def test_iterate_space_file(self, space_file, capsys):
        code, out = run_json(capsys, ["iterate", "--space", str(space_file),
                                      "--map", "x", "--x0", "1/2",
                                      "--max-iter", "4"])
        assert code == 0
        assert out["report"]["point"] == "1/2"

    def test_check_sampled_deterministic(self, capsys):
        argv = ["check", "--fixture", "example-3.10", "--variant", "typeIm",
                "--sample", "300", "--seed", "9"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        assert a["report"] == b["report"]

    def test_iterate_fixture_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, out = run_json(capsys, ["iterate", "--fixture", "example-3.4",
                                      "--x0", "2", "--trace", str(trace)])
        assert code == 0
        assert out["report"]["status"] == "converged"
        assert out["report"]["diagnostics"]["gap1_strictly_decreasing"] is True
        header = trace.read_text().splitlines()[0]
        assert header == "n,x_n,gap1,gap2,log_scaled1,log_scaled2"

    def test_solve_integral_expression_kernel(self, tmp_path, capsys):
        out_csv = tmp_path / "solution.csv"
        code, out = run_json(capsys, [
            "solve-integral", "--a", "0", "--b", "1",
            "--lambda", "0.049787068367863944", "--s", "3",
            "--kernel", "exp(-1) * 3^(-5) * sin(x)", "--m", "33",
            "--x0", "0.5", "--out", str(out_csv)])
        assert code == 0
        assert out["report"]["result"]["status"] == "converged"
        assert out["report"]["refined_residual"] <= 1e-6
        assert out_csv.read_text().startswith("t,x")

    def test_solve_integral_bad_kernel_expression(self, capsys):
        code = dispatch(["solve-integral", "--a", "0", "--b", "1",
                         "--lambda", "0.01", "--s", "3",
                         "--kernel", "wat(x)", "--m", "9"])
        assert code == 2

    def test_examples_list(self, capsys):
        code, out = run_json(capsys, ["examples", "list"])
        assert code == 0
        assert "example-3.4" in out["report"]["fixtures"]
        assert "integral-sin" in out["report"]["fixtures"]

    def test_examples_run_unknown(self):
        assert dispatch(["examples", "run", "example-9.9"]) == 2

    def test_examples_run_requires_name(self):
        assert dispatch(["examples", "run"]) == 2

    def test_check_fixture_without_map_or_pair(self):
        # example-2.2 ships no self-map or auxiliary pair
        assert dispatch(["check", "--fixture", "example-2.2",
                         "--variant", "typeF"]) == 2

    def test_bad_domain_format(self):
        assert dispatch(["iterate", "--domain", "circle:0,1", "--map", "x",
                         "--x0", "0"]) == 2

    def test_expression_runtime_error_is_input_error(self):
        # kernel evaluates ln of a negative number at sampled points
        assert dispatch(["solve-integral", "--a", "0", "--b", "1",
                         "--lambda", "0.01", "--s", "3",
                         "--kernel", "ln(x - 10)", "--m", "9",
                         "--x0", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["iterate", "--domain", "interval:-1,1", "--map", "x^0.5", "--x0", "-0.5"],
        ["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.1", "--s", "3",
         "--kernel", "x^0.5 - 1", "--m", "9", "--x0", "-0.5"],
    ])
    def test_fractional_power_of_negative_base_is_input_error(self, argv, capsys):
        # Python makes (-0.5)^0.5 complex; it must not escape as a traceback
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "x=-0.5" in err and "complex" in err

    @pytest.mark.parametrize("command", ["validate-space", "classify"])
    def test_non_finite_distance_is_malformed(self, command, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"points": ["a", "b", "c", "d", "e"], "distances": '
                        '[[0, 1, 1, 1, Infinity], [1, 0, 1, 1, 1], [1, 1, 0, 1, 1], '
                        '[1, 1, 1, 0, 1], [Infinity, 1, 1, 1, 0]]}')
        argv = [command, str(path)] + (["--s", "1"] if command == "validate-space" else [])
        assert dispatch(argv) == 2
        assert "non-finite distance inf at ('a', 'e')" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["validate-space", "--s", "2"], ["classify"], ["min-s"]])
    def test_table_beyond_exhaustive_limit_is_input_error(self, argv, tmp_path, capsys):
        # points on a line, one more than MAX_EXHAUSTIVE_POINTS, as JSON
        # numbers (one array call to load)
        from contractum.spaces import MAX_EXHAUSTIVE_POINTS
        n = MAX_EXHAUSTIVE_POINTS + 1
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"points": [f"p{i}" for i in range(n)],
                                    "distances": [[abs(i - j) for j in range(n)]
                                                  for i in range(n)]}))
        assert dispatch([argv[0], str(path), *argv[1:]]) == 2
        assert (f"{n} points exceeds the exhaustive limit ({MAX_EXHAUSTIVE_POINTS})"
                in capsys.readouterr().err)

    def test_solve_integral_profile_start(self, capsys):
        code, out = run_json(capsys, [
            "solve-integral", "--a", "0", "--b", "1", "--lambda", "0.01", "--s", "3",
            "--kernel", "exp(-1) * 3^(-5) * sin(x)", "--m", "9", "--x0", "pi + t"])
        assert code == 0
        assert out["report"]["result"]["status"] == "converged"


    def test_classify_zero_distances_need_infinite_coefficient(self, tmp_path, capsys):
        # every distance 0 but d(a,e) = 1: the three-hop sum of (a, e) is 0
        # while d(a,e) > 0, so no finite coefficient makes the table rectangular
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({
            "points": ["a", "b", "c", "d", "e"],
            "distances": [[0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                          [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]}))
        code, out = run_json(capsys, ["classify", str(path)])
        report = out["report"]
        assert code == 0
        assert report["is_rectangular"] is False
        assert report["b_rectangular_s"] == "inf"
        assert report["b_metric_s"] == "inf"
        w = report["quadrilateral_witnesses"][0]
        assert (w["x"], w["u"], w["v"], w["y"], w["lhs"], w["rhs"]) == \
            ("a", "b", "c", "e", 1.0, 0.0)


class TestInputEdges:
    """Values argparse and the number parser used to trip on."""

    def test_negative_exponent_start_point(self, capsys):
        code, out = run_json(capsys, ["iterate", "--domain", "interval:-2,2",
                                      "--map", "x/2", "--x0", "-5.283647646425749e-05"])
        assert code == 0
        assert out["manifest"]["inputs"]["x0"] == "-5.283647646425749e-05"
        assert out["report"]["status"] == "converged"

    def test_negative_exponent_interval_end(self, capsys):
        code, out = run_json(capsys, [
            "solve-integral", "--a", "-1e-1", "--b", "1", "--lambda", "0.01", "--s", "3",
            "--kernel", "exp(-1) * 3^(-5) * sin(x)", "--m", "9", "--x0", "0.5"])
        assert code == 0
        assert out["manifest"]["inputs"]["a"] == -0.1
        assert out["report"]["grid"][0] == -0.1

    def test_overflowing_string_cell(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"points": ["a", "b"],
                                    "distances": [[0, "1e400"], ["1e400", 0]]}))
        assert dispatch(["classify", str(path)]) == 2
        assert "cannot parse distance entry '1e400'" in capsys.readouterr().err

    def test_overflowing_integer_cell(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        big = "1" + "0" * 400
        path.write_text('{"points": ["a", "b"], "distances": [[0, %s], [%s, 0]]}' % (big, big))
        assert dispatch(["classify", str(path)]) == 2
        assert f"cannot parse distance entry {big}" in capsys.readouterr().err

    def test_overflowing_interval_bound(self, capsys):
        assert dispatch(["iterate", "--domain", "interval:0,1e400", "--map", "x/2",
                         "--x0", "0.5"]) == 2
        assert "cannot parse interval bounds in 'interval:0,1e400'" in capsys.readouterr().err

    def test_integer_beyond_the_digit_limit_in_a_table(self, tmp_path, capsys):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        path = tmp_path / "huge.json"
        big = "1" + "0" * 4400
        path.write_text('{"points": ["a", "b"], "distances": [[0, %s], [%s, 0]]}' % (big, big))
        assert dispatch(["classify", str(path)]) == 2
        assert "cannot read JSON: Exceeds the limit" in capsys.readouterr().err

    def test_integer_beyond_the_digit_limit_in_a_config(self, space_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": 1%s}' % ("0" * 4400))
        assert dispatch(["--config", str(cfg), "classify", str(space_file)]) == 2
        assert "cannot read JSON: Exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["iterate", "--domain", "interval:0,1e10000000", "--map", "x/2", "--x0", "0.5"],
        ["iterate", "--domain", "interval:-1e-10000000,1", "--map", "x/2", "--x0", "1e10000000"],
    ])
    def test_huge_exponent_is_decided_at_once(self, argv, capsys):
        # float(Fraction("1e10000000")) builds 10**10000000 and takes seconds
        start = time.perf_counter()
        assert dispatch(argv) == 2
        assert time.perf_counter() - start < 0.5
        assert "1e10000000" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["validate-space", "--s", "1"], ["classify"], ["min-s"]])
    @pytest.mark.parametrize("tol", ["-1", "-1e-3", "nan"])
    def test_negative_or_nan_tolerance_is_input_error(self, argv, tol, space_file, capsys):
        assert dispatch([argv[0], str(space_file), *argv[1:], "--tol", tol]) == 2
        assert f"tolerance must be >= 0, got {float(tol)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["check", "--fixture", "example-3.4", "--variant", "typeF", "--s", "0.5"],
         "coefficient s must be >= 1, got 0.5"),
        # NaN used to pass the range checks and report every pair violated
        (["check", "--fixture", "example-3.4", "--variant", "typeF", "--s", "nan"],
         "coefficient s must be >= 1, got nan"),
        (["check", "--fixture", "example-3.4", "--variant", "beta",
          "--betas", "0.5,0.5,0.5,0.5"], "betas must sum to at most 1, got 2.0"),
        (["check", "--fixture", "example-3.4", "--variant", "beta",
          "--betas", "0.5,-0.5,0,0"], "betas must be four nonnegative reals"),
        (["check", "--fixture", "example-3.4", "--variant", "beta",
          "--betas", "nan,0,0,0"], "betas must be four nonnegative reals"),
        (["check", "--fixture", "example-3.4", "--variant", "beta",
          "--betas", "a,b,c,d"], "--betas needs four numbers, got 'a,b,c,d'"),
        (["check", "--fixture", "example-3.4", "--variant", "typeF",
          "--betas", "0.1,0.1,0.1,0.1"], "variant typeF does not take betas"),
        (["check", "--fixture", "example-3.4", "--variant", "typeF", "--tau", "0"],
         "tau must be positive, got 0.0"),
        # a zero sample count used to check the grid instead
        (["check", "--fixture", "example-3.4", "--variant", "typeF", "--sample", "0"],
         "sample count must be >= 1, got 0"),
        # and a zero kernel-check count used to skip the check
        (["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.1", "--s", "3",
          "--kernel", "sin(x)", "--m", "9", "--check-kernel", "0"],
         "sample count must be >= 1, got 0"),
        # IntegralProblem's checks printed a ValueError traceback and exited 1
        (["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.01", "--s", "1",
          "--kernel", "sin(x)"], "coefficient s must be > 1, got 1.0"),
        (["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.01", "--s", "3",
          "--kernel", "sin(x)", "--m", "1"], "grid size must be >= 2, got 1"),
        (["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.01", "--s", "3",
          "--kernel", "sin(x)", "--quadrature", "simpson", "--m", "64"],
         "composite Simpson needs an odd grid size, got 64"),
    ])
    def test_out_of_range_parameter_is_input_error(self, argv, message, capsys):
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        # numpy's default_rng raised ValueError out of dispatch: exit 1
        (["check", "--fixture", "example-3.4", "--variant", "typeF", "--sample", "10",
          "--seed", "-1"], "seed must be >= 0, got -1"),
        (["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.1", "--s", "3",
          "--kernel", "sin(x)", "--m", "9", "--check-kernel", "5", "--seed", "-3"],
         "seed must be >= 0, got -3"),
        # and numpy's linspace
        (["check", "--fixture", "example-3.4", "--variant", "typeF", "--grid", "-5"],
         "grid must be >= 0, got -5"),
        (["examples", "export", "example-3.4", "--grid", "-5"], "grid must be >= 0, got -5"),
    ])
    def test_negative_seed_or_grid_is_input_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "space.json"
        if argv[0] == "examples":
            argv = [*argv, "--out", str(out)]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("options, message", [
        (["--sample", "10", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["--sample", "0"], "sample count must be >= 1, got 0"),
    ])
    def test_validate_space_sample_options_are_input_errors(self, options, message,
                                                           space_file, capsys):
        assert dispatch(["validate-space", str(space_file), "--s", "3", *options]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("source", [
        ["--domain", "interval:0,1", "--map", "x/2", "--x0", "0.5"],
        ["--fixture", "example-3.4", "--x0", "2"],
    ])
    @pytest.mark.parametrize("s", ["0.5", "0", "nan"])
    def test_iterate_coefficient_below_one_is_rejected_before_the_orbit(
            self, source, s, monkeypatch, capsys):
        monkeypatch.setattr(cli, "iterate", lambda *args: pytest.fail("the orbit ran"))
        assert dispatch(["iterate", *source, "--s", s]) == 2
        assert capsys.readouterr().err == f"error: coefficient s must be >= 1, got {float(s)}\n"


class TestClosure:
    """A map must send its continuous domain (a fixture's finite values
    plus its interval, or an --domain interval) into itself."""

    @pytest.mark.parametrize("argv", [
        ["iterate", "--domain", "interval:0,1", "--map", "x/2+2", "--x0", "0.5"],
        ["iterate", "--fixture", "example-3.4", "--map", "x/4", "--x0", "1.5"],
        ["check", "--fixture", "example-3.4", "--map", "x/4", "--variant", "typeF",
         "--grid", "20"],
        ["check", "--fixture", "example-3.4", "--map", "x/4", "--variant", "typeF",
         "--sample", "200"],
    ])
    def test_image_outside_domain_is_closure_error(self, argv, capsys):
        assert dispatch(argv) == 2
        assert "outside the represented point set" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["iterate", "--domain", "interval:0,1", "--map", "x/2", "--x0", "2"],
        ["iterate", "--fixture", "example-3.4", "--x0", "3"],
    ])
    def test_start_outside_domain_is_input_error(self, argv, capsys):
        assert dispatch(argv) == 2
        assert "is not a point of the domain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["iterate", "--domain", "interval:0,1", "--map", "x/2", "--x0", "1"],
        ["iterate", "--fixture", "example-3.4", "--x0", "1/3"],
        ["iterate", "--fixture", "example-3.10", "--x0", "2.5"],
        ["check", "--fixture", "example-3.10", "--variant", "typeIm", "--sample", "200"],
    ])
    def test_maps_into_the_domain_pass(self, argv):
        assert dispatch(argv) == 0


class TestConfig:
    def test_config_supplies_required_flag(self, space_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 3.0}))
        assert dispatch(["--config", str(cfg),
                         "validate-space", str(space_file)]) == 0

    def test_cli_overrides_config(self, space_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 3.0}))
        code, out = run_json(capsys, ["--config", str(cfg), "validate-space",
                                      str(space_file), "--s", "1"])
        assert code == 1
        assert out["manifest"]["inputs"]["s"] == 1.0


class TestExamplesRunners:
    @pytest.mark.parametrize("name", ["example-2.2", "example-3.4",
                                      "example-3.10", "integral-sin"])
    def test_fixtures_reproduce(self, name, capsys):
        code, out = run_json(capsys, ["examples", "run", name])
        assert code == 0
