"""The CLI parser: built once per process for argv without --config, a
parser of its own for each --config run, every --config spelling, and
config values checked as command-line values are."""

import json
import os
import re
import subprocess
import sys

import pytest

from contractum import cli
from contractum.cli import dispatch

HALVE = ["iterate", "--domain", "interval:0,1", "--map", "x/2", "--x0", "0.5"]
INTEGRAL = ["solve-integral", "--a", "0", "--b", "1", "--lambda", "0.01", "--s", "3",
            "--kernel", "sin(x)", "--m", "9"]
CHECK = ["check", "--fixture", "example-3.4", "--variant", "typeF", "--grid", "8"]


def run(capsys, argv):
    """(exit code, stdout, stderr) of one dispatch; an argparse error or
    --help gives the code of its SystemExit."""
    try:
        code = dispatch(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def report(capsys, argv):
    code, out, err = run(capsys, ["--json", *argv])
    assert code in (0, 1), err
    return json.loads(out)


@pytest.fixture
def config(tmp_path):
    """Write a dict as a JSON config file and return its path."""
    def write(values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        return str(path)
    return write


SPELLINGS = {
    "separate": lambda path: ["--config", path],
    "equals": lambda path: [f"--config={path}"],
    "prefix": lambda path: ["--conf", path],
    "prefix-equals": lambda path: [f"--c={path}"],
}


class TestConfigSpellings:
    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_every_spelling_applies_the_config(self, spelling, config, capsys):
        # --config=PATH and prefixes used to drop the config: 28 iterations
        argv = [*SPELLINGS[spelling](config({"tol": 0.01})), *HALVE]
        assert report(capsys, argv)["report"]["iterations"] == 5

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_every_spelling_satisfies_a_required_flag(self, spelling, config, capsys):
        argv = [*SPELLINGS[spelling](config({"x0": "0.5", "tol": 0.01})), *HALVE[:-2]]
        assert report(capsys, argv)["report"]["iterations"] == 5

    def test_missing_config_value_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, ["--config"])
        assert code == 2
        assert "argument --config: expected one argument" in err


class TestConfigKeys:
    def test_keys_are_flag_names(self, config, capsys):
        # --lambda stores into lam; "lambda" used to be ignored
        path = config({"lambda": 0.01, "s": 3, "a": 0, "b": 1})
        out = report(capsys, ["--config", path, "solve-integral", "--kernel", "sin(x)",
                              "--m", "9"])
        assert out["report"]["result"]["status"] == "converged"
        assert out["manifest"]["inputs"]["lam"] == 0.01

    @pytest.mark.parametrize("key", ["max-iter", "max_iter"])
    def test_flag_name_and_dest_both_work(self, key, config, capsys):
        out = report(capsys, ["--config", config({key: 3}), *HALVE])
        assert out["report"]["iterations"] == 3
        assert out["manifest"]["inputs"]["max_iter"] == 3

    def test_dest_lam_still_works(self, config, capsys):
        path = config({"lam": 0.01})
        out = report(capsys, ["--config", path, *INTEGRAL[:5], *INTEGRAL[7:]])
        assert out["manifest"]["inputs"]["lam"] == 0.01

    def test_key_of_another_command_is_accepted(self, config, capsys):
        path = config({"kernel": "sin(x)", "tol": 0.01})
        assert report(capsys, ["--config", path, *HALVE])["report"]["iterations"] == 5

    # command (the subcommand's dest) and config used to be accepted: the
    # first then failed as a missing command, the second was ignored
    @pytest.mark.parametrize("key", ["tolerance", "func", "help", "--tol", "command", "config"])
    def test_unknown_key_is_input_error(self, key, config, capsys):
        code, out, err = run(capsys, ["--config", config({"tol": 0.01, key: 1}), *HALVE])
        assert (code, out) == (2, "")
        assert err == f"error: config key {key!r} names no flag of any command\n"


class TestConfigValues:
    @pytest.mark.parametrize("values, argv, message", [
        ({"variant": "bogus"}, CHECK[:3], 'config key \'variant\' has an invalid value "bogus" '
         '(choose from "beta", "kannan", "reich", "typeF", "typeIm")'),
        ({"quadrature": "bogus"}, INTEGRAL, 'config key \'quadrature\' has an invalid value '
         '"bogus" (choose from "trapezoid", "simpson")'),
        ({"tol": [1]}, HALVE, "config key 'tol' has an invalid value [1]"),
        ({"tol": None}, HALVE, "config key 'tol' has an invalid value null"),
        ({"tol": "small"}, HALVE, 'config key \'tol\' has an invalid value "small"'),
        ({"grid": 2.5}, CHECK, "config key 'grid' has an invalid value 2.5"),
        ({"max-iter": 1e3}, HALVE, "config key 'max-iter' has an invalid value 1000.0"),
        ({"s": True}, CHECK, "config key 's' has an invalid value true"),
        ({"verbose": 1}, CHECK, "config key 'verbose' has an invalid value 1"),
        ({"json": "yes"}, HALVE, 'config key \'json\' has an invalid value "yes"'),
    ])
    def test_bad_value_is_input_error(self, values, argv, message, config, capsys):
        # each used to raise out of dispatch (exit 1) or, for s, run at s = 1
        code, out, err = run(capsys, ["--config", config(values), *argv])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("values, flags", [
        ({"tol": 0.01, "max-iter": 100, "s": 2, "x0": "0.5"},
         ["--tol", "0.01", "--max-iter", "100", "--s", "2", "--x0", "0.5"]),
        ({"tol": "0.01", "max_iter": "100", "s": "2", "x0": 0.25},
         ["--tol", "0.01", "--max-iter", "100", "--s", "2", "--x0", "0.25"]),
    ])
    def test_value_reads_as_the_flag_would(self, values, flags, config, capsys):
        def unclocked(argv):
            code, out, err = run(capsys, ["--json", *argv])
            return code, re.sub(r'"wall_clock_s": [^,}]*', "", out), err

        flagged = unclocked([*HALVE[:-2], *flags])
        assert flagged[0] == 0
        assert unclocked(["--config", config(values), *HALVE[:-2]]) == flagged

    def test_choice_and_switch_values(self, config, capsys):
        path = config({"variant": "kannan", "verbose": True})
        out = report(capsys, ["--config", path, *CHECK[:3], "--grid", "8"])
        assert out["manifest"]["inputs"]["variant"] == "kannan"
        assert "verdicts" in out["report"]


class TestRepeatedConfig:
    def test_second_path_is_input_error(self, tmp_path, capsys):
        # it used to apply the first file and ignore the second
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text('{"tol": 0.01}')
        second.write_text('{"tol": 0.1}')
        for argv in (["--config", str(first), "--config", str(second)],
                     [f"--config={first}", "--conf", str(second)]):
            code, out, err = run(capsys, [*argv, *HALVE])
            assert (code, out) == (2, "")
            assert err == f"error: --config given twice: {str(first)!r}, {str(second)!r}\n"

    def test_same_path_twice_applies_it(self, config, capsys):
        path = config({"tol": 0.01})
        argv = ["--config", path, f"--config={path}", *HALVE]
        assert report(capsys, argv)["report"]["iterations"] == 5


class TestParserReuse:
    def test_dispatches_without_config_build_the_parser_once(self, monkeypatch, space_file,
                                                             capsys):
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda *a: builds.append(a) or build(*a))
        cli._shared_parser.cache_clear()
        argvs = [
            (["validate-space", str(space_file), "--s", "3"], 0),
            (["classify", str(space_file)], 0),
            (["min-s", str(space_file)], 0),
            (["check", "--fixture", "example-3.4", "--variant", "typeF", "--grid", "8"], 0),
            (HALVE, 0),
            (["iterate", "--domain", "interval:-1,1", "--map", "x/2", "--x0", "-5e-05"], 0),
            (INTEGRAL, 0),
            (["examples", "list"], 0),
            (HALVE[:-2], 2),  # argparse: --x0 is required
        ]
        assert [run(capsys, argv)[0] for argv, _ in argvs] == [code for _, code in argvs]
        assert builds == [()]

    @pytest.mark.parametrize("config_first", [True, False])
    def test_config_does_not_reach_a_later_run(self, config_first, config, capsys):
        path = config({"x0": "0.5", "tol": 0.01})
        if config_first:
            cli._shared_parser.cache_clear()
        else:
            assert report(capsys, HALVE)["report"]["iterations"] == 28
        assert report(capsys, ["--config", path, *HALVE[:-2]])["report"]["iterations"] == 5
        out = report(capsys, HALVE)
        assert out["report"]["iterations"] == 28
        assert out["manifest"]["inputs"]["tol"] == 1e-9
        code, _, err = run(capsys, HALVE[:-2])
        assert code == 2
        assert "the following arguments are required: --x0" in err

    def test_mixed_sequence_matches_fresh_parsers(self, space_file, config, capsys):
        path = config({"s": 3.0, "x0": "0.5", "tol": 0.01})
        space = str(space_file)
        argvs = [
            ["classify", space],
            ["--config", path, "validate-space", space],
            ["validate-space", space],  # usage: --s is required again
            HALVE,
            [f"--config={path}", *HALVE[:-2]],
            ["iterate", "--domain", "interval:-1,1", "--map", "x/2", "--x0", "-5e-05"],
            ["--conf", path, "check", "--fixture", "example-3.4"],  # usage: --variant
            ["check", "--fixture", "example-3.4", "--variant", "nope"],
            ["nope"],
            [],
            ["--json", "examples", "list"],
            ["--json", "--config", path, *HALVE],
            [*INTEGRAL[:-3], "--s", "1"],  # ParameterError, exit 2
            ["iterate", "--domain", "interval:0,10", "--map", "x+1", "--x0", "0",
             "--max-iter", "5"],
            ["iterate", "--help"],
            ["--config", path, "--help"],
        ]
        def unclocked(argv):
            code, out, err = run(capsys, argv)
            return code, re.sub(r'"wall_clock_s": [^,}]*', "", out), err

        shared = [unclocked(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli._shared_parser.cache_clear()
            fresh.append(unclocked(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 2, 2, 2, 2, 0, 0, 2, 1,
                                                   0, 0]


def _python(*argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120, env=env, **kwargs)


class TestEntryPoint:
    def test_module_main(self, config):
        listed = _python("-m", "contractum.cli", "--json", "examples", "list")
        assert listed.returncode == 0, listed.stderr
        assert "example-2.2" in json.loads(listed.stdout)["report"]["fixtures"]

        usage = _python("-m", "contractum.cli", *HALVE[:-2])
        assert usage.returncode == 2
        assert "the following arguments are required: --x0" in usage.stderr

        configured = _python("-m", "contractum.cli", "--json",
                             f"--config={config({'x0': '0.5', 'tol': 0.01})}", *HALVE[:-2])
        assert configured.returncode == 0, configured.stderr
        assert json.loads(configured.stdout)["report"]["iterations"] == 5

    def test_parser_is_built_on_first_dispatch_not_at_import(self):
        code = ("import contractum.cli as cli\n"
                "built = cli._shared_parser.cache_info().currsize\n"
                "cli.dispatch(['examples', 'list'])\n"
                "print(built, cli._shared_parser.cache_info().currsize)\n")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 1"
