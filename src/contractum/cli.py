"""Command-line entry point.

Subcommands: validate-space, classify, min-s, check, iterate,
solve-integral, examples. Exit code 0 on pass/converged, 1 on
violation/non-convergence, 2 on malformed input or usage errors.

``--json`` switches stdout to a machine-readable report; every JSON
report carries a run manifest (command, resolved inputs, seed, version,
wall clock) sufficient to reproduce it. A JSON config file may supply
any flag (command-line values win).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .contractions import ContractionSpec, Variant, verify_over_finite, verify_over_sample
from .errors import ClosureError, ContractumError, MalformedSpaceError, ParameterError
from .expressions import compile_expression
from .families import AuxiliaryPair, resolve_F, resolve_phi
from .fixtures import (
    ALL_FIXTURE_NAMES,
    INTEGRAL_FIXTURES,
    MAP_REGISTRY,
    SPACE_FIXTURES,
    integral_sin_problem,
)
from .integral import IntegralProblem, refined_residual, solve, verify_kernel_condition
from .picard import IterationConfig, audit_trace, iterate, verify_uniqueness
from .spaces import (
    classify_space,
    load_space,
    minimal_coefficient,
    parse_label,
    read_json,
    validate_space,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2

_VARIANTS = {
    "typeF": Variant.TYPE_F,
    "typeIm": Variant.TYPE_IM,
    "kannan": Variant.KANNAN,
    "reich": Variant.REICH,
    "beta": Variant.BETA_COMBO,
}


def _manifest(args: argparse.Namespace, elapsed: float) -> dict:
    inputs = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "json", "config"):
            continue
        if isinstance(value, (str, int, float, bool, type(None), list, tuple)):
            inputs[key] = list(value) if isinstance(value, tuple) else value
    return {
        "command": args.command,
        "inputs": inputs,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_s": elapsed,
    }


def _sanitize(obj):
    """Make a report strictly JSON-serializable (inf/nan become strings)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


_LEAVES = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})
_DICT = frozenset({dict})


def _json_text(obj) -> str:
    """``json.dumps(_sanitize(obj), indent=2, allow_nan=False, default=str)``,
    the same text or the same error, in one pass and without a copy of obj.

    With ``indent``, json encodes in pure Python; without it, in C. So a
    dict or list whose keys are str and whose values are all of exact type
    str, int, float, bool or None, or a list of such dicts, goes to a C
    encoder whose item separator carries the newline and indentation of
    its depth, and only the bracket lines are added. Other dicts and lists
    recurse. A non-finite float
    becomes its repr, as _sanitize makes it. Anything else (a tuple, a
    subclass such as np.float64, a non-str key, an unknown object) goes to
    the reference call, re-indented to its depth.
    """
    out: list[str] = []
    encoders: list[json.JSONEncoder] = []  # one per depth, built once

    def encode(obj, level):
        """obj by the C encoder, items separated at depth level + 1; None
        for a non-finite float or an int too long for str."""
        while len(encoders) <= level:
            encoders.append(json.JSONEncoder(
                separators=(",\n" + "  " * (len(encoders) + 1), ": "), allow_nan=False))
        try:
            return encoders[level].encode(obj)
        except ValueError:
            return None

    def reference(obj, newline):
        text = json.dumps(_sanitize(obj), indent=2, allow_nan=False, default=str)
        out.append(text.replace("\n", newline))

    def emit(obj, level):
        kind = type(obj)
        if kind is str:
            out.append(encode_basestring_ascii(obj))
        elif kind is float:
            out.append(repr(obj) if math.isfinite(obj) else encode_basestring_ascii(repr(obj)))
        elif kind is bool:
            out.append("true" if obj else "false")
        elif kind is int:
            out.append(repr(obj))
        elif obj is None:
            out.append("null")
        elif kind is dict or kind is list:
            container(obj, kind is dict, level)
        else:
            reference(obj, "\n" + "  " * level)

    def container(obj, is_dict, level):
        close = "\n" + "  " * level
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        if is_dict and not _STR.issuperset(map(type, obj)):
            reference(obj, close)
            return
        inner = close + "  "
        if _LEAVES.issuperset(map(type, obj.values() if is_dict else obj)):
            text = encode(obj, level)
            if text is not None:
                out.extend((text[0], inner, text[1:-1], close, text[-1]))
                return
        elif not is_dict and _DICT.issuperset(map(type, obj)) and all(obj) and \
                _STR.issuperset(map(type, chain.from_iterable(obj))) and \
                _LEAVES.issuperset(map(type, chain.from_iterable(map(dict.values, obj)))):
            # a list of flat dicts, such as check's violations, in one call:
            # a "}" meets a separator only between two of the dicts, since
            # their values are leaves and no JSON string holds a newline
            text = encode(obj, level + 1)
            if text is not None:
                deeper = inner + "  "
                text = text[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
                out.extend(("[", inner, "{", deeper, text, inner, "}", close, "]"))
                return
        out.append("{" if is_dict else "[")
        separator = inner
        for item in (obj.items() if is_dict else obj):
            out.append(separator)
            separator = "," + inner
            if is_dict:
                out.append(encode_basestring_ascii(item[0]) + ": ")
                item = item[1]
            emit(item, level + 1)
        out.extend((close, "}" if is_dict else "]"))

    emit(obj, 0)
    return "".join(out)


def _emit(args, report: dict, lines: list[str], elapsed: float) -> None:
    if args.json:
        print(_json_text({"manifest": _manifest(args, elapsed), "report": report}))
    else:
        for line in lines:
            print(line)


def _parse_value(text: str) -> float:
    value = parse_label(text)
    if value is None:
        raise ContractumError(f"cannot parse numeric value {text!r}")
    return value


def _space_fixture(name: str):
    fixture = SPACE_FIXTURES.get(name)
    if fixture is None:
        raise ContractumError(f"unknown fixture {name!r}; "
                              f"choices: {', '.join(SPACE_FIXTURES)}")
    return fixture


def _resolve_map(spec: str):
    if spec in MAP_REGISTRY:
        return MAP_REGISTRY[spec]
    return compile_expression(spec, ("x",))


def _closed_map(T, contains):
    """T on a continuous domain given by its membership test: a point whose
    image leaves the domain raises ClosureError."""
    def closed(x):
        image = T(x)
        if not contains(image):
            raise ClosureError(x)
        return image
    return closed


def _start_point(args, contains) -> float:
    x0 = _parse_value(args.x0)
    if not contains(x0):
        raise ContractumError(f"--x0 {args.x0!r} is not a point of the domain")
    return x0


def _wrap_value_map_for_labels(space, value_map):
    """Lift a map on numeric values to the label world of a finite table."""
    values = space.values
    if any(v is None for v in values):
        raise MalformedSpaceError(
            "space labels are not numeric; a value map cannot be applied")
    by_value = {v: lbl for lbl, v in zip(space.points, values)}

    def T(label):
        image = float(value_map(parse_label(label)))
        target = by_value.get(image)
        if target is None:
            raise ClosureError(label)
        return target

    return T


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate_space(args) -> tuple[int, dict, list[str]]:
    space = load_space(args.file)
    report = validate_space(space, args.s, tol=args.tol,
                            sample=args.sample, seed=args.seed)
    lines = [
        f"points: {len(space.points)}",
        f"requested s: {args.s}",
        f"holds: {report.holds}",
        f"minimal s: {report.minimal_s}" + ("" if report.exhaustive else " (sampled lower bound)"),
    ]
    if report.vacuous:
        lines.append("note: fewer than 4 points, the quadrilateral inequality is vacuous")
    for pair in report.axiom1_failures:
        lines.append(f"axiom-1 failure: zero distance between {pair[0]} and {pair[1]}")
    if report.witness:
        w = report.witness
        lines.append(f"violation: ({w.x}, {w.u}, {w.v}, {w.y}) "
                     f"d(x,y)={w.lhs} > s*sum, sum={w.rhs}, ratio={w.ratio}")
    return (EXIT_PASS if report.holds else EXIT_VIOLATION), report.to_dict(), lines


def _cmd_classify(args) -> tuple[int, dict, list[str]]:
    space = load_space(args.file)
    flags = classify_space(space, tol=args.tol)
    lines = [
        f"is_metric: {flags.is_metric}",
        f"is_rectangular: {flags.is_rectangular}",
        f"b_metric_s: {flags.b_metric_s}",
        f"b_rectangular_s: {flags.b_rectangular_s}",
    ]
    for w in flags.triangle_witnesses:
        lines.append(f"triangle violation: ({w.x}, {w.z}, {w.y}) {w.lhs} > {w.rhs}")
    for w in flags.quadrilateral_witnesses:
        lines.append(f"quadrilateral violation: ({w.x}, {w.u}, {w.v}, {w.y}) "
                     f"{w.lhs} > {w.rhs}")
    return EXIT_PASS, flags.to_dict(), lines


def _cmd_min_s(args) -> tuple[int, dict, list[str]]:
    space = load_space(args.file)
    value = minimal_coefficient(space, tol=args.tol)
    report = validate_space(space, max(1.0, value), tol=args.tol)
    lines = [f"minimal s: {value}"]
    if report.extremal:
        w = report.extremal
        lines.append(f"achieved by ({w.x}, {w.u}, {w.v}, {w.y}): "
                     f"{w.lhs} / {w.rhs} = {w.ratio}")
    print_dict = {"minimal_s": value,
                  "extremal": report.extremal.to_dict() if report.extremal else None}
    return EXIT_PASS, print_dict, lines


def _build_check_spec(args, fixture) -> ContractionSpec:
    variant = _VARIANTS[args.variant]
    if (args.F is None) != (args.phi is None):
        raise ContractumError("--F and --phi must be given together")
    if args.F is None:
        if fixture is None or fixture.pair is None:
            raise ContractumError("--F and --phi are required without a fixture pair")
        pair = fixture.pair
    else:
        pair = AuxiliaryPair(F=resolve_F(args.F), phi=resolve_phi(args.phi))
    betas = None
    if args.betas:
        parts = [p for p in args.betas.split(",") if p.strip()]
        if len(parts) != 4:
            raise ContractumError(f"--betas needs four comma-separated values, got {args.betas!r}")
        try:
            betas = tuple(float(p) for p in parts)
        except ValueError:
            raise ContractumError(f"--betas needs four numbers, got {args.betas!r}") from None
    return ContractionSpec(variant=variant, s=args.s, pair=pair,
                           betas=betas, tau=args.tau)


def _fixture_map(args, fixture):
    if args.map:
        T = _resolve_map(args.map)
    elif fixture.map is None:
        raise ContractumError(f"fixture {fixture.name!r} has no map; pass --map")
    else:
        T = fixture.map
    return _closed_map(T, fixture.contains)


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    if args.space and args.fixture:
        raise ContractumError("pass either --space or --fixture, not both")
    fixture = _space_fixture(args.fixture) if args.fixture else None
    if args.s is None:
        args.s = fixture.s if fixture else 1.0
    spec = _build_check_spec(args, fixture)

    if args.sample is not None:
        if fixture is None:
            raise ContractumError("--sample needs --fixture (a continuous domain)")
        T = _fixture_map(args, fixture)
        summary = verify_over_sample(spec, fixture.sampler(), fixture.metric, T,
                                     n=args.sample, seed=args.seed,
                                     collect_all=args.verbose)
    elif fixture is not None:
        space = fixture.sampled_space(grid=args.grid)
        T = _fixture_map(args, fixture)
        summary = verify_over_finite(spec, space, T, collect_all=args.verbose)
    else:
        if not args.space:
            raise ContractumError("one of --space or --fixture is required")
        space = load_space(args.space)
        if not args.map:
            raise ContractumError("--map is required with --space")
        T = _wrap_value_map_for_labels(space, _resolve_map(args.map))
        summary = verify_over_finite(spec, space, T, collect_all=args.verbose)

    lines = [
        f"variant: {args.variant}  s: {args.s}",
        f"pairs: {summary.total}  holds: {summary.holds}  "
        f"vacuous: {summary.vacuous}  violated: {summary.violated}",
        f"pass: {summary.passed}",
    ]
    for v in summary.violations[:10]:
        lines.append(f"violated ({v.x}, {v.y}): margin {v.margin}")
    if len(summary.violations) > 10:
        lines.append(f"... and {len(summary.violations) - 10} more violations")
    return (EXIT_PASS if summary.passed else EXIT_VIOLATION), summary.to_dict(), lines


def _iterate_domain(args):
    """Resolve (metric, T, x0, default s) for the iterate subcommand."""
    sources = [bool(args.space), bool(args.domain), bool(args.fixture)]
    if sum(sources) != 1:
        raise ContractumError("exactly one of --space, --domain, --fixture is required")
    if args.fixture:
        fixture = _space_fixture(args.fixture)
        T = _fixture_map(args, fixture)
        return fixture.metric, T, _start_point(args, fixture.contains), fixture.s
    if args.domain:
        if not args.domain.startswith("interval:"):
            raise ContractumError(f"--domain must look like interval:a,b, got {args.domain!r}")
        bounds = [parse_label(p) for p in args.domain[len("interval:"):].split(",")]
        if len(bounds) != 2 or None in bounds:
            raise ContractumError(f"cannot parse interval bounds in {args.domain!r}")
        a, b = bounds
        if not a < b:
            raise ContractumError(f"interval needs a < b, got {a}, {b}")
        if not args.map:
            raise ContractumError("--map is required with --domain")
        contains = lambda x: a <= x <= b
        return ((lambda x, y: abs(x - y)), _closed_map(_resolve_map(args.map), contains),
                _start_point(args, contains), 1.0)
    space = load_space(args.space)
    if not args.map:
        raise ContractumError("--map is required with --space")
    T = _wrap_value_map_for_labels(space, _resolve_map(args.map))
    if args.x0 not in space.points:
        raise ContractumError(f"--x0 {args.x0!r} is not a point of the space")
    return space.distance, T, args.x0, 1.0


def _cmd_iterate(args) -> tuple[int, dict, list[str]]:
    metric, T, x0, s = _iterate_domain(args)
    if args.s is not None:
        s = args.s
    if not s >= 1:  # before the orbit runs: the audit and the trace's scaled gaps need it
        raise ParameterError(f"coefficient s must be >= 1, got {s}")
    config = IterationConfig(tol=args.tol, max_iter=args.max_iter)
    result = iterate(T, x0, metric, config)
    report = result.to_dict()
    lines = [
        f"status: {result.status.value}",
        f"point: {report['point']}",
        f"residual: {result.residual}",
        f"iterations: {result.iterations}",
    ]
    if len(result.trace.points) >= 3:
        diag = audit_trace(result.trace, s)
        report["diagnostics"] = diag.to_dict()
        lines.append(f"gap1 strictly decreasing: {diag.gap1_strictly_decreasing}")
        lines.append(f"scaled gaps trending to zero: {diag.scaled1_trending_zero}")
    if args.trace:
        result.trace.write_csv(args.trace, s=s)
        lines.append(f"trace written to {args.trace}")
    code = EXIT_PASS if result.converged else EXIT_VIOLATION
    return code, report, lines


def _cmd_solve_integral(args) -> tuple[int, dict, list[str]]:
    kernel = compile_expression(args.kernel, ("t", "r", "x"))
    problem = IntegralProblem(a=args.a, b=args.b, lam=args.lam,
                              kernel=kernel, s=args.s, m=args.m,
                              quadrature=args.quadrature)
    grid = problem.grid()
    x0 = parse_label(args.x0)
    if x0 is None:
        x0 = np.array(compile_expression(args.x0, ("t",))(grid))
    config = IterationConfig(tol=args.tol, max_iter=args.max_iter)
    solution = solve(problem, config, x0=x0)
    result = solution.result

    report = solution.to_dict()
    lines = [
        f"status: {result.status.value}",
        f"iterations: {result.iterations}  residual: {result.residual}",
        f"lambda bound exceeded: {solution.lambda_bound_exceeded}",
    ]
    if solution.lambda_bound_exceeded:
        lines.append("warning: |lambda| exceeds the contraction bound; "
                     "uniqueness is not guaranteed")
    if args.check_kernel is not None:
        kc = verify_kernel_condition(problem, n=args.check_kernel, seed=args.seed)
        report["kernel_condition"] = kc.to_dict()
        lines.append(f"kernel condition (advisory, {kc.checked} samples): "
                     f"{'pass' if kc.passed else f'{len(kc.violations)} violations'}")
    if result.converged:
        resid = refined_residual(problem, solution.values)
        report["refined_residual"] = resid
        lines.append(f"refined-quadrature residual: {resid}")
    if args.trace:
        result.trace.write_csv(args.trace, s=problem.s)
        lines.append(f"trace written to {args.trace}")
    values, grid = solution.values.tolist(), grid.tolist()
    if args.out:
        solution.write_csv(args.out)
        lines.append(f"solution written to {args.out}")
    else:
        lines.append("t,x")
        lines.extend(f"{t},{v}" for t, v in zip(grid, values))
    report["values"], report["grid"] = values, grid
    code = EXIT_PASS if result.converged else EXIT_VIOLATION
    return code, report, lines


# -- examples ---------------------------------------------------------------


def _run_example_2_2() -> tuple[bool, dict, list[str]]:
    fixture = SPACE_FIXTURES["example-2.2"]
    report = validate_space(fixture.space(grid=64), fixture.s)
    ok = report.holds
    return ok, {"validate": report.to_dict()}, [
        f"validate s={fixture.s} over finite part + 64-point sample: "
        f"{'holds' if ok else 'violated'} (minimal s {report.minimal_s})"]


def _run_example_3_4() -> tuple[bool, dict, list[str]]:
    fixture = SPACE_FIXTURES["example-3.4"]
    lines = []
    finite = fixture.space(grid=0)
    flags = classify_space(finite)
    lines.append(f"classify finite part: is_metric={flags.is_metric} "
                 f"is_rectangular={flags.is_rectangular}")
    # informational: the minimal coefficient this sample actually needs
    validation = validate_space(fixture.space(grid=32), fixture.s)
    lines.append(f"computed minimal coefficient on finite+32-grid: "
                 f"{validation.minimal_s}")
    spec = ContractionSpec(variant=fixture.variant, s=fixture.s, pair=fixture.pair)
    summary = verify_over_finite(spec, fixture.sampled_space(grid=32), fixture.map)
    lines.append(f"type-F inequality over finite+32-grid: pass={summary.passed} "
                 f"({summary.holds} hold, {summary.vacuous} vacuous)")
    uniq = verify_uniqueness(fixture.map, [2.0, 1.7, 0.25], fixture.metric,
                             IterationConfig(tol=1e-9))
    lines.append(f"iteration from three starts: agree={uniq.agree} "
                 f"(fixed point {fixture.fixed_point})")
    ok = bool(summary.passed and uniq.conclusive and uniq.agree
              and not flags.is_metric and not flags.is_rectangular)
    return ok, {"classify": flags.to_dict(), "validate": validation.to_dict(),
                "check": summary.to_dict(), "uniqueness": uniq.to_dict()}, lines


def _run_example_3_10() -> tuple[bool, dict, list[str]]:
    fixture = SPACE_FIXTURES["example-3.10"]
    spec = ContractionSpec(variant=fixture.variant, s=fixture.s, pair=fixture.pair)
    summary = verify_over_sample(spec, fixture.sampler(), fixture.metric,
                                 fixture.map, n=10_000, seed=0)
    result = iterate(fixture.map, 2.5, fixture.metric, IterationConfig(tol=1e-9))
    diag = audit_trace(result.trace, fixture.s)
    lines = [
        f"type-Im inequality over 10000 sampled pairs: pass={summary.passed}",
        f"iteration from 2.5: {result.status.value} at {result.point}",
        f"gap1 strictly decreasing: {diag.gap1_strictly_decreasing}",
    ]
    ok = bool(summary.passed and result.converged
              and abs(result.point - fixture.fixed_point) < 1e-4
              and diag.gap1_strictly_decreasing)
    return ok, {"check": summary.to_dict(), "iterate": result.to_dict(),
                "diagnostics": diag.to_dict()}, lines


def _run_integral_sin() -> tuple[bool, dict, list[str]]:
    problem = integral_sin_problem(m=65)
    config = IterationConfig(tol=1e-10)
    sol_a = solve(problem, config, x0=0.5)
    sol_b = solve(problem, config, x0=-1.0)
    kc = verify_kernel_condition(problem, n=1000, seed=0)
    agree = problem.metric(sol_a.values, sol_b.values) <= 10 * config.tol
    resid = refined_residual(problem, sol_a.values)
    lines = [
        f"kernel condition (advisory): pass={kc.passed}",
        f"solve from 0.5: {sol_a.result.status.value} in {sol_a.result.iterations} iterations",
        f"solve from -1.0: {sol_b.result.status.value}",
        f"two-start agreement within 10*tol: {agree}",
        f"refined-quadrature residual: {resid}",
    ]
    ok = bool(kc.passed and sol_a.result.converged and sol_b.result.converged
              and agree and resid <= 1e-6)
    return ok, {"kernel_condition": kc.to_dict(), "solve_a": sol_a.to_dict(),
                "solve_b": sol_b.to_dict(), "refined_residual": resid,
                "two_start_agreement": agree}, lines


_EXAMPLE_RUNNERS = {
    "example-2.2": _run_example_2_2,
    "example-3.4": _run_example_3_4,
    "example-3.10": _run_example_3_10,
    "integral-sin": _run_integral_sin,
}


def _cmd_examples(args) -> tuple[int, dict, list[str]]:
    if args.action == "list":
        lines = []
        for name, fixture in SPACE_FIXTURES.items():
            lines.append(f"{name}: {fixture.description}")
        for name in INTEGRAL_FIXTURES:
            lines.append(f"{name}: sine-kernel Fredholm instance on [0, 1], s = 3")
        return EXIT_PASS, {"fixtures": list(ALL_FIXTURE_NAMES)}, lines
    if args.action == "run":
        runner = _EXAMPLE_RUNNERS.get(args.name)
        if runner is None:
            raise ContractumError(f"unknown fixture {args.name!r}; "
                                  f"choices: {', '.join(_EXAMPLE_RUNNERS)}")
        ok, report, lines = runner()
        lines.append(f"overall: {'pass' if ok else 'FAIL'}")
        return (EXIT_PASS if ok else EXIT_VIOLATION), report, lines
    # export
    fixture = SPACE_FIXTURES.get(args.name)
    if fixture is None:
        raise ContractumError(
            f"only space fixtures can be exported; choices: {', '.join(SPACE_FIXTURES)}")
    space = fixture.space(grid=args.grid)
    space.save_json(args.out)
    return EXIT_PASS, {"written": str(args.out), "points": len(space.points)}, \
        [f"wrote {len(space.points)}-point table to {args.out}"]


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractum",
        description="Generalized metric space validation, contraction checking, "
                    "Picard iteration, and Fredholm integral equations.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON report on stdout")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file supplying default values for any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-space", help="check the b-rectangular axioms of a table")
    p.add_argument("file")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--sample", type=int, default=None,
                   help="check this many random quadruples instead of all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate_space)

    p = sub.add_parser("classify", help="metric / rectangular taxonomy of a table")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("min-s", help="minimal admissible coefficient by brute force")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_min_s)

    p = sub.add_parser("check", help="verify a contraction inequality for a self-map")
    p.add_argument("--space", type=str, default=None, help="space file (JSON or CSV)")
    p.add_argument("--fixture", type=str, default=None, help="built-in fixture name")
    p.add_argument("--grid", type=int, default=32,
                   help="interval sample size when using a fixture")
    p.add_argument("--map", type=str, default=None, help="map name or expression in x")
    p.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--F", type=str, default=None, help="F name or expression in t")
    p.add_argument("--phi", type=str, default=None, help="phi name or expression in t")
    p.add_argument("--betas", type=str, default=None, help="four comma-separated weights")
    p.add_argument("--tau", type=float, default=None, help="constant perturbation")
    p.add_argument("--sample", type=int, default=None,
                   help="check this many random pairs of the continuous domain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true", help="include per-pair verdicts")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("iterate", help="run Picard iteration to a fixed point")
    p.add_argument("--space", type=str, default=None)
    p.add_argument("--domain", type=str, default=None, help="interval:a,b")
    p.add_argument("--fixture", type=str, default=None)
    p.add_argument("--map", type=str, default=None)
    p.add_argument("--x0", type=str, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--s", type=float, default=None,
                   help="coefficient for scaled trace columns (fixture default)")
    p.add_argument("--trace", type=str, default=None, help="write trace CSV here")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("solve-integral", help="solve x = lambda * integral K(t, r, x(r)) dr")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--kernel", type=str, required=True, help="expression in t, r, x")
    p.add_argument("--m", type=int, default=65)
    p.add_argument("--x0", type=str, default="0",
                   help="constant or expression in t for the starting function")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--quadrature", choices=["trapezoid", "simpson"], default="trapezoid")
    p.add_argument("--check-kernel", type=int, default=None,
                   help="sample the kernel condition this many times")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=str, default=None)
    p.add_argument("--out", type=str, default=None, help="solution CSV path")
    p.set_defaults(func=_cmd_solve_integral)

    p = sub.add_parser("examples", help="list, run, or export the built-in fixtures")
    p.add_argument("action", choices=["list", "run", "export"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", type=str, default="space.json")
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=_cmd_examples)

    # argparse up to Python 3.13.0 takes only -N and -N.N for negative
    # numbers, so an option value such as -5e-05 reads as an unknown flag.
    # No option here starts with "-" and a digit, so what does is a value.
    negative_number = re.compile(r"-\.?\d")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = negative_number
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return  # argparse will report the missing value
    config = read_json(Path(argv[idx + 1]).read_text(), ContractumError)
    if not isinstance(config, dict):
        raise ContractumError("config file must hold a JSON object of flag values")
    defaults = {k.replace("-", "_"): v for k, v in config.items()}
    parser.set_defaults(**{k: v for k, v in defaults.items()
                           if any(a.dest == k for a in parser._actions)})
    # subparsers parse into a fresh namespace, so defaults go on their own
    # actions; a value from the config also satisfies a required flag
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                known = {a.dest for a in sub._actions}
                sub.set_defaults(**{k: v for k, v in defaults.items() if k in known})
                for sub_action in sub._actions:
                    if sub_action.dest in defaults:
                        sub_action.required = False


def dispatch(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        if args.command == "examples" and args.action in ("run", "export") and not args.name:
            raise ContractumError(f"examples {args.action} needs a fixture name")
        start = time.perf_counter()
        code, report, lines = args.func(args)
        _emit(args, report, lines, elapsed=time.perf_counter() - start)
        return code
    except ContractumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
