"""Seeded job lists for the four workloads.

A job is one ``contractum`` command line plus the check of its answer.
The generator writes every input file the commands read (distance tables
as full JSON, half JSON with exact-rational strings, or CSV) into a work
directory and computes the expected answer with ``oracle``. The program
sees only those files and the argv.

Each workload is a fixed recipe of job classes, sized to take about 15 s
of job time at the commit that introduced the benchmark. ``scale``
multiplies the number of jobs of each class (at least one each), so a
run's mix is the same for every seed and only the random content differs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
FACTS = EXPECTED["fixture_facts"]

# (reason or None, fixed-point error or None)
Outcome = tuple[str | None, float | None]
Check = Callable[[int, dict | None], Outcome]


@dataclass
class Job:
    kind: str                 # the subcommand
    cls: str                  # job class within the workload recipe
    argv: list[str]
    check: Check
    files: list[Path] = field(default_factory=list)   # outputs to verify then remove


def _count(base: float, scale: float) -> int:
    return max(1, round(base * scale))


def _close(a, b, rel: float = 1e-12) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= rel * max(1.0, abs(b))


def _code(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


class Generator:
    def __init__(self, workdir: Path, seed: int, workload: str):
        self.dir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, workload))])
        self.files = 0

    def path(self, suffix: str) -> Path:
        self.files += 1
        return self.dir / f"in{self.files:05d}{suffix}"


# ---------------------------------------------------------------------------
# tables


def _labels(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def power_table(rng, n: int, p: float) -> np.ndarray:
    """|x_i - x_j|^p for random points on a line, as integer multiples of
    1e-4 so that the exact-rational form is the same table."""
    x = rng.uniform(0.0, 10.0, n)
    Q = np.maximum(np.rint(np.abs(x[:, None] - x[None, :]) ** p * 1e4), 1)
    np.fill_diagonal(Q, 0)
    return Q.astype(np.int64)


def write_table(path_base: Path, Q: np.ndarray, form: str) -> Path:
    n = len(Q)
    labels = _labels(n)
    D = Q / 1e4
    if form == "json":
        path = path_base.with_suffix(".json")
        path.write_text(json.dumps({"points": labels, "distances": D.tolist()}))
    elif form == "rational":
        path = path_base.with_suffix(".json")
        rows = [[f"{Q[i, j]}/10000" if j < i else "0" for j in range(i + 1)]
                for i in range(n)]
        path.write_text(json.dumps({"points": labels, "distances": rows}))
    else:
        path = path_base.with_suffix(".csv")
        lines = [",".join(labels)]
        lines += [",".join(repr(float(v)) for v in row) for row in D]
        path.write_text("\n".join(lines) + "\n")
    return path


class TableFacts:
    """Reference facts about one table, computed once for all its jobs."""

    def __init__(self, Q: np.ndarray):
        self.D = Q / 1e4
        self.n = len(Q)
        if self.n <= 30:
            bf = oracle.brute_force(self.D)
            self.max_ratio = bf["max_ratio"]
            self.extremal = bf["extremal"]
            self.quad = bf["quadrilateral"]
        else:
            denom = oracle.three_hop_minima(self.D)
            off = ~np.eye(self.n, dtype=bool)
            self.max_ratio = float((self.D[off] / denom[off]).max())
            self.extremal = None
            self.quad = oracle.first_quadrilateral_violations(self.D, denom)
        self.tri = oracle.triangle(self.D)

    def labels(self, q) -> list[str]:
        return [f"p{k}" for k in q]

    def witness_reason(self, w: dict | None, what: str) -> str | None:
        """The reported witness must be the extremal quadruple: by the
        brute-force oracle on small tables, by its ratio otherwise."""
        if w is None:
            return f"no {what}"
        names = [w["x"], w["u"], w["v"], w["y"]]
        if self.extremal is not None:
            if names != self.labels(self.extremal):
                return f"{what} {names}, oracle {self.labels(self.extremal)}"
            return None
        q = tuple(int(a[1:]) for a in names)
        if len(set(q)) != 4 or not _close(oracle.quadruple_ratio(self.D, q), self.max_ratio):
            return f"{what} {names} does not attain the maximal ratio"
        return None


def _check_validate(facts: TableFacts, s: float) -> Check:
    holds = facts.max_ratio <= s + oracle.TOL

    def check(code, out):
        bad = _code(code, 0 if holds else 1)
        if bad:
            return bad, None
        rep = out["report"]
        if not _close(rep["minimal_s"], max(1.0, facts.max_ratio)):
            return f"minimal_s {rep['minimal_s']}, oracle {facts.max_ratio}", None
        if rep["holds"] != holds:
            return "holds flag", None
        bad = facts.witness_reason(rep["extremal"], "extremal")
        if not bad and not holds and rep["witness"] != rep["extremal"]:
            bad = "witness differs from extremal"
        return bad, None
    return check


def _check_min_s(facts: TableFacts) -> Check:
    def check(code, out):
        bad = _code(code, 0)
        if bad:
            return bad, None
        rep = out["report"]
        if not _close(rep["minimal_s"], max(1.0, facts.max_ratio)):
            return f"minimal_s {rep['minimal_s']}, oracle {facts.max_ratio}", None
        return facts.witness_reason(rep["extremal"], "extremal"), None
    return check


def _check_classify(facts: TableFacts) -> Check:
    tri = [facts.labels(t) for t in facts.tri["witnesses"]]
    quad = [facts.labels(q) for q in facts.quad]

    def check(code, out):
        bad = _code(code, 0)
        if bad:
            return bad, None
        rep = out["report"]
        got_tri = [[w["x"], w["z"], w["y"]] for w in rep["triangle_witnesses"]]
        got_quad = [[w["x"], w["u"], w["v"], w["y"]] for w in rep["quadrilateral_witnesses"]]
        if got_tri != tri:
            return f"triangle witnesses {got_tri[:2]}..., oracle {tri[:2]}...", None
        if got_quad != quad:
            return f"quadrilateral witnesses {got_quad[:2]}..., oracle {quad[:2]}...", None
        if rep["is_metric"] != (not tri) or rep["is_rectangular"] != (not quad):
            return "metric / rectangular flags", None
        if not _close(rep["b_metric_s"], max(1.0, facts.tri["max_ratio"])):
            return f"b_metric_s {rep['b_metric_s']}", None
        if not _close(rep["b_rectangular_s"], max(1.0, facts.max_ratio)):
            return f"b_rectangular_s {rep['b_rectangular_s']}", None
        return None, None
    return check


def _check_sampled(D: np.ndarray, s: float, holds: bool) -> Check:
    def check(code, out):
        bad = _code(code, 0 if holds else 1)
        if bad:
            return bad, None
        rep = out["report"]
        if rep["exhaustive"]:
            return "sampled run reported exhaustive", None
        w = rep["extremal"]
        q = tuple(int(a[1:]) for a in (w["x"], w["u"], w["v"], w["y"]))
        ratio = oracle.quadruple_ratio(D, q)
        if len(set(q)) != 4 or not _close(ratio, rep["max_ratio"]):
            return "sampled extremal does not match its ratio", None
        if (ratio > s) == holds:
            return "sampled verdict contradicts its witness", None
        return None, None
    return check


def tables(gen: Generator, scale: float) -> list[Job]:
    """validate-space, classify and min-s on generated tables from
    n = 27 (oracle-checked) to n = 200, sampled validation at n = 400,
    malformed tables, and fixture export/run."""
    rng = gen.rng
    jobs: list[Job] = []
    forms = ("json", "rational", "csv")
    k = 0
    # n = 110 tables make the block the tail percentile falls in, so a
    # handful of n = 200 and n = 400 jobs sit above it. The n = 200 and
    # n = 400 tables are the same for every seed: classify's violation
    # count on the n = 200 table sets the run's peak memory.
    for n, base in ((27, 30), (50, 40), (110, 20), (200, 1)):
        cls = f"n{n}"
        for _ in range(_count(base, scale)):
            if n == 200:
                Q = power_table(np.random.default_rng(n), n, 1.75)
            else:
                Q = power_table(rng, n, float(rng.uniform(1.5, 2.0)))
            facts = TableFacts(Q)
            path = write_table(gen.path(""), Q, forms[k % 3])
            k += 1
            # half the validations hold, half return a witness
            s = round(max(1.0, facts.max_ratio * (1.1 if k % 2 else 0.9)), 6)
            jobs.append(Job("validate-space", f"validate {cls}",
                            ["--json", "validate-space", str(path), "--s", repr(s)],
                            _check_validate(facts, s)))
            jobs.append(Job("classify", f"classify {cls}",
                            ["--json", "classify", str(path)], _check_classify(facts)))
            jobs.append(Job("min-s", f"min-s {cls}",
                            ["--json", "min-s", str(path)], _check_min_s(facts)))
    for i in range(_count(2, scale)):
        Q = power_table(np.random.default_rng(400 + i), 400, 1.75)
        path = write_table(gen.path(""), Q, forms[i % 3])
        # 1D |x-y|^p tables have ratios below 3^(p-1) <= 3, and about one
        # random quadruple in ten breaks s = 1
        s, holds = (1.0, False) if i % 2 == 0 else (4.0, True)
        jobs.append(Job("validate-space", "validate-sample n400",
                        ["--json", "validate-space", str(path), "--s", repr(s),
                         "--sample", "20000", "--seed", str(int(rng.integers(1000)))],
                        _check_sampled(Q / 1e4, s, holds)))
    jobs += malformed_tables(gen, _count(3, scale))
    for k in range(_count(6, scale)):
        grid = (64, 96, 128)[k % 3]
        out = gen.path(".json")
        jobs.append(Job("examples", "examples export",
                        ["--json", "examples", "export", "example-2.2",
                         "--grid", str(grid), "--out", str(out)],
                        _check_export(out, grid + 6), files=[out]))
    for _ in range(_count(3, scale)):
        jobs.append(Job("examples", "examples run",
                        ["--json", "examples", "run", "example-2.2"], _check_example_run))
    return jobs


def _check_export(path: Path, points: int) -> Check:
    def check(code, out):
        bad = _code(code, 0)
        if bad:
            return bad, None
        if len(json.loads(path.read_text())["points"]) != points:
            return "exported table has the wrong size", None
        return None, None
    return check


def _check_example_run(code, out) -> Outcome:
    return _code(code, 0), None


def _check_malformed(code, out) -> Outcome:
    return _code(code, 2), None


def malformed_tables(gen: Generator, count: int) -> list[Job]:
    """Asymmetric, NaN and missing-cell tables: each must exit 2."""
    jobs = []
    for _ in range(count):
        n = 40
        Q = power_table(gen.rng, n, 1.5)
        i, j = (int(v) for v in gen.rng.choice(n, size=2, replace=False))
        D = (Q / 1e4).tolist()
        D[i][j] += 0.5
        asym = gen.path(".json")
        asym.write_text(json.dumps({"points": _labels(n), "distances": D}))
        nan = write_table(gen.path(""), Q, "csv")
        rows = nan.read_text().splitlines()
        cells = rows[1 + i].split(",")
        cells[j] = "nan"
        rows[1 + i] = ",".join(cells)
        nan.write_text("\n".join(rows) + "\n")
        lo, hi = min(i, j), max(i, j)
        half = [[f"{Q[a, b]}/10000" if b < a else "0" for b in range(a + 1)] for a in range(n)]
        half[hi][lo] = None
        missing = gen.path(".json")
        missing.write_text(json.dumps({"points": _labels(n), "distances": half}))
        for path in (asym, nan, missing):
            jobs.append(Job("classify", "malformed", ["--json", "classify", str(path)],
                            _check_malformed))
    return jobs


# ---------------------------------------------------------------------------
# contractions


def square_chain_values(rng, count: int) -> list[float]:
    """Numbers closed under x -> x^2: chains v, v^2, v^4, ... that end
    when the square underflows to 0.0, plus the fixed points 0 and 1."""
    vals = {0.0, 1.0}
    while len(vals) < count:
        v = float(rng.uniform(0.05, 0.95))
        while v not in vals:
            vals.add(v)
            v = v ** 2
    return sorted(vals)


def chain_table(gen: Generator, count: int) -> tuple[Path, list[float], np.ndarray]:
    vals = square_chain_values(gen.rng, count)
    v = np.array(vals)
    D = np.abs(v[:, None] - v[None, :]) + 0.01
    np.fill_diagonal(D, 0.0)
    path = gen.path(".json")
    path.write_text(json.dumps({"points": [repr(x) for x in vals], "distances": D.tolist()}))
    return path, vals, D


def _check_counts(ref: dict) -> Check:
    def check(code, out):
        bad = _code(code, 1 if ref["violated"] else 0)
        if bad:
            return bad, None
        rep = out["report"]
        for key in ("total", "holds", "vacuous", "violated"):
            if rep[key] != ref[key]:
                return f"{key} {rep[key]}, oracle {ref[key]}", None
        if len(rep["violations"]) != ref["violations"]:
            return "violation list length", None
        return None, None
    return check


# F/phi as the user passes them: the fixture's own pair, registry names,
# or expressions
PAIRS = [None, ("ln_plus_sqrt", "inv_1p"), ("ln(t)+sqrt(t)", "1/(1+t)"),
         ("x_plus_ln", "inv_2p"), ("t + ln(t)", "1/(3+t^2)")]
VARIANTS = ["typeF", "typeIm", "kannan", "reich", "beta"]


def _pair_args(pair, fixture: str | None) -> tuple[list[str], tuple[str, str]]:
    if pair is None:
        _, _, _, F, phi = oracle.FIXTURE_SHAPES[fixture]
        return [], (F, phi)
    return ["--F", pair[0], "--phi", pair[1]], pair


# beta-combo weights, one set per job in turn: the violation count, and
# with it the size of the report, depends on them
BETAS = [(0.4, 0.2, 0.2, 0.1), (0.1, 0.3, 0.3, 0.2), (0.25, 0.25, 0.25, 0.25)]


def _fixture_check(fixture: str, variant: str, pair, betas, x, y) -> tuple[list[str], dict]:
    """F/phi arguments and the oracle's counts for a check on a fixture,
    cross-checked against the paper's facts stored in expected.json."""
    args, (F, phi) = _pair_args(pair, fixture)
    ref = oracle.contraction_counts(
        variant, 3.0, oracle.F_FUNCTIONS[F], oracle.PHI_FUNCTIONS[phi], betas,
        x, y, oracle.fixture_map(fixture, x), oracle.fixture_map(fixture, y),
        oracle.fixture_metric)
    if pair is None and [fixture, variant] in FACTS["zero_violations"] and ref["violated"]:
        raise AssertionError(f"oracle finds violations for {fixture} {variant}")
    return args, ref


def contractions(gen: Generator, scale: float) -> list[Job]:
    """check on the fixtures: exhaustive grids of 100-300 points under all
    five variants, F/phi from registries and expressions, seeded samples
    of 2k-10k pairs, and label-world tables with an expression map."""
    rng = gen.rng
    jobs = []
    # Grid 300 runs each variant once; the stored kannan grid-200 case is
    # the block the tail percentile falls in; the rest are lighter.
    for cls, grid, base in (("grid100-125", None, 40), ("grid300", 300, 5)):
        for k in range(_count(base, scale)):
            fixture = ("example-3.4", "example-3.10")[k % 2]
            variant = VARIANTS[k % 5]
            pair = PAIRS[(k // 2) % len(PAIRS)]
            g = grid or (100, 125)[k % 2]
            betas = BETAS[k % len(BETAS)] if variant == "beta" else None
            x = oracle.fixture_grid(fixture, g)
            i, j = oracle.all_pairs(len(x))
            args, ref = _fixture_check(fixture, variant, pair, betas, x[i], x[j])
            if betas:
                args += ["--betas", ",".join(map(repr, betas))]
            jobs.append(Job("check", f"check {cls}",
                            ["--json", "check", "--fixture", fixture, "--variant", variant,
                             "--grid", str(g), "--s", "3.0"] + args,
                            _check_counts(ref)))
    for fact in FACTS["violated"]:
        x = oracle.fixture_grid(fact["fixture"], fact["grid"])
        i, j = oracle.all_pairs(len(x))
        _, ref = _fixture_check(fact["fixture"], fact["variant"], None, None, x[i], x[j])
        if ref["violated"] != fact["violated"]:
            raise AssertionError(f"oracle disagrees with the stored answer {fact}")
        for _ in range(_count(12, scale)):
            jobs.append(Job("check", "check stored",
                            ["--json", "check", "--fixture", fact["fixture"], "--variant",
                             fact["variant"], "--grid", str(fact["grid"])],
                            _check_counts(ref)))
    for k in range(_count(12, scale)):
        fixture = ("example-3.10", "example-3.4")[k % 2]
        variant = ("typeIm", "typeF", "reich")[k % 3]
        n = (2000, 4000, 8000)[k % 3]
        seed = int(rng.integers(10_000))
        x, y = oracle.fixture_sample(fixture, n, seed)
        _, ref = _fixture_check(fixture, variant, None, None, x, y)
        jobs.append(Job("check", "check sample",
                        ["--json", "check", "--fixture", fixture, "--variant", variant,
                         "--sample", str(n), "--seed", str(seed)],
                        _check_counts(ref)))
    for k in range(_count(6, scale)):
        path, vals, D = chain_table(gen, 60)
        index = {v: a for a, v in enumerate(vals)}
        img = np.array([index[v ** 2] for v in vals])
        variant = ("typeF", "kannan", "typeIm")[k % 3]
        pair = PAIRS[1 + k % 4]
        args, (F, phi) = _pair_args(pair, None)
        s = 1.0
        i, j = oracle.all_pairs(len(vals))
        ref = oracle.contraction_counts(
            variant, s, oracle.F_FUNCTIONS[F], oracle.PHI_FUNCTIONS[phi], None,
            i, j, img[i], img[j], lambda a, b: D[a, b])
        jobs.append(Job("check", "check space",
                        ["--json", "check", "--space", str(path), "--map", "x^2",
                         "--variant", variant, "--s", repr(s)] + args,
                        _check_counts(ref)))
    return jobs


# ---------------------------------------------------------------------------
# orbits


def _check_orbit(fixed: float, bound: float) -> Check:
    def check(code, out):
        bad = _code(code, 0)
        if bad:
            return bad, None
        rep = out["report"]
        if rep["status"] != "converged":
            return f"status {rep['status']}", None
        err = abs(float(rep["point"]) - fixed)
        if not err <= bound:
            return f"fixed point off by {err:.3g} (bound {bound:.3g})", err
        return None, err
    return check


def _check_status(code_want: int, status: str, iterations: int | None = None) -> Check:
    def check(code, out):
        bad = _code(code, code_want)
        if bad:
            return bad, None
        rep = out["report"]
        if rep["status"] != status:
            return f"status {rep['status']}, expected {status}", None
        if iterations is not None and rep["iterations"] != iterations:
            return f"iterations {rep['iterations']}, expected {iterations}", None
        return None, None
    return check


def _check_label_orbit(steps: int) -> Check:
    def check(code, out):
        bad = _code(code, 0)
        if bad:
            return bad, None
        rep = out["report"]
        if rep["point"] != "0.0" or rep["iterations"] != steps:
            return f"label orbit ended at {rep['point']} after {rep['iterations']}", None
        return None, 0.0
    return check


def _check_traced_orbit(inner: Check, path: Path) -> Check:
    def check(code, out):
        bad, err = inner(code, out)
        if bad:
            return bad, err
        rows = path.read_text().splitlines()
        if rows[0] != "n,x_n,gap1,gap2,log_scaled1,log_scaled2" or \
                len(rows) != out["report"]["iterations"] + 3:
            return "trace CSV shape", err
        return None, err
    return check


TOL = 1e-9   # the iterate command's default tolerance


def orbits(gen: Generator, scale: float) -> list[Job]:
    """iterate on affine and sine interval maps with contraction rates
    0.5-0.9999, fixture orbits, label orbits on finite tables, cycles,
    max-iter-exceeded maps, and trace CSV output."""
    rng = gen.rng
    jobs = []
    for q, base in ((0.5, 140), (0.9, 140), (0.99, 105), (0.999, 70), (0.9999, 18)):
        for k in range(_count(base, scale)):
            # the start is 0.3 from the fixed point, so the step count
            # depends on q alone
            target = float(rng.uniform(0.3, 0.7))
            c = (1 - q) * target
            x0 = target + float(rng.choice((-0.3, 0.3)))
            argv = ["--json", "iterate", "--domain", "interval:0,1",
                    "--map", f"{q!r}*x + {c!r}", "--x0", repr(x0)]
            check = _check_orbit(c / (1 - q), q / (1 - q) * TOL * (1 + 1e-6) + 1e-15)
            files = []
            if q == 0.99 and k % 3 == 0:
                trace = gen.path(".csv")
                argv += ["--trace", str(trace)]
                check = _check_traced_orbit(check, trace)
                files = [trace]
            jobs.append(Job("iterate", f"iterate q{q}", argv, check, files))
    for k in range(_count(105, scale)):
        a = (0.3, 0.6, 0.9)[k % 3] * float(rng.uniform(0.99, 1.01))
        c = float(rng.uniform(-1.0, 1.0))
        x0 = float(rng.uniform(-2.0, 2.0))
        fixed = oracle.iterate_scalar(lambda x: a * math.sin(x) + c, x0, tol=1e-15)
        jobs.append(Job("iterate", "iterate sine",
                        ["--json", "iterate", "--domain", "interval:-2,2",
                         "--map", f"{a!r}*sin(x) + {c!r}", "--x0", repr(x0)],
                        _check_orbit(fixed, a / (1 - a) * TOL * (1 + 1e-6) + 1e-15)))
    for k in range(_count(70, scale)):
        fixture = ("example-3.4", "example-3.10")[k % 2]
        _, (lo, hi), exponent, _, _ = oracle.FIXTURE_SHAPES[fixture]
        x0 = float(rng.uniform(lo, hi))
        # interval distance is (x - y)^2: the residual bounds |x - Tx| by sqrt(tol)
        bound = exponent / (1 - exponent) * math.sqrt(TOL) * (1 + 1e-6)
        jobs.append(Job("iterate", "iterate fixture",
                        ["--json", "iterate", "--fixture", fixture, "--x0", repr(x0)],
                        _check_orbit(FACTS["fixed_point"][fixture], bound)))
    for k in range(_count(35, scale)):
        path, vals, _ = chain_table(gen, 60)
        start = vals[int(rng.integers(1, len(vals) - 1))]
        steps, v = 0, start
        while v != 0.0:
            v, steps = v ** 2, steps + 1
        jobs.append(Job("iterate", "iterate space",
                        ["--json", "iterate", "--space", str(path), "--map", "x^2",
                         "--x0", repr(start)], _check_label_orbit(steps)))
    for _ in range(_count(35, scale)):
        x0 = float(rng.uniform(0.1, 1.0))
        jobs.append(Job("iterate", "iterate cycle",
                        ["--json", "iterate", "--domain", "interval:-1,1", "--map=-x",
                         "--x0", repr(x0)], _check_status(1, "cycle_detected", 2)))
    for _ in range(_count(35, scale)):
        # fixed point c / 1e-6 in [0, 0.5], far from the start 0.9
        c = float(rng.uniform(0.0, 0.5e-6))
        jobs.append(Job("iterate", "iterate max-iter",
                        ["--json", "iterate", "--domain", "interval:0,1",
                         "--map", f"0.999999*x + {c!r}", "--x0", "0.9", "--max-iter", "3000"],
                        _check_status(1, "max_iter_exceeded", 3000)))
    return jobs


# ---------------------------------------------------------------------------
# integral

# kernel text with a slot for the x-Lipschitz constant, and its mesh form
KERNELS = [
    ("{a}*sin(x)*cos(t-r) + t*r", lambda a: lambda T, R, X: a * np.sin(X) * np.cos(T - R) + T * R),
    ("{a}*sin(x) + t", lambda a: lambda T, R, X: a * np.sin(X) + T),
    ("{a}*cos(x + t*r) + r", lambda a: lambda T, R, X: a * np.cos(X + T * R) + R),
    ("{a}*x*exp(-(t-r)^2) + 0.5", lambda a: lambda T, R, X: a * X * np.exp(-(T - R) ** 2) + 0.5),
]
SIN_SCALE = math.exp(-1.0) * 3.0 ** (-5.0)


def _check_integral(ref: np.ndarray, bound: float, kernel, lam: float, rule: str,
                    kernel_checks: int | None) -> Check:
    def check(code, out):
        bad = _code(code, 0)
        if bad:
            return bad, None
        rep = out["report"]
        if rep["result"]["status"] != "converged":
            return "not converged", None
        if rep["lambda_bound_exceeded"] != (abs(lam) > math.exp(-3.0) + 1e-15):
            return "lambda_bound_exceeded flag", None
        values = np.array(rep["values"])
        err = oracle.sup_norm(values, ref)
        if not err <= bound:
            return f"solution off by {err:.3g} (bound {bound:.3g})", err
        resid = oracle.refined_residual(kernel, lam, 0.0, 1.0, values, rule)
        if not abs(rep["refined_residual"] - resid) <= 1e-9 + 1e-6 * resid:
            return f"refined residual {rep['refined_residual']}, oracle {resid}", err
        if kernel_checks is not None:
            kc = rep["kernel_condition"]
            # these kernels are far steeper than the condition allows
            if kc["checked"] != kernel_checks or kc["passed"]:
                return "kernel condition report", err
        return None, err
    return check


def integral(gen: Generator, scale: float) -> list[Job]:
    """solve-integral with expression kernels at contraction rates 0.3-0.9
    and lambda beyond the admissibility bound, trapezoid and Simpson on
    m = 33..257, kernel-condition sampling, and the sine-kernel instance."""
    rng = gen.rng
    jobs = []
    s, tol = 3.0, 1e-24
    # m = 33 cycles through every kernel and rate; each larger grid keeps
    # one kernel and rate, so its jobs take alike long
    for m, base, template in ((33, 28, None), (65, 11, (0, 0.6)), (129, 4, (1, 0.9)),
                              (257, 2, (0, 0.6))):
        for k in range(_count(base, scale)):
            which, rate = template or (k % len(KERNELS), (0.3, 0.5, 0.7, 0.9)[(k // 4 + k) % 4])
            text, mesh = KERNELS[which]
            a = round(rate * (1 + float(rng.uniform(-0.02, 0.02))), 4)
            rule = ("trapezoid", "simpson")[k % 2]
            x0 = round(float(rng.uniform(-1.0, 1.0)), 3)
            kernel = mesh(a)
            ref = oracle.nystrom_solve(kernel, 1.0, 0.0, 1.0, m, rule)
            # the last step is at most tol^(1/s) in sup-norm; rate a
            bound = a / (1 - a) * tol ** (1 / s) * (1 + 1e-6) + 1e-12
            argv = ["--json", "solve-integral", "--a", "0", "--b", "1", "--lambda", "1",
                    "--s", repr(s), "--kernel", text.format(a=a), "--m", str(m),
                    "--x0", repr(x0), "--tol", repr(tol), "--quadrature", rule]
            checks = None
            if k % 3 == 0:
                checks = int(rng.integers(200, 1001))
                argv += ["--check-kernel", str(checks), "--seed", str(k)]
            jobs.append(Job("solve-integral", f"solve m{m}", argv,
                            _check_integral(ref, bound, kernel, 1.0, rule, checks)))
    lam = math.exp(-3.0)
    sine = lambda T, R, X: SIN_SCALE * np.sin(X) + 0 * T
    # default tol 1e-10 on the cubed sup-norm, contraction rate lam * SIN_SCALE
    q = lam * SIN_SCALE
    sine_bound = q / (1 - q) * 1e-10 ** (1 / 3) * (1 + 1e-6) + 1e-15
    for k in range(_count(4, scale)):
        x0 = round(float(rng.uniform(-1.0, 1.0)), 3)
        ref = np.zeros(65)
        jobs.append(Job("solve-integral", "solve sine",
                        ["--json", "solve-integral", "--a", "0", "--b", "1",
                         "--lambda", repr(lam), "--s", "3",
                         "--kernel", "exp(-1) * 3^(-5) * sin(x)", "--m", "65",
                         "--x0", repr(x0), "--check-kernel", "1000"],
                        _check_integral(ref, sine_bound, sine, lam, "trapezoid", None)))
    for _ in range(_count(2, scale)):
        jobs.append(Job("examples", "examples run integral-sin",
                        ["--json", "examples", "run", "integral-sin"], _check_example_run))
    return jobs


WORKLOADS: dict[str, Callable[[Generator, float], list[Job]]] = {
    "tables": tables,
    "contractions": contractions,
    "orbits": orbits,
    "integral": integral,
}


# ---------------------------------------------------------------------------
# inputs that escape the error contract today (ROADMAP item 4): each must
# exit 2 and today raises ValueError out of dispatch instead


def known_defects(gen: Generator, workload: str) -> list[Job]:
    if workload == "tables":
        Q = power_table(gen.rng, 40, 1.5)
        path = write_table(gen.path(""), Q, "json")
        argvs = [["validate-space", str(path), "--s", "0.5"]]
    elif workload == "orbits":
        base = ["iterate", "--domain", "interval:0,1", "--map", "x/2", "--x0", "0.5"]
        argvs = [base + ["--tol", "0"], base + ["--max-iter", "0"]]
    elif workload == "integral":
        argvs = [["solve-integral", "--a", "1", "--b", "0", "--lambda", "1",
                  "--s", "3", "--kernel", "sin(x)"]]
    else:
        argvs = []
    return [Job(a[0], "item-4 probe", ["--json"] + a, _check_malformed) for a in argvs]


# ---------------------------------------------------------------------------
# one small job per job kind, run before timing


def warmups(gen: Generator, workload: str) -> list[Job]:
    if workload == "tables":
        Q = power_table(gen.rng, 24, 1.8)
        facts = TableFacts(Q)
        path = write_table(gen.path(""), Q, "rational")
        out = gen.path(".json")
        return [Job("validate-space", "warm-up", ["--json", "validate-space", str(path),
                                                  "--s", "4"], _check_validate(facts, 4.0)),
                Job("classify", "warm-up", ["--json", "classify", str(path)],
                    _check_classify(facts)),
                Job("min-s", "warm-up", ["--json", "min-s", str(path)], _check_min_s(facts)),
                Job("examples", "warm-up", ["--json", "examples", "export", "example-2.2",
                                            "--grid", "8", "--out", str(out)],
                    _check_export(out, 14), files=[out])]
    if workload == "contractions":
        x = oracle.fixture_grid("example-3.4", 16)
        tx = oracle.fixture_map("example-3.4", x)
        i, j = oracle.all_pairs(len(x))
        ref = oracle.contraction_counts("typeF", 3.0, oracle.F_FUNCTIONS["ln_plus_sqrt"],
                                        oracle.PHI_FUNCTIONS["inv_1p"], None,
                                        x[i], x[j], tx[i], tx[j], oracle.fixture_metric)
        return [Job("check", "warm-up", ["--json", "check", "--fixture", "example-3.4",
                                         "--variant", "typeF", "--grid", "16"],
                    _check_counts(ref))]
    if workload == "orbits":
        return [Job("iterate", "warm-up", ["--json", "iterate", "--domain", "interval:0,1",
                                           "--map", "0.5*x + 0.25", "--x0", "0.1"],
                    _check_orbit(0.5, 1e-9))]
    kernel = KERNELS[0][1](0.5)
    ref = oracle.nystrom_solve(kernel, 1.0, 0.0, 1.0, 9, "simpson")
    return [Job("solve-integral", "warm-up",
                ["--json", "solve-integral", "--a", "0", "--b", "1", "--lambda", "1",
                 "--s", "3", "--kernel", KERNELS[0][0].format(a=0.5), "--m", "9",
                 "--tol", "1e-24", "--quadrature", "simpson"],
                _check_integral(ref, 1e-7, kernel, 1.0, "simpson", None)),
            Job("examples", "warm-up", ["--json", "examples", "list"], _check_example_run)]
