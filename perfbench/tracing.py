"""Span recording from outside the program.

``Tracer.install`` replaces the module attributes through which the CLI
and the layers call each other (``contractum.cli.validate_space``,
``contractum.integral.apply_operator``, ...) with wrappers that record a
span per call: name, start, end, parent span, job id, and the time spent
in direct children, so self time is known at the boundary. Functions
called per element (F and phi, compiled expressions, the map and metric
inside ``iterate``) are too hot for one span each; they are "leaves",
aggregated per (name, parent span) as a count, total and self time.
Everything is kept in memory and written once by ``write``.

Counts a layer already reports (n, m, pairs, iterations) are read from
its arguments and results, not from the wrappers.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import tracemalloc
from time import perf_counter

import contractum.cli as cli
import contractum.families as families
import contractum.fixtures as fixtures
import contractum.integral as integral
import contractum.picard as picard


# fields of a span; parent is the enclosing span, and direct is false when
# a leaf sits between the two
ID, NAME, START, END, PARENT, DIRECT, JOB, SELF, ATTRS = range(9)


class Tracer:
    def __init__(self, peaks: bool = False):
        self.spans: list[list] = []
        # (name, parent span, direct, job) -> [count, total_s, self_s]
        self.leaves: dict[tuple, list] = {}
        self.job: int | None = None
        self.peaks = peaks            # record tracemalloc peaks instead of spans
        self.peak_mb: dict[str, float] = {}
        self._stack: list[list] = []  # frames: [span id, or None for a leaf; child_s]
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _enclosing(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def call(self, name, fn, args, kwargs, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans[sid] = [sid, name, start, end, self._enclosing(),
                               parent is None or parent[0] is not None, self.job,
                               end - start - frame[1], None]
        if attrs is not None:
            self.spans[sid][ATTRS] = attrs(args, kwargs, result)
        return result

    def leaf(self, name, fn):
        stack = self._stack
        leaves = self.leaves

        def wrapper(*args):
            parent = stack[-1] if stack else None
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                took = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += took
                key = (name, self._enclosing(), parent is None or parent[0] is not None,
                       self.job)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, took, took - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += took
                    entry[2] += took - frame[1]
        return wrapper

    def peak(self, name, fn, args, kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args, **kwargs)
        finally:
            mb = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), mb)

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, name, attrs=None, prepare=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))

        def wrapper(*args, **kwargs):
            if self.peaks:
                if name in PEAK_SPANS:
                    return self.peak(name, original, args, kwargs)
                return original(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            if name is None:
                return original(*args, **kwargs)
            return self.call(name, original, args, kwargs, attrs)

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        p = self._patch
        p(cli, "load_space", "spaces.load", lambda a, k, r: {"n": len(r.points)})
        p(cli, "validate_space", "spaces.validate", _quadruple_attrs)
        p(cli, "classify_space", "spaces.classify", _quadruple_attrs)
        p(cli, "minimal_coefficient", "spaces.min_s", _quadruple_attrs)
        p(fixtures.ExampleFixture, "space", "fixtures.space")
        p(cli, "verify_over_finite", "contractions.verify", _pair_attrs)
        p(cli, "verify_over_sample", "contractions.verify", _pair_attrs)
        # no span: only hands F and phi to the spec as leaves
        p(cli, "ContractionSpec", None, prepare=self._wrap_pair)
        for owner in (cli, families):
            original = owner.compile_expression
            self._undo.append((owner, "compile_expression", original))
            setattr(owner, "compile_expression", self._compiler(original))
        for owner in (cli, picard, integral):
            p(owner, "iterate", "picard.iterate",
              lambda a, k, r: {"steps": r.iterations}, prepare=self._wrap_orbit)
        p(cli, "audit_trace", "picard.audit")
        p(picard.IterationTrace, "write_csv", "picard.trace_write")
        p(cli, "solve", "integral.solve",
          lambda a, k, r: {"m": a[0].m, "iterations": r.result.iterations})
        p(integral, "apply_operator", "integral.operator", lambda a, k, r: {"m": a[0].m})
        p(cli, "refined_residual", "integral.refined_residual")
        p(cli, "verify_kernel_condition", "integral.kernel_check")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _compiler(self, original):
        def compile_expression(text, variables):
            if self.peaks:
                return original(text, variables)
            fn = self.call("expressions.compile", original, (text, variables), {})
            return self.leaf("expressions.eval", fn)
        return compile_expression

    def _wrap_pair(self, args, kwargs):
        pair = kwargs["pair"]
        kwargs["pair"] = dataclasses.replace(
            pair, F=self.leaf("families.F", pair.F), phi=self.leaf("families.phi", pair.phi))
        return args, kwargs

    def _wrap_orbit(self, args, kwargs):
        T, x0, metric, *rest = args
        return (self.leaf("picard.T", T), x0, self.leaf("picard.metric", metric),
                *rest), kwargs

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        leaves = [[*key, *vals] for key, vals in self.leaves.items()]
        with open(path, "w") as fh:
            json.dump({"span_fields": ["id", "name", "start", "end", "parent", "direct",
                                       "job", "self_s", "attrs"],
                       "spans": self.spans,
                       "leaf_fields": ["name", "parent", "direct", "job",
                                       "count", "total_s", "self_s"],
                       "leaves": leaves}, fh)


# the layers whose tracemalloc peak is reported
PEAK_SPANS = ("spaces.classify", "picard.iterate")


def _quadruple_attrs(args, kwargs, result) -> dict:
    n = len(args[0].points)
    sample = kwargs.get("sample")
    return {"n": n, "quadruples": sample if sample else n * (n - 1) * (n - 2) * (n - 3)}


def _pair_attrs(args, kwargs, result) -> dict:
    asymmetric = args[0].variant.value in ("typeIm", "beta")
    return {"pairs": result.total, "orientations": result.total * (2 if asymmetric else 1)}


# ---------------------------------------------------------------------------
# per-layer metrics


def _ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


M_VALUES = (33, 65, 129, 257)   # the grid sizes integral.operator_ms is split by


def layer_metrics(tracer: Tracer, job_kinds: dict[int, str]) -> dict:
    """Per-layer figures from one traced pass. Times named ``*_ms`` are
    medians per call (per job for cli.self_ms and spaces.min_s_ms); eval
    times and counts are totals over the pass. A layer the workload does
    not reach reports 0."""
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span[NAME], []).append(span)

    def durs(name):
        return [s[END] - s[START] for s in by_name.get(name, [])]

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in by_name.get(name, []) if s[ATTRS])

    leaf_total: dict[str, list] = {}
    for (name, *_), (count, total, _) in tracer.leaves.items():
        acc = leaf_total.setdefault(name, [0, 0.0])
        acc[0] += count
        acc[1] += total

    out = {"cli.self_ms": _ms([s[SELF] for s in by_name.get("cli.job", [])])}
    out["spaces.load_ms"] = _ms(durs("spaces.load"))
    out["spaces.validate_ms"] = _ms(durs("spaces.validate"))
    out["spaces.classify_ms"] = _ms(durs("spaces.classify"))
    per_job: dict[int, float] = {}
    for name in ("spaces.min_s", "spaces.validate"):
        for s in by_name.get(name, []):
            if job_kinds.get(s[JOB]) == "min-s":
                per_job[s[JOB]] = per_job.get(s[JOB], 0.0) + s[END] - s[START]
    out["spaces.min_s_ms"] = _ms(list(per_job.values()))
    kernel = ("spaces.validate", "spaces.classify", "spaces.min_s")
    busy = sum(sum(durs(k)) for k in kernel)
    out["spaces.quadruples_per_s"] = (
        sum(attr_sum(k, "quadruples") for k in kernel) / busy if busy else 0.0)
    out["fixtures.space_build_ms"] = _ms(durs("fixtures.space"))
    out["contractions.verify_ms"] = _ms(durs("contractions.verify"))
    busy = sum(durs("contractions.verify"))
    out["contractions.pairs_per_s"] = (
        attr_sum("contractions.verify", "orientations") / busy if busy else 0.0)
    fam = [leaf_total.get(k, [0, 0.0]) for k in ("families.F", "families.phi")]
    out["families.eval_ms"] = sum(f[1] for f in fam) * 1e3
    out["families.evals"] = sum(f[0] for f in fam)
    out["expressions.compile_ms"] = _ms(durs("expressions.compile"))
    expr = leaf_total.get("expressions.eval", [0, 0.0])
    out["expressions.eval_ms"] = expr[1] * 1e3
    out["expressions.evals"] = expr[0]
    out["picard.iterate_ms"] = _ms(durs("picard.iterate"))
    steps = attr_sum("picard.iterate", "steps")
    out["picard.steps"] = steps
    out["picard.self_us_per_step"] = (
        sum(s[SELF] for s in by_name.get("picard.iterate", [])) / steps * 1e6 if steps else 0.0)
    out["picard.audit_ms"] = _ms(durs("picard.audit"))
    out["picard.trace_write_ms"] = _ms(durs("picard.trace_write"))
    ops = [s for s in by_name.get("integral.operator", []) if s[ATTRS]]
    for m in M_VALUES:
        out[f"integral.operator_ms.m{m}"] = _ms(
            [s[END] - s[START] for s in ops if s[ATTRS]["m"] == m])
    busy = sum(s[END] - s[START] for s in ops)
    out["integral.kernel_evals_per_s"] = (
        sum(s[ATTRS]["m"] ** 2 for s in ops) / busy if busy else 0.0)
    out["integral.solve_ms"] = _ms(durs("integral.solve"))
    out["integral.iterations"] = attr_sum("integral.solve", "iterations")
    out["integral.refined_residual_ms"] = _ms(durs("integral.refined_residual"))
    out["integral.kernel_check_ms"] = _ms(durs("integral.kernel_check"))
    return out


def check_job_sums(tracer: Tracer, tol: float = 1e-9) -> int:
    """For every job span: its self time plus the time of its direct
    children, spans and leaves, equals its duration. Returns the number of
    job spans checked; raises AssertionError if one does not add up."""
    child: dict[int, float] = {}
    for s in tracer.spans:
        if s[PARENT] is not None and s[DIRECT]:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
    for (name, parent, direct, job), (count, total, _) in tracer.leaves.items():
        if parent is not None and direct:
            child[parent] = child.get(parent, 0.0) + total
    jobs = 0
    for s in tracer.spans:
        if s[NAME] != "cli.job":
            continue
        jobs += 1
        if abs(s[SELF] + child.get(s[ID], 0.0) - (s[END] - s[START])) > tol:
            raise AssertionError(f"job span {s[ID]} does not add up")
    return jobs
