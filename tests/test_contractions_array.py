"""The array path of verify_over_finite / verify_over_sample against the
one-pair-at-a-time loop it replaced.

``reference_verify`` is that loop, kept here as the oracle: check_pair on
each pair in loop order (both orientations for the asymmetric variants),
folded into a summary pair by pair. The program must give the same
summary, numbers included, and raise the same first error.
"""

import math
import tracemalloc

import numpy as np
import pytest

import contractum.contractions as contractions
from contractum.cli import _wrap_value_map_for_labels
from contractum.contractions import (
    MARGIN_TOL,
    ContractionSpec,
    PairVerdict,
    Status,
    Variant,
    VerificationSummary,
    check_pair,
    verify_over_finite,
    verify_over_sample,
)
from contractum.errors import ClosureError, ExpressionError, FunctionDomainError
from contractum.expressions import compile_expression
from contractum.families import AuxiliaryPair, builtin_pair
from contractum.fixtures import EXAMPLE_3_4, EXAMPLE_3_10
from contractum.spaces import FiniteSpace, SampledSpace

_ASYMMETRIC = {Variant.TYPE_IM, Variant.BETA_COMBO}


# ---------------------------------------------------------------------------
# the reference loop


def _record(summary: VerificationSummary, orientation_verdicts: list[PairVerdict]) -> None:
    summary.total += 1
    statuses = {v.status for v in orientation_verdicts}
    if Status.VIOLATED in statuses:
        summary.violated += 1
        summary.violations.extend(
            v for v in orientation_verdicts if v.status is Status.VIOLATED)
    elif Status.HOLDS in statuses:
        summary.holds += 1
    else:
        summary.vacuous += 1
    if summary.verdicts is not None:
        summary.verdicts.extend(orientation_verdicts)


def _check_unordered(spec, space, T, x, y, tol):
    verdicts = [check_pair(spec, space, T, x, y, tol=tol)]
    if spec.variant in _ASYMMETRIC:
        verdicts.append(check_pair(spec, space, T, y, x, tol=tol))
    return verdicts


def reference_verify(spec, space, T, pairs, *, tol=MARGIN_TOL, collect_all=False):
    summary = VerificationSummary(verdicts=[] if collect_all else None)
    for x, y in pairs:
        _record(summary, _check_unordered(spec, space, T, x, y, tol))
    summary.violations.sort(key=lambda v: (str(v.x), str(v.y)))
    return summary


def bits(verdict: PairVerdict) -> tuple:
    """A verdict with its points and numbers as their reprs: equal bit for
    bit (and in the sign of zero), not only as floats."""
    return tuple(map(repr, (verdict.x, verdict.y, verdict.status, verdict.lhs, verdict.rhs)))


def assert_same(got: VerificationSummary, want: VerificationSummary) -> None:
    assert got.to_dict() == want.to_dict()
    assert list(map(bits, got.violations)) == list(map(bits, want.violations))
    assert list(map(bits, got.verdicts or [])) == list(map(bits, want.verdicts or []))


def finite_pairs(points):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            yield points[i], points[j]


def sampled_pairs(sampler, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = sampler(rng)
        y = sampler(rng)
        yield x, y


# ---------------------------------------------------------------------------
# cases


def chain_space(count: int = 30):
    """A label-world table on numbers closed under x -> x^2 (chains v, v^2,
    v^4, ... down to 0.0, plus the fixed points 0 and 1), with the value
    map x^2 lifted to the labels as `check --space ... --map x^2` does."""
    rng = np.random.default_rng(3)
    vals = {0.0, 1.0}
    while len(vals) < count:
        v = float(rng.uniform(0.05, 0.95))
        while v not in vals:
            vals.add(v)
            v = v ** 2
    v = sorted(vals)
    D = np.abs(np.subtract.outer(v, v)) + 0.01
    np.fill_diagonal(D, 0.0)
    space = FiniteSpace(tuple(map(repr, v)), D)
    return space, _wrap_value_map_for_labels(space, compile_expression("x^2", ("x",)))


def run(kind, spec, metric=None, **kwargs):
    """(program summary, reference summary) for one kind of domain; on a
    fixture, ``metric`` wraps the fixture's metric."""
    if kind.startswith("sample"):
        fixture = EXAMPLE_3_4 if kind == "sample-3.4" else EXAMPLE_3_10
        d = metric(fixture.metric) if metric else fixture.metric
        got = verify_over_sample(spec, fixture.sampler(), d, fixture.map,
                                 n=300, seed=7, **kwargs)
        want = reference_verify(spec, SampledSpace(points=(), metric=d),
                                fixture.map, sampled_pairs(fixture.sampler(), 300, 7),
                                **kwargs)
        return got, want
    if kind == "labels":
        space, T = chain_space()
    else:
        fixture = {"grid-3.4": EXAMPLE_3_4, "grid-3.10": EXAMPLE_3_10}[kind]
        space, T = fixture.sampled_space(grid=12), fixture.map
        if metric:
            space = SampledSpace(space.points, metric(space.metric))
    got = verify_over_finite(spec, space, T, **kwargs)
    return got, reference_verify(spec, space, T, finite_pairs(space.points), **kwargs)


PAIRS = {
    "registry": builtin_pair("ln_plus_sqrt", "inv_1p"),
    "expression": AuxiliaryPair(F=compile_expression("t + ln(t)", ("t",)),
                                phi=compile_expression("1/(3+t^2)", ("t",))),
    # raises TypeError on arrays, so it goes through the element-wise adapter
    "scalar-only": AuxiliaryPair(F=lambda t: math.log(t) + math.sqrt(t),
                                 phi=lambda t: 1.0 / (2.0 + t)),
}

BETAS = (0.4, 0.2, 0.2, 0.1)


def make_spec(variant: Variant, pair: str, s: float = 3.0, tau=None) -> ContractionSpec:
    return ContractionSpec(variant=variant, s=s, pair=PAIRS[pair], tau=tau,
                           betas=BETAS if variant is Variant.BETA_COMBO else None)


KINDS = ["grid-3.4", "grid-3.10", "labels", "sample", "sample-3.4"]


@pytest.mark.parametrize("mode", ["one-block", "blocks-of-7", "collect-all"])
@pytest.mark.parametrize("pair", list(PAIRS))
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", KINDS)
def test_matches_reference_loop(kind, variant, pair, mode, monkeypatch):
    if mode == "blocks-of-7":
        monkeypatch.setattr(contractions, "_PAIR_BLOCK", 7)
    s = 1.0 if kind == "labels" else 3.0
    got, want = run(kind, make_spec(variant, pair, s), collect_all=mode == "collect-all")
    assert_same(got, want)


@pytest.mark.parametrize("variant", [Variant.TYPE_IM, Variant.REICH])
@pytest.mark.parametrize("kind", KINDS)
def test_tau_matches_reference_loop(kind, variant):
    got, want = run(kind, make_spec(variant, "registry", tau=0.05))
    assert_same(got, want)


def test_cases_reach_every_status():
    """The grid and label cases above are not all vacuous or all holding."""
    seen = set()
    for kind in KINDS:
        for variant in Variant:
            got, _ = run(kind, make_spec(variant, "registry", 1.0 if kind == "labels" else 3.0))
            seen |= {k for k in ("holds", "vacuous", "violated") if getattr(got, k)}
    assert seen == {"holds", "vacuous", "violated"}


def one_ulp_high(metric, calls=None):
    """The metric, one ulp high in array mode, as numpy's d ** 2 can be
    against Python's; ``calls`` records the scalar calls."""
    def wrapped(x, y):
        if isinstance(x, np.ndarray):
            return np.nextafter(np.asarray(metric(x, y)), np.inf)
        if calls is not None:
            calls.append((x, y))
        return metric(x, y)
    return wrapped


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", ["grid-3.4", "sample-3.4"])
def test_violation_numbers_come_from_the_scalar_metric(kind, variant):
    """Violations carry the numbers of the metric's scalar mode, not those
    of the block's arrays."""
    # tau = 2 leaves every variant violations and pairs that hold
    got, want = run(kind, make_spec(variant, "registry", tau=2.0), metric=one_ulp_high)
    assert got.violated > 0 and got.holds > 0
    assert_same(got, want)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", ["grid", "sample"])
def test_scalar_metric_sees_only_what_the_reference_loop_passes(kind, variant):
    fixture, spec = EXAMPLE_3_4, make_spec(variant, "registry", tau=2.0)
    got, want = [], []
    if kind == "sample":
        verify_over_sample(spec, fixture.sampler(), one_ulp_high(fixture.metric, got),
                           fixture.map, n=300, seed=7)
        reference_verify(spec, SampledSpace((), one_ulp_high(fixture.metric, want)),
                         fixture.map, sampled_pairs(fixture.sampler(), 300, 7))
    else:
        points = fixture.sampled_space(grid=12).points
        verify_over_finite(spec, SampledSpace(points, one_ulp_high(fixture.metric, got)),
                           fixture.map)
        reference_verify(spec, SampledSpace(points, one_ulp_high(fixture.metric, want)),
                         fixture.map, finite_pairs(points))
    assert got and set(got) <= set(want)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", ["grid-3.4", "labels", "sample-3.4"])
def test_violations_apply_the_map_once_per_point(kind, variant, monkeypatch):
    """T runs once per point of a block, and check_pair never runs: the
    pairs near a threshold are decided by the scalar verdict as well."""
    maps, replays = [], []
    monkeypatch.setattr(contractions, "check_pair",
                        lambda *a, **k: replays.append(a[3:5]) or check_pair(*a, **k))
    if kind == "labels":
        space, T = chain_space()
        counted = lambda p: maps.append(p) or T(p)
        summary = verify_over_finite(make_spec(variant, "registry", s=1.0), space, counted)
        points = len(space.points)
    else:
        fixture = EXAMPLE_3_4
        counted = lambda p: maps.append(p) or fixture.map(p)
        if kind == "sample-3.4":
            summary = verify_over_sample(make_spec(variant, "registry", tau=2.0),
                                         fixture.sampler(), fixture.metric, counted,
                                         n=300, seed=7)
            points = 600
        else:
            space = fixture.sampled_space(grid=12)
            summary = verify_over_finite(make_spec(variant, "registry", tau=2.0), space,
                                         counted)
            points = len(space.points)
    assert summary.violated > 0
    assert replays == []
    assert len(maps) == points


# ---------------------------------------------------------------------------
# errors name the same first failing pair


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def same_error(spec, space, T, *, block=None, monkeypatch=None):
    if block is not None:
        monkeypatch.setattr(contractions, "_PAIR_BLOCK", block)
    got = raised(lambda: verify_over_finite(spec, space, T))
    want = raised(lambda: reference_verify(spec, space, T, finite_pairs(space.points)))
    assert got == want
    return got


def line_space(n=10, zero=None):
    """Points p0 .. p(n-1) at distance |i - j|; with ``zero``, that pair of
    distinct points at distance 0 (an axiom-1 failure the table allows)."""
    v = np.arange(n, dtype=float)
    D = np.abs(v[:, None] - v[None, :])
    if zero is not None:
        D[zero] = D[zero[::-1]] = 0.0
    labels = tuple(f"p{k}" for k in range(n))
    return FiniteSpace(labels, D), labels


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("variant", [Variant.TYPE_F, Variant.TYPE_IM])
def test_function_domain_error_names_the_same_pair(variant, block, monkeypatch):
    space, labels = line_space(zero=(4, 7))
    T = lambda p: labels[(int(p[1:]) + 1) % len(labels)]
    kind, message = same_error(make_spec(variant, "registry"), space, T,
                               block=block, monkeypatch=monkeypatch)
    assert kind is FunctionDomainError and "('p4', 'p7')" in message


@pytest.mark.parametrize("block", [None, 5])
def test_expression_error_names_the_same_pair(block, monkeypatch):
    pair = AuxiliaryPair(F=compile_expression("ln(t - 0.3)", ("t",)),
                         phi=compile_expression("1/(1+t)", ("t",)))
    spec = ContractionSpec(variant=Variant.KANNAN, s=1.0, pair=pair)
    kind, message = same_error(spec, EXAMPLE_3_4.sampled_space(grid=12), EXAMPLE_3_4.map,
                               block=block, monkeypatch=monkeypatch)
    assert kind is ExpressionError


def pair_of_values(a, b):
    """Where a metric call at (x, y) meets the unordered pair {a, b}."""
    return lambda x, y: ((x == a) & (y == b)) | ((x == b) & (y == a))


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("kind", ["grid", "sample"])
@pytest.mark.parametrize("what", ["map", "metric", "scalar-metric"])
def test_map_or_metric_raising_part_way_names_the_same_pair(what, kind, block, monkeypatch):
    """A map that fails at one point, a metric that fails at one pair in
    both modes, or in its scalar mode only at a pair whose verdict is a
    violation: the program raises the reference loop's first error."""
    if block is not None:
        monkeypatch.setattr(contractions, "_PAIR_BLOCK", block)
    fixture, spec = EXAMPLE_3_4, make_spec(Variant.TYPE_IM, "registry", tau=2.0)
    if kind == "sample":
        pairs = list(sampled_pairs(fixture.sampler(), 300, 7))
        program = lambda d, T: verify_over_sample(spec, fixture.sampler(), d, T, n=300, seed=7)
        reference = lambda d, T: reference_verify(spec, SampledSpace((), d), T, pairs)
    else:
        points = fixture.sampled_space(grid=12).points
        pairs = list(finite_pairs(points))
        program = lambda d, T: verify_over_finite(spec, SampledSpace(points, d), T)
        reference = lambda d, T: reference_verify(spec, SampledSpace(points, d), T, pairs)
    metric, T = fixture.metric, fixture.map
    if what == "map":
        bad = pairs[len(pairs) // 2][1]

        def T(x):
            if x == bad:
                raise ValueError(f"map fails at {x!r}")
            return fixture.map(x)
    else:
        # a violated pair: the reference loop measures it, and so does
        # the program, in its arrays and for the violation's numbers
        violations = program(metric, T).violations
        chosen = violations[-1 if what == "metric" else len(violations) // 3]
        a, b = chosen.x, chosen.y
        hit = pair_of_values(a, b)

        def metric(x, y):
            if isinstance(x, np.ndarray) and what == "scalar-metric":
                return fixture.metric(x, y)
            if np.any(hit(x, y)):
                raise ValueError(f"metric fails at {a!r}, {b!r}")
            return fixture.metric(x, y)
    got = raised(lambda: program(metric, T))
    assert got == raised(lambda: reference(metric, T))
    assert got[0] is ValueError


def test_closure_error_names_the_same_point():
    space, labels = line_space()
    T = lambda p: "outside" if p == "p5" else labels[0]
    kind, message = same_error(make_spec(Variant.TYPE_F, "registry"), space, T)
    assert kind is ClosureError and "'p5'" in message


def test_an_earlier_pair_error_wins_over_a_later_closure_error():
    space, labels = line_space(zero=(0, 2))
    T = lambda p: "outside" if p == "p5" else labels[(int(p[1:]) + 1) % len(labels)]
    kind, message = same_error(make_spec(Variant.TYPE_F, "registry"), space, T)
    assert kind is FunctionDomainError and "('p0', 'p2')" in message


def test_map_outside_its_domain_raises_the_same():
    space = SampledSpace(points=(1.0, 1.5, 2.0, 3.0, 1.25), metric=EXAMPLE_3_4.metric)
    kind, message = same_error(make_spec(Variant.TYPE_F, "registry"), space, EXAMPLE_3_4.map)
    assert kind is ValueError and "3.0" in message


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_points_make_no_map_call(n):
    calls = []
    space = FiniteSpace(tuple(f"p{k}" for k in range(n)), np.zeros((n, n)))
    summary = verify_over_finite(make_spec(Variant.TYPE_IM, "registry"), space,
                                 lambda p: calls.append(p) or p)
    assert calls == [] and summary.total == 0 and summary.passed


# ---------------------------------------------------------------------------
# a margin within one ulp of -MARGIN_TOL


def _log_one_ulp_high(t):
    """ln, but one ulp high in array mode: an array F that disagrees with
    its scalar mode in the last place, as np.log and math.log can."""
    if isinstance(t, np.ndarray):
        return np.nextafter(np.log(t), np.inf)
    return math.log(t)


def near_tie(offset: int):
    """Three points whose non-vacuous pairs, (a, b) and (b, c), both have
    the type-F margin ln 2 - tau - ln 1: exact (Sterbenz), and next to
    -MARGIN_TOL."""
    tau = math.log(2.0) + MARGIN_TOL
    for _ in range(abs(offset)):
        tau = math.nextafter(tau, math.copysign(math.inf, -offset))
    space = FiniteSpace(("a", "b", "c"), np.array([[0.0, 2.0, 1.0],
                                                    [2.0, 0.0, 2.0],
                                                    [1.0, 2.0, 0.0]]))
    T = {"a": "a", "b": "c", "c": "a"}.__getitem__
    pair = AuxiliaryPair(F=_log_one_ulp_high, phi=lambda t: 1.0)
    return ContractionSpec(variant=Variant.TYPE_F, s=1.0, pair=pair, tau=tau), space, T


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_near_tie_is_decided_by_check_pair(offset, monkeypatch):
    """The near tie gets check_pair's status: the block decides it with the
    scalar verdict check_pair runs, on the positions of (a, b) and their
    images."""
    spec, space, T = near_tie(offset)
    margin = check_pair(spec, space, T, "a", "b").margin
    assert abs(margin + MARGIN_TOL) <= 3 * math.ulp(math.log(2.0))
    calls = []
    verdict = contractions._verdict
    monkeypatch.setattr(contractions, "_verdict",
                        lambda *a: calls.append(a[3:7]) or verdict(*a))
    got = verify_over_finite(spec, space, T)
    monkeypatch.setattr(contractions, "_verdict", verdict)
    want = reference_verify(spec, space, T, finite_pairs(space.points))
    assert got.to_dict() == want.to_dict()
    # (x, y, Tx, Ty) = (a, b, a, c) as positions 0, 1, 0, 2
    assert (0, 1, 0, 2) in calls


def test_near_tie_flips_between_the_two_modes():
    """Some offset puts the scalar margin below -MARGIN_TOL while the array
    margin, one ulp higher, is not: there only check_pair gets it right."""
    statuses = {}
    for offset in range(-2, 3):
        spec, space, T = near_tie(offset)
        statuses[offset] = check_pair(spec, space, T, "a", "b").status
        assert verify_over_finite(spec, space, T).passed == (statuses[offset] is Status.HOLDS)
    assert set(statuses.values()) == {Status.HOLDS, Status.VIOLATED}


# ---------------------------------------------------------------------------
# memory


def test_blocks_bound_memory_on_a_large_table():
    """1,500 points (1,124,250 pairs), no violations: the per-pair work is
    done in bounded blocks and no per-pair Python list is built."""
    n = 1500
    v = np.array([0.0, 0.001] + list(range(2, n)), dtype=float)
    labels = tuple(str(k) for k in range(n))
    space = FiniteSpace(labels, np.abs(v[:, None] - v[None, :]))
    # even points and point 1 go to "0", the other odd points to "1"
    T = lambda p: "0" if p == "1" or int(p) % 2 == 0 else "1"
    spec = ContractionSpec(variant=Variant.TYPE_F, s=1.0, pair=builtin_pair("ln", "inv_1p"))
    tracemalloc.start()
    try:
        summary = verify_over_finite(spec, space, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.total == n * (n - 1) // 2 and summary.violated == 0
    assert summary.holds > 500_000
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
