import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from contractum.errors import InsufficientDataError, NumericError
from contractum.expressions import compile_expression
from contractum.fixtures import EXAMPLE_3_4, EXAMPLE_3_10
from contractum.picard import (
    IterationConfig,
    IterationStatus,
    IterationTrace,
    audit_trace,
    iterate,
    verify_uniqueness,
)

ABS = lambda x, y: abs(x - y)


def _reference_iterate(T, x0, metric, config):
    """The engine's earlier loop, kept as the oracle: every iterate's key
    goes into a set, and a key seen before is the first revisit."""
    def key(p):
        return p.tobytes() if isinstance(p, np.ndarray) else p

    def checked(a, b):
        d = float(metric(a, b))
        if math.isnan(d) or d < 0:
            raise NumericError(f"metric returned {d!r}", where=(a, b))
        return d

    x, seen, points, gap1 = x0, {key(x0)}, [x0], []
    status, iterations = IterationStatus.MAX_ITER_EXCEEDED, config.max_iter
    for n in range(config.max_iter):
        fx = T(x)
        r = checked(x, fx)
        points.append(fx)
        gap1.append(r)
        x = fx
        if r <= config.tol:
            status, iterations = IterationStatus.CONVERGED, n
            break
        if key(fx) in seen:
            status, iterations = IterationStatus.CYCLE_DETECTED, n + 1
            break
        seen.add(key(fx))
    gap2 = [checked(points[k], points[k + 2]) for k in range(len(points) - 2)]
    return status, iterations, x, r, points, gap1, gap2


def _assert_matches_reference(T, x0, metric, config):
    result = iterate(T, x0, metric, config)
    status, iterations, point, residual, points, gap1, gap2 = \
        _reference_iterate(T, x0, metric, config)
    assert (result.status, result.iterations, result.residual) == \
        (status, iterations, residual)
    assert type(result.point) is type(point)
    assert np.array_equal(result.point, point)
    trace = result.trace
    assert len(trace.points) == len(points)
    assert all(np.array_equal(a, b) for a, b in zip(trace.points, points))
    assert trace.gap1.dtype == trace.gap2.dtype == np.float64
    assert trace.gap1.tolist() == gap1 and trace.gap2.tolist() == gap2
    assert type(result.residual) is float


class TestIterate:
    def test_example_3_4_converges_to_one(self):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric,
                         IterationConfig(tol=1e-9))
        assert result.status is IterationStatus.CONVERGED
        assert result.residual <= 1e-9
        assert abs(result.point - 1.0) < 1e-4
        assert result.iterations <= 200

    def test_fixed_start_converges_in_zero_steps(self):
        result = iterate(EXAMPLE_3_4.map, 1.0, EXAMPLE_3_4.metric)
        assert result.converged
        assert result.iterations == 0
        assert result.residual == 0.0
        assert result.point == 1.0

    def test_example_3_10_orbit_matches_closed_form(self):
        result = iterate(EXAMPLE_3_10.map, 2.5, EXAMPLE_3_10.metric,
                         IterationConfig(tol=1e-9))
        assert result.converged
        assert abs(result.point - 1.0) < 1e-4
        for n, x_n in enumerate(result.trace.points):
            assert x_n == pytest.approx(2.5 ** (6.0 ** -n), abs=1e-12)

    def test_cycle_detected_on_period_two_orbit(self):
        sup = lambda x, y: float(np.max(np.abs(x - y)))
        cases = [
            # 1 - 0.8 rounds to 0.19999999999999996, so 0.8 is the first revisit
            (lambda x: 1.0 - x, 0.2, ABS, 3),
            (lambda x: -x, 0.7, ABS, 2),
            ({"a": "b", "b": "a"}.get, "a", lambda x, y: float(x != y), 2),
            (lambda x: -x, np.array([0.5, -1.0, 2.0]), sup, 2),
        ]
        for T, x0, metric, iterations in cases:
            result = iterate(T, x0, metric, IterationConfig(tol=1e-12))
            assert result.status is IterationStatus.CYCLE_DETECTED
            assert result.residual > 0
            assert result.iterations == iterations

    def test_cycles_match_reference_at_every_max_iter(self):
        # 1 - x from 0.2 first repeats at iteration 3, and the period-two
        # array orbit at iteration 2; Brent's checkpoints meet them later
        sup = lambda x, y: float(np.max(np.abs(x - y)))
        cases = [(lambda x: 1.0 - x, 0.2, ABS),
                 (lambda x: -x, np.array([0.5, -1.0, 2.0]), sup)]
        for T, x0, metric in cases:
            for max_iter in range(1, 12):
                _assert_matches_reference(T, x0, metric,
                                          IterationConfig(tol=1e-12, max_iter=max_iter))

    def test_functional_graphs_match_reference(self):
        # T on at most 40 points, as a random successor table: the orbit from
        # x0 repeats at mu + lam, and max_iter is drawn around that value
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def orbits(draw):
            values = draw(st.lists(st.floats(-10, 10, allow_subnormal=False),
                                   min_size=1, max_size=40, unique=True))
            k = len(values)
            succ = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
            start = draw(st.integers(0, k - 1))
            first, i = {}, start
            while i not in first:
                first[i] = len(first)
                i = succ[i]
            repeat = len(first)                    # mu + lam
            max_iter = draw(st.one_of(
                st.integers(1, 3 * k + 3),
                st.sampled_from([max(1, repeat - 1), repeat, repeat + 1])))
            tol = draw(st.sampled_from([1e-12, 0.5]))
            arrays = draw(st.booleans())
            return values, succ, start, max_iter, tol, arrays

        @settings(max_examples=300, deadline=None)
        @given(orbits())
        def run(case):
            values, succ, start, max_iter, tol, arrays = case
            config = IterationConfig(tol=tol, max_iter=max_iter)
            if arrays:
                points = [np.array([v, 2.0 * v]) for v in values]
                index = {p.tobytes(): i for i, p in enumerate(points)}
                T = lambda x: points[succ[index[x.tobytes()]]]
                metric = lambda x, y: float(np.max(np.abs(x - y)))
            else:
                points = values
                index = {v: i for i, v in enumerate(values)}
                T = lambda x: values[succ[index[x]]]
                metric = ABS
            _assert_matches_reference(T, points[start], metric, config)

        run()

    def test_max_iter_exceeded(self):
        result = iterate(lambda x: x / 2, 1.0, ABS,
                         IterationConfig(tol=1e-30, max_iter=3))
        assert result.status is IterationStatus.MAX_ITER_EXCEEDED
        assert result.iterations == 3
        assert result.point == 0.125

    def test_nan_metric_raises(self):
        with pytest.raises(NumericError):
            iterate(lambda x: x / 2, 1.0, lambda x, y: float("nan"))

    @pytest.mark.parametrize("bad", [(0.5, 0.25), (1.0, 0.25), (0.25, 0.125)])
    def test_bad_distance_names_the_reference_pair(self, bad):
        # a gap1 step, a gap2 pair, and a later gap1 step
        def metric(x, y):
            return -1.0 if (x, y) == bad else abs(x - y)
        config = IterationConfig(tol=1e-3)
        with pytest.raises(NumericError) as ours:
            iterate(lambda x: x / 2, 1.0, metric, config)
        with pytest.raises(NumericError) as ref:
            _reference_iterate(lambda x: x / 2, 1.0, metric, config)
        assert ours.value.where == ref.value.where == bad
        assert str(ours.value) == str(ref.value) == "metric returned -1.0"

    def test_unhashable_start_rejected(self):
        with pytest.raises(TypeError):
            iterate(lambda x: x, [1.0], lambda x, y: 0.0)

    def test_negative_metric_raises(self):
        with pytest.raises(NumericError):
            iterate(lambda x: x / 2, 1.0, lambda x, y: -1.0)

    def test_deterministic_traces(self):
        run = lambda: iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        a, b = run(), run()
        assert a.trace.points == b.trace.points
        assert np.array_equal(a.trace.gap1, b.trace.gap1)
        assert np.array_equal(a.trace.gap2, b.trace.gap2)

    def test_returned_point_residual_under_contraction(self):
        # the returned point is T of the last iterate, so its own residual
        # is one contraction step smaller than the stopping residual
        config = IterationConfig(tol=1e-9)
        for x0 in (2.0, 1.7, 0.25):
            result = iterate(EXAMPLE_3_4.map, x0, EXAMPLE_3_4.metric, config)
            post = EXAMPLE_3_4.metric(result.point, EXAMPLE_3_4.map(result.point))
            assert post <= config.tol

    def test_long_orbit_memory(self):
        # about 103k steps; no revisit set is kept, and the gaps are kept as
        # arrays, so the recorded points make up most of the peak of the
        # orbit and its audit
        T = compile_expression("0.9999*x + 0.00005", ("x",))
        tracemalloc.start()
        try:
            result = iterate(T, 0.8, ABS)
            audit_trace(result.trace, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert result.iterations > 100_000
        assert peak < 11 * 2 ** 20

    def test_array_points_supported(self):
        T = lambda x: 0.5 * x
        metric = lambda x, y: float(np.max(np.abs(x - y)))
        result = iterate(T, np.ones(4), metric, IterationConfig(tol=1e-12))
        assert result.converged
        assert np.all(np.abs(result.point) < 1e-11)


class TestTrace:
    def test_gap_lengths(self):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        trace = result.trace
        assert len(trace.gap1) == len(trace.points) - 1
        assert len(trace.gap2) == len(trace.points) - 2

    def test_lists_become_float_arrays(self):
        trace = IterationTrace(points=[4, 2, 1], gap1=[2, 1], gap2=[3])
        assert trace.gap1.dtype == trace.gap2.dtype == np.float64
        assert trace.gap1.tolist() == [2.0, 1.0] and trace.gap2.tolist() == [3.0]
        with pytest.raises(ValueError):
            IterationTrace(points=[4, 2, 1], gap1=[2], gap2=[3])
        with pytest.raises(ValueError):
            IterationTrace(points=[4, 2, 1], gap1=[2, 1], gap2=[])

    def test_scaled_sequences_match_direct_powers(self):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        trace = result.trace
        for n, (g, scaled) in enumerate(zip(trace.gap1, np.exp(trace.log_scaled1(3.0)))):
            assert scaled == pytest.approx(3.0 ** n * g, rel=1e-12)

    def test_log_scaled_handles_zero_gaps(self):
        trace = IterationTrace(points=[1.0, 1.0, 1.0], gap1=[0.0, 0.0], gap2=[0.0])
        assert trace.log_scaled1(3.0) == [-math.inf, -math.inf]
        assert trace.log_scaled2(3.0) == [-math.inf]

    def test_scaled_gaps_overflow_to_inf(self):
        # 700 * ln 3 is about 769, past the largest finite exp argument
        # (709.78): the log-scaled values stay finite where s^n * gap is not
        trace = IterationTrace(points=[0.0] * 702, gap1=[1.0] * 701, gap2=[1.0] * 700)
        for logs in (trace.log_scaled1(3.0), trace.log_scaled2(3.0)):
            assert logs == [n * math.log(3.0) for n in range(len(logs))]
            with np.errstate(over="ignore"):
                scaled = np.exp(logs)
            assert scaled[0] == 1.0 and math.isfinite(scaled[646])
            assert (scaled[647:] == math.inf).all()

    def test_csv_roundtrip(self, tmp_path):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        path = tmp_path / "trace.csv"
        result.trace.write_csv(path, s=3.0)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "n,x_n,gap1,gap2,log_scaled1,log_scaled2"
        assert len(rows) == len(result.trace.points) + 1


def _reference_write_csv(trace, path, s):
    """The trace writer as it was, one row per point over Python floats,
    kept as the oracle for the CSV bytes."""
    def point_repr(p):
        if isinstance(p, np.ndarray):
            return "max=" + repr(float(np.max(np.abs(p))))
        return p if isinstance(p, str) else repr(p)

    gap1, gap2 = trace.gap1.tolist(), trace.gap2.tolist()
    log1, log2 = ([n * math.log(s) + (math.log(g) if g > 0 else -math.inf)
                   for n, g in enumerate(gaps)] for gaps in (gap1, gap2))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "x_n", "gap1", "gap2", "log_scaled1", "log_scaled2"])
        for n, p in enumerate(trace.points):
            writer.writerow([
                n,
                point_repr(p),
                gap1[n] if n < len(gap1) else "",
                gap2[n] if n < len(gap2) else "",
                log1[n] if n < len(log1) else "",
                log2[n] if n < len(log2) else "",
            ])


_CSV_TRACES = {
    "float-orbit": lambda: iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric).trace,
    "constant": lambda: IterationTrace(points=[1.0] * 4, gap1=[0.0] * 3, gap2=[0.0] * 2),
    "labels": lambda: iterate({"a": "b", "b": "c", "c": "c"}.get, "a",
                              lambda x, y: float(x != y)).trace,
    "ndarray": lambda: iterate(lambda x: 0.5 * x, np.array([1.0, -3.0]),
                               lambda x, y: float(np.max(np.abs(x - y))),
                               IterationConfig(tol=1e-6)).trace,
    "two-points": lambda: IterationTrace(points=[0.5, 0.25], gap1=[0.25], gap2=[]),
    "one-point": lambda: IterationTrace(points=[0.5], gap1=[], gap2=[]),
}


@pytest.mark.parametrize("kind", list(_CSV_TRACES))
def test_csv_matches_the_per_row_writer(kind, tmp_path):
    trace = _CSV_TRACES[kind]()
    for s in (1.0, 3.0):
        trace.write_csv(tmp_path / "got.csv", s=s)
        _reference_write_csv(trace, tmp_path / "want.csv", s)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestAuditTrace:
    def test_example_3_4_gaps_strictly_decreasing(self):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        report = audit_trace(result.trace, s=3.0)
        assert report.gap1_strictly_decreasing
        assert report.scaled1_trending_zero
        assert report.scaled2_trending_zero
        assert report.tail_rate < 1.0

    def test_constant_orbit_trivially_passes(self):
        trace = IterationTrace(points=[1.0, 1.0, 1.0], gap1=[0.0, 0.0], gap2=[0.0])
        report = audit_trace(trace, s=3.0)
        assert report.gap1_strictly_decreasing

    def test_expansion_map_fails_decrease(self):
        result = iterate(lambda x: 2 * x, 1.0, ABS,
                         IterationConfig(tol=1e-12, max_iter=8))
        report = audit_trace(result.trace, s=2.0)
        assert not report.gap1_strictly_decreasing

    def test_short_trace_rejected(self):
        trace = IterationTrace(points=[1.0, 2.0], gap1=[1.0], gap2=[])
        with pytest.raises(InsufficientDataError):
            audit_trace(trace, s=2.0)


def _reference_suffix_start(seq):
    start = len(seq) - 1
    for i in range(len(seq) - 2, -1, -1):
        if seq[i + 1] < seq[i]:
            start = i
        else:
            break
    return max(start, 0) if seq else 0


def _reference_strictly_decreasing(gaps):
    positive = list(itertools.takewhile(lambda g: g != 0, gaps))
    return all(g == 0 for g in gaps[len(positive):]) and \
        all(b < a for a, b in zip(positive, positive[1:]))


def _reference_eventually_decreasing(seq):
    if len(seq) < 2:
        return True
    return _reference_suffix_start(seq) <= len(seq) // 2


def _random_gaps(rng, k):
    g = rng.uniform(0.0, 2.0, size=k)
    g[rng.random(k) < 0.1] = 0.0
    cut = int(rng.integers(0, k + 1))
    g[cut:] = np.sort(g[cut:])[::-1]          # a decreasing tail of random length
    return [float(v) for v in g]


def _near_tie_gaps(rng, k, s, seeds):
    """Gaps whose log-scaled values nearly tie: each gap is the previous one
    divided by s and moved a few floats up or down, or equal to it, or a
    fresh seed. Seeds are values where np.log and math.log disagree."""
    g = [seeds[int(rng.integers(len(seeds)))]]
    while len(g) < k:
        kind = rng.random()
        if kind < 0.2:
            g.append(g[-1])
        elif kind < 0.9:
            v = g[-1] / s
            for _ in range(int(rng.integers(0, 3))):
                v = float(np.nextafter(v, math.inf if rng.random() < 0.5 else 0.0))
            g.append(v)
        else:
            g.append(seeds[int(rng.integers(len(seeds)))])
    return g


def test_audit_matches_reference_on_random_gaps():
    rng = np.random.default_rng(7)
    # values where this platform's np.log and math.log differ, if any
    draws = rng.uniform(0.5, 2.0, size=20_000)
    seeds = [float(v) for v in draws if float(np.log(v)) != math.log(v)][:200] or [1.3]
    flips = 0
    for case in range(900):
        n = int(rng.integers(3, 40))
        if case < 300:
            gaps = [_random_gaps(rng, k) for k in (n - 1, n - 2)]
            s = float(rng.choice([1.0, 1.5, 3.0]))
        else:
            s = [1.0, 1.5, 3.0, math.e][case % 4]
            gaps = [_near_tie_gaps(rng, k, s, seeds) for k in (n - 1, n - 2)]
            for seq in gaps:
                a = np.arange(len(seq)) * math.log(s) + np.log(seq)
                b = [k * math.log(s) + math.log(g) for k, g in enumerate(seq)]
                flips += any((y < x) != (b[i + 1] < b[i])
                             for i, (x, y) in enumerate(zip(a, a[1:])))
        trace = IterationTrace(points=[0.0] * n, gap1=gaps[0], gap2=gaps[1])
        report = audit_trace(trace, s)
        logs = [[k * math.log(s) + (math.log(g) if g > 0 else -math.inf)
                 for k, g in enumerate(seq)] for seq in gaps]
        assert report.gap1_strictly_decreasing == _reference_strictly_decreasing(gaps[0])
        assert report.suffix_start1 == _reference_suffix_start(logs[0])
        assert report.suffix_start2 == _reference_suffix_start(logs[1])
        assert report.scaled1_trending_zero == _reference_eventually_decreasing(logs[0])
        assert report.scaled2_trending_zero == _reference_eventually_decreasing(logs[1])
        rates = [b / a for a, b in zip(gaps[0], gaps[0][1:]) if a > 0]
        assert report.tail_rate == (rates[-1] if rates else None)
    # np.log alone would decide some of these comparisons differently
    assert flips > 0 or seeds == [1.3]


class TestVerifyUniqueness:
    def test_example_3_4_three_starts_agree(self):
        report = verify_uniqueness(EXAMPLE_3_4.map, [2.0, 1.3, 0.25],
                                   EXAMPLE_3_4.metric, IterationConfig(tol=1e-9))
        assert report.conclusive
        assert report.agree
        assert all(d <= report.threshold for _, _, d in report.pairwise)

    def test_single_start_vacuously_true(self):
        report = verify_uniqueness(EXAMPLE_3_4.map, [2.0], EXAMPLE_3_4.metric)
        assert report.conclusive and report.agree
        assert report.pairwise == []

    def test_two_fixed_points_detected(self):
        # squaring on [0, 1] has fixed points 0 and 1
        report = verify_uniqueness(lambda x: x * x, [0.3, 1.0], ABS,
                                   IterationConfig(tol=1e-9))
        assert report.conclusive
        assert not report.agree

    def test_non_convergence_is_inconclusive(self):
        report = verify_uniqueness(lambda x: x + 1.0, [0.0, 1.0], ABS,
                                   IterationConfig(tol=1e-9, max_iter=5))
        assert not report.conclusive
        assert report.agree is None

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError):
            verify_uniqueness(lambda x: x, [], ABS)
