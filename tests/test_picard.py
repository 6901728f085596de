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
    check_scaling_condition,
    iterate,
    verify_uniqueness,
)

ABS = lambda x, y: abs(x - y)


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

    def test_max_iter_exceeded(self):
        result = iterate(lambda x: x / 2, 1.0, ABS,
                         IterationConfig(tol=1e-30, max_iter=3))
        assert result.status is IterationStatus.MAX_ITER_EXCEEDED
        assert result.iterations == 3
        assert result.point == 0.125

    def test_nan_metric_raises(self):
        with pytest.raises(NumericError):
            iterate(lambda x: x / 2, 1.0, lambda x, y: float("nan"))

    def test_negative_metric_raises(self):
        with pytest.raises(NumericError):
            iterate(lambda x: x / 2, 1.0, lambda x, y: -1.0)

    def test_deterministic_traces(self):
        run = lambda: iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        a, b = run(), run()
        assert a.trace.points == b.trace.points
        assert a.trace.gap1 == b.trace.gap1

    def test_returned_point_residual_under_contraction(self):
        # the returned point is T of the last iterate, so its own residual
        # is one contraction step smaller than the stopping residual
        config = IterationConfig(tol=1e-9)
        for x0 in (2.0, 1.7, 0.25):
            result = iterate(EXAMPLE_3_4.map, x0, EXAMPLE_3_4.metric, config)
            post = EXAMPLE_3_4.metric(result.point, EXAMPLE_3_4.map(result.point))
            assert post <= config.tol

    def test_trace_suppressed(self):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric,
                         IterationConfig(record_trace=False))
        assert result.trace is None
        assert result.converged

    def test_long_orbit_memory(self):
        # about 103k steps; the revisit keys are the iterates themselves, so
        # the trace dominates the peak
        T = compile_expression("0.9999*x + 0.00005", ("x",))
        tracemalloc.start()
        try:
            result = iterate(T, 0.8, ABS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert result.iterations > 100_000
        assert peak < 20 * 2 ** 20

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

    def test_scaled_sequences_match_direct_powers(self):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        trace = result.trace
        for n, (g, scaled) in enumerate(zip(trace.gap1, trace.scaled1(3.0))):
            assert scaled == pytest.approx(3.0 ** n * g, rel=1e-12)

    def test_log_scaled_handles_zero_gaps(self):
        trace = IterationTrace(points=[1.0, 1.0, 1.0], gap1=[0.0, 0.0], gap2=[0.0])
        assert trace.log_scaled1(3.0) == [-math.inf, -math.inf]
        assert trace.scaled1(3.0) == [0.0, 0.0]

    def test_scaled_gaps_overflow_to_inf(self):
        # 700 * ln 3 is about 769, past the largest finite exp argument (709.78)
        trace = IterationTrace(points=[0.0] * 702, gap1=[1.0] * 701, gap2=[1.0] * 700)
        for scaled in (trace.scaled1(3.0), trace.scaled2(3.0)):
            assert scaled[0] == 1.0 and math.isfinite(scaled[646])
            assert scaled[647:] == [math.inf] * (len(scaled) - 647)

    def test_csv_roundtrip(self, tmp_path):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        path = tmp_path / "trace.csv"
        result.trace.write_csv(path, s=3.0)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "n,x_n,gap1,gap2,log_scaled1,log_scaled2"
        assert len(rows) == len(result.trace.points) + 1


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


def _reference_eventually_decreasing(seq):
    if len(seq) < 2:
        return True
    return _reference_suffix_start(seq) <= len(seq) // 2


def test_audit_matches_reference_on_random_gaps():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(3, 40))
        gaps = []
        for k in (n - 1, n - 2):
            g = rng.uniform(0.0, 2.0, size=k)
            g[rng.random(k) < 0.1] = 0.0
            cut = int(rng.integers(0, k + 1))
            g[cut:] = np.sort(g[cut:])[::-1]          # a decreasing tail of random length
            gaps.append([float(v) for v in g])
        s = float(rng.choice([1.0, 1.5, 3.0]))
        trace = IterationTrace(points=[0.0] * n, gap1=gaps[0], gap2=gaps[1])
        report = audit_trace(trace, s)
        logs = [[k * math.log(s) + (math.log(g) if g > 0 else -math.inf)
                 for k, g in enumerate(seq)] for seq in gaps]
        assert report.suffix_start1 == _reference_suffix_start(logs[0])
        assert report.suffix_start2 == _reference_suffix_start(logs[1])
        assert report.scaled1_trending_zero == _reference_eventually_decreasing(logs[0])
        assert report.scaled2_trending_zero == _reference_eventually_decreasing(logs[1])
        rates = [b / a for a, b in zip(gaps[0], gaps[0][1:]) if a > 0]
        assert report.tail_rate == (rates[-1] if rates else None)


class TestScalingCondition:
    def test_example_3_4_trace_satisfies_implication(self):
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        report = check_scaling_condition(result.trace, EXAMPLE_3_4.pair, s=3.0)
        assert report.premise_all
        assert report.conclusion_all
        assert report.implication_ok

    def test_failed_premise_is_vacuously_ok(self):
        result = iterate(lambda x: 2 * x, 1.0, ABS,
                         IterationConfig(tol=1e-12, max_iter=8))
        report = check_scaling_condition(result.trace, EXAMPLE_3_4.pair, s=3.0)
        assert not report.premise_all
        assert report.implication_ok

    def test_x_plus_ln_pair_on_contracting_trace(self):
        # the registry's t + ln(t) family member satisfies the rescaling
        # implication on a genuinely contracting orbit
        from contractum.families import AuxiliaryPair, F_REGISTRY
        pair = AuxiliaryPair(F=F_REGISTRY["x_plus_ln"],
                             phi=lambda t: 1.0 / (1.0 + t), k_exponent=0.5)
        result = iterate(EXAMPLE_3_4.map, 2.0, EXAMPLE_3_4.metric)
        report = check_scaling_condition(result.trace, pair, s=3.0)
        assert report.premise_all
        assert report.conclusion_all

    def test_implication_on_random_geometric_traces(self):
        # for every built-in pair, a premise that holds along an entire
        # geometric gap sequence must carry over to the power-scaled form
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from contractum.families import builtin_pair

        pairs = [builtin_pair("ln", "inv_1p"),
                 builtin_pair("ln_plus_sqrt", "inv_1p"),
                 builtin_pair("ln_sqrt", "inv_2p"),
                 builtin_pair("x_plus_ln", "inv_1p")]

        @settings(max_examples=60, deadline=None)
        @given(ratio=st.floats(0.02, 0.3), a0=st.floats(0.01, 5.0),
               length=st.integers(3, 12))
        def run(ratio, a0, length):
            gaps = [a0 * ratio ** k for k in range(length)]
            trace = IterationTrace(points=[0.0] * (length + 1), gap1=gaps,
                                   gap2=[0.0] * (length - 1))
            for pair in pairs:
                report = check_scaling_condition(trace, pair, s=3.0)
                assert report.implication_ok

        run()


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
