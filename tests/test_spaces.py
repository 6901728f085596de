"""Finite space validation, minimal coefficients, and taxonomy.

Derived expectations are frozen from the brute-force oracles below
(pure-Python exhaustive enumeration, kept independent of the vectorized
implementation paths they check).
"""

import itertools
import math
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractum import spaces
from contractum.errors import MalformedSpaceError, ParameterError
from contractum.fixtures import EXAMPLE_2_2, EXAMPLE_3_4
from contractum.spaces import (
    _SAMPLE_BLOCK,
    MAX_EXHAUSTIVE_POINTS,
    FiniteSpace,
    TriangleWitness,
    _sample_quadruples,
    classify_space,
    load_space,
    minimal_coefficient,
    space_from_csv,
    space_from_json,
    validate_space,
)


# ---------------------------------------------------------------------------
# oracles


def oracle_max_ratio(D):
    """Max over ordered quadruples of pairwise-distinct indices of
    d(x,y) / (d(x,u) + d(u,v) + d(v,y)), with the first maximizer in
    lexicographic order."""
    n = D.shape[0]
    best, best_quad = -1.0, None
    for i, u, v, j in itertools.permutations(range(n), 4):
        denom = (D[i, u] + D[u, v]) + D[v, j]
        ratio = D[i, j] / denom
        if ratio > best:
            best, best_quad = ratio, (i, u, v, j)
    return best, best_quad


def oracle_ratio(lhs, rhs):
    """lhs / rhs as a coefficient needs it: inf over a zero sum with a
    positive lhs, None (no constraint) for 0 / 0."""
    if rhs > 0:
        return lhs / rhs
    return math.inf if lhs > 0 else None


def oracle_coefficient(ratios):
    """The minimal coefficient: the largest ratio, clamped below at 1."""
    return max([1.0] + [r for r in ratios if r is not None])


def oracle_witnesses(D, limit=8, tol=1e-12):
    """The first ``limit`` quadruples violating the s = 1 inequality, in
    lexicographic index order; the extremal quadruple as CoefficientReport
    defines it: the lexicographically smallest one among the pairs of
    maximal ratio, taken with its pair's minimal sum, and that sum; and
    b_rectangular_s."""
    n = D.shape[0]
    quads = list(itertools.permutations(range(n), 4))
    total = {q: (D[q[0], q[1]] + D[q[1], q[2]]) + D[q[2], q[3]] for q in quads}
    violations = [q for q in quads if D[q[0], q[3]] > total[q] + tol][:limit]
    denom = {}
    for (i, u, v, j), t in total.items():
        denom[i, j] = min(denom.get((i, j), np.inf), t)
    ratio = {pair: oracle_ratio(D[pair], d) for pair, d in denom.items()}
    best = max(r for r in ratio.values() if r is not None)
    extremal = next(q for q in quads
                    if ratio[q[0], q[3]] == best and total[q] == denom[q[0], q[3]])
    coefficient = oracle_coefficient(oracle_ratio(D[q[0], q[3]], total[q]) for q in quads)
    return violations, (extremal, denom[extremal[0], extremal[3]]), coefficient


def oracle_triangles(D, limit=8, tol=1e-12):
    """The first ``limit`` triples (x, z, y) violating the triangle
    inequality, in lexicographic index order, and b_metric_s."""
    triples = list(itertools.permutations(range(D.shape[0]), 3))
    total = {t: D[t[0], t[1]] + D[t[1], t[2]] for t in triples}
    violations = [t for t in triples if D[t[0], t[2]] > total[t] + tol][:limit]
    coefficient = oracle_coefficient(oracle_ratio(D[t[0], t[2]], total[t]) for t in triples)
    return violations, total, coefficient


def oracle_triangle_ok(D, tol=1e-12):
    n = D.shape[0]
    for x, z, y in itertools.permutations(range(n), 3):
        if D[x, y] > D[x, z] + D[z, y] + tol:
            return False
    return True


def random_symmetric_table(rng, n, lo=0.05, hi=2.0):
    M = rng.uniform(lo, hi, size=(n, n))
    D = np.triu(M, 1)
    return D + D.T


def integer_table(rng, n):
    """Small integer distances: many tied sums and tied ratios."""
    D = np.triu(rng.integers(1, 5, size=(n, n)).astype(float), 1)
    return D + D.T


def inflated_line_table(rng, n, inflated=2):
    """|x_i - x_j| on a line with a few entries stretched, so only some
    pairs break the s = 1 inequality."""
    x = rng.uniform(0.0, 1.0, n)
    D = np.abs(x[:, None] - x[None, :])
    for a, b in rng.choice(n, size=(inflated, 2)):
        if a != b:
            D[a, b] = D[b, a] = 2.5 * D[a, b]
    return D


def zero_table(rng, n):
    """Distances 0, 1 or 2: zero entries off the diagonal give zero sums,
    so infinite coefficients and 0 / 0 ratios."""
    D = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), 1)
    return D + D.T


TABLE_KINDS = {"integer": integer_table, "uniform": random_symmetric_table,
               "inflated_line": inflated_line_table, "zeros": zero_table}


def labeled(D):
    return FiniteSpace(tuple(str(i) for i in range(len(D))), D)


def euclidean_space(points_2d):
    values = np.asarray(points_2d, dtype=float)
    n = len(values)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = float(np.hypot(*(values[i] - values[j])))
    return FiniteSpace(tuple(str(i) for i in range(n)), D)


def assert_witnesses_match_oracle(kind, n):
    """classify's witnesses and coefficients, and validate's extremal with
    both of its sides, exactly as the brute-force oracles give them."""
    D = TABLE_KINDS[kind](np.random.default_rng(10 * n), n)
    sp = labeled(D)
    violations, extremal, b_rectangular_s = oracle_witnesses(D)
    triangles, two_hop, b_metric_s = oracle_triangles(D)
    flags = classify_space(sp)
    got = [tuple(int(p) for p in (w.x, w.u, w.v, w.y))
           for w in flags.quadrilateral_witnesses]
    assert got == violations
    assert flags.is_rectangular == (not violations)
    assert flags.triangle_witnesses == tuple(
        TriangleWitness(str(x), str(z), str(y), float(D[x, y]), float(two_hop[x, z, y]))
        for x, z, y in triangles)
    assert flags.is_metric == (not triangles)
    assert flags.b_metric_s == b_metric_s
    assert flags.b_rectangular_s == b_rectangular_s
    if kind != "zeros":  # a zero distance ends validation before the ratios
        w = validate_space(sp, 1.0).extremal
        quad, minimal_sum = extremal
        assert tuple(int(p) for p in (w.x, w.u, w.v, w.y)) == quad
        assert (w.lhs, w.rhs) == (D[quad[0], quad[3]], minimal_sum)


# ---------------------------------------------------------------------------
# construction and I/O


class TestFiniteSpace:
    def test_fraction_and_decimal_entries(self):
        sp = FiniteSpace.from_table(["a", "b"], [["0", "1/2"], ["0.5", 0]])
        assert sp.distance("a", "b") == 0.5

    def test_asymmetric_table_names_pair(self):
        with pytest.raises(MalformedSpaceError) as exc:
            FiniteSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert exc.value.pair == ("a", "b")

    def test_negative_entry_rejected(self):
        with pytest.raises(MalformedSpaceError):
            FiniteSpace(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(MalformedSpaceError):
            FiniteSpace(("a", "b"), np.array([[0.1, 1.0], [1.0, 0.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(MalformedSpaceError):
            FiniteSpace(("a", "b", "c"), np.zeros((2, 2)))

    def test_duplicate_labels(self):
        with pytest.raises(MalformedSpaceError):
            FiniteSpace(("a", "a"), np.zeros((2, 2)))

    def test_values_parse_labels(self):
        sp = FiniteSpace.from_table(["1/2", "x"], [[0, 1], [1, 0]])
        assert sp.values == (0.5, None)

    def test_callers_array_is_left_alone(self):
        D = np.array([[1e-13, 1.0], [1.0, 0.0]])
        sp = FiniteSpace(("a", "b"), D)
        assert D[0, 0] == 1e-13
        assert D.flags.writeable
        assert sp.dist is not D
        assert sp.dist[0, 0] == 0.0 and not sp.dist.flags.writeable

    def test_json_roundtrip(self, tmp_path):
        sp = EXAMPLE_3_4.space(grid=0)
        path = tmp_path / "space.json"
        sp.save_json(path)
        back = load_space(path)
        assert back.points == sp.points
        assert np.array_equal(back.dist, sp.dist)

    def test_json_half_table_mirrored(self):
        obj = {"points": ["a", "b", "c"],
               "distances": [[0], [1, 0], [2, 3, 0]]}
        sp = space_from_json(obj)
        assert sp.distance("a", "c") == 2.0
        assert sp.distance("c", "b") == 3.0

    def test_csv_with_row_labels_and_blanks(self, tmp_path):
        path = tmp_path / "space.csv"
        path.write_text("labels,a,b,c\na,0,1,2\nb,,0,3\nc,,,0\n")
        sp = space_from_csv(path)
        assert sp.distance("b", "a") == 1.0
        assert sp.distance("c", "b") == 3.0

    def test_csv_missing_pair(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,\n,0\n")
        with pytest.raises(MalformedSpaceError):
            space_from_csv(path)

    def test_unparseable_entry(self):
        with pytest.raises(MalformedSpaceError):
            FiniteSpace.from_table(["a", "b"], [[0, "wat"], ["wat", 0]])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_names_its_pair(self, value):
        # a NaN cell is an entry, not a blank to be mirrored from (d, a)
        rows = [[0, 1, 2, value], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
        with pytest.raises(MalformedSpaceError) as exc:
            space_from_json({"points": ["a", "b", "c", "d"], "distances": rows})
        assert exc.value.pair == ("a", "d")

    def test_json_missing_keys(self):
        with pytest.raises(MalformedSpaceError):
            space_from_json({"points": ["a"]})


# ---------------------------------------------------------------------------
# validate_space


class TestValidateSpace:
    def test_example_2_2_holds_at_3(self):
        # finite table plus a 64-point interval sample
        space = EXAMPLE_2_2.space(grid=64)
        report = validate_space(space, 3.0)
        assert report.holds
        assert report.witness is None
        # the uniform grid realizes the three-hop split exactly, so the
        # sampled fixture needs the full coefficient
        assert report.minimal_s == pytest.approx(3.0, abs=1e-12)

    def test_single_point_vacuous(self):
        sp = FiniteSpace(("p",), np.zeros((1, 1)))
        report = validate_space(sp, 1.0)
        assert report.holds
        assert report.vacuous
        assert report.minimal_s == 1.0

    def test_example_3_4_finite_minimal_is_25_over_24(self):
        space = EXAMPLE_3_4.space(grid=0)
        expected, _ = oracle_max_ratio(space.dist)
        assert expected == pytest.approx(25 / 24, abs=1e-15)
        report = validate_space(space, 3.0)
        assert report.holds
        assert report.minimal_s == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        D = random_symmetric_table(rng, n)
        sp = FiniteSpace(tuple(str(i) for i in range(n)), D)
        expected, _ = oracle_max_ratio(D)
        report = validate_space(sp, 1.0)
        assert report.max_ratio == expected
        assert minimal_coefficient(sp) == max(1.0, expected)

    def test_witness_only_on_violation(self):
        space = EXAMPLE_3_4.space(grid=0)
        assert validate_space(space, 3.0).witness is None
        bad = validate_space(space, 1.0)
        assert not bad.holds
        assert bad.witness is not None
        assert bad.witness.ratio > 1.0

    def test_minimal_coefficient_is_tight(self):
        space = EXAMPLE_3_4.space(grid=0)
        m = minimal_coefficient(space)
        assert validate_space(space, m).holds
        if m - 1e-9 >= 1.0:
            shaved = validate_space(space, m - 1e-9)
            assert not shaved.holds
            assert shaved.witness is not None

    def test_axiom1_violation_reported_not_raised(self):
        D = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0.0]])
        sp = FiniteSpace(("a", "b", "c", "d"), D)
        report = validate_space(sp, 5.0)
        assert not report.holds
        assert ("a", "b") in report.axiom1_failures
        assert report.minimal_s == np.inf
        with pytest.raises(MalformedSpaceError):
            minimal_coefficient(sp)

    def test_s_below_one_rejected(self):
        with pytest.raises(ValueError):
            validate_space(EXAMPLE_3_4.space(grid=0), 0.5)

    def test_sampled_mode_is_deterministic(self):
        n4 = labeled(random_symmetric_table(np.random.default_rng(4), 4))
        n12 = labeled(random_symmetric_table(np.random.default_rng(5), 12))
        cases = [(EXAMPLE_2_2.space(grid=16), 500),
                 (n4, 300),                 # distinct draws collide most often
                 (n4, 2 * _SAMPLE_BLOCK + 5),
                 (n12, _SAMPLE_BLOCK + 1000)]
        for (space, sample), s in itertools.product(cases, (1.0, 3.0)):
            a = validate_space(space, s, sample=sample, seed=7)
            b = validate_space(space, s, sample=sample, seed=7)
            assert a.to_dict() == b.to_dict()
            assert not a.exhaustive
            w = a.extremal
            assert len({w.x, w.u, w.v, w.y}) == 4
            assert w.ratio == a.max_ratio
            assert (a.witness is not None) == (not a.holds)
            if a.witness is not None:
                assert a.witness == w
            # the draws come from one generator, a block at a time, and
            # extremal is the first of them attaining the maximum
            D, pts = space.dist, space.points
            rng = np.random.default_rng(7)
            i, u, v, j = np.concatenate(
                [_sample_quadruples(rng, len(pts), min(_SAMPLE_BLOCK, sample - k))
                 for k in range(0, sample, _SAMPLE_BLOCK)], axis=1)
            ratios = D[i, j] / ((D[i, u] + D[u, v]) + D[v, j])
            first = np.flatnonzero(ratios == a.max_ratio)[0]
            assert (w.x, w.u, w.v, w.y) == tuple(pts[k[first]] for k in (i, u, v, j))
            # a sampled maximum is a lower bound for the exhaustive one
            assert a.max_ratio <= validate_space(space, s).max_ratio

    def test_sampled_quadruples_are_distinct_and_uniform(self):
        picks = _sample_quadruples(np.random.default_rng(0), 4, 24_000)
        quads = [tuple(q) for q in picks.T.tolist()]
        assert all(len(set(q)) == 4 for q in quads)
        counts = {q: quads.count(q) for q in set(quads)}
        assert len(counts) == 24
        # 1000 expected per ordered quadruple, standard deviation about 31
        assert all(850 < c < 1150 for c in counts.values())

    def test_fewer_than_four_points_vacuous(self):
        sp = FiniteSpace.from_table(["a", "b", "c"],
                                    [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        report = validate_space(sp, 1.0)
        assert report.vacuous and report.holds
        assert minimal_coefficient(sp) == 1.0

    def test_large_space_requires_explicit_sampling(self):
        values = list(np.linspace(0.0, 1.0, MAX_EXHAUSTIVE_POINTS + 1))
        sp = FiniteSpace.from_metric(values, lambda x, y: abs(x - y))
        with pytest.raises(ValueError, match="sample"):
            validate_space(sp, 1.0)
        report = validate_space(sp, 1.0, sample=300, seed=1)
        assert report.holds  # absolute value is a genuine metric
        assert not report.exhaustive


# ---------------------------------------------------------------------------
# classify_space


class TestClassifySpace:
    def test_example_3_4_not_metric(self):
        flags = classify_space(EXAMPLE_3_4.space(grid=0))
        assert not flags.is_metric
        w = flags.triangle_witnesses[0]
        assert (w.x, w.z, w.y) == ("0", "1/3", "1/4")
        assert w.lhs == pytest.approx(0.25, abs=1e-12)
        assert w.rhs == pytest.approx(0.08, abs=1e-12)

    def test_example_3_4_not_rectangular(self):
        flags = classify_space(EXAMPLE_3_4.space(grid=0))
        assert not flags.is_rectangular
        w = flags.quadrilateral_witnesses[0]
        assert (w.x, w.u, w.v, w.y) == ("1/2", "0", "1/3", "1/4")
        assert w.lhs == pytest.approx(0.25, abs=1e-12)
        assert w.rhs == pytest.approx(0.24, abs=1e-12)

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
    def test_witnesses_match_oracle_order(self, kind, n):
        assert_witnesses_match_oracle(kind, n)

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
    def test_witnesses_match_oracle_one_u_per_block(self, kind, n, monkeypatch):
        # at n <= 8 every rescan fits one default block; here every middle
        # point u is a block of its own
        monkeypatch.setattr(spaces, "_RESCAN_BLOCK", 1)
        assert_witnesses_match_oracle(kind, n)

    def test_classify_memory_stays_quadratic(self):
        x = np.random.default_rng(200).uniform(0.0, 10.0, 200)
        sp = labeled(np.abs(x[:, None] - x[None, :]) ** 1.75)
        tracemalloc.start()
        try:
            flags = classify_space(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not flags.is_rectangular
        assert peak < 16e6

    def test_line_metric_is_rectangular(self):
        x = np.random.default_rng(60).uniform(0.0, 1.0, 60)
        flags = classify_space(labeled(np.abs(x[:, None] - x[None, :])))
        assert flags.is_rectangular
        assert flags.quadrilateral_witnesses == ()

    def test_absolute_value_metric(self):
        vals = [0.0, 1.0, 2.0, 3.0]
        sp = FiniteSpace.from_metric(vals, lambda x, y: abs(x - y))
        flags = classify_space(sp)
        assert flags.is_metric
        assert flags.is_rectangular
        assert flags.b_metric_s == 1.0

    def test_witnesses_carry_both_sides(self):
        flags = classify_space(EXAMPLE_3_4.space(grid=0))
        for w in flags.witnesses:
            assert w.lhs > w.rhs

    def test_three_point_space_is_vacuously_rectangular(self):
        sp = FiniteSpace.from_table(["a", "b", "c"],
                                    [[0, 5, 1], [5, 0, 1], [1, 1, 0]])
        flags = classify_space(sp)
        assert not flags.is_metric        # 5 > 1 + 1
        assert flags.is_rectangular       # no quadruple exists
        assert flags.b_rectangular_s is None
        assert flags.b_metric_s == 2.5

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=4, max_size=7, unique=True))
    def test_metric_implies_rectangular_implies_valid_at_1(self, pts):
        # Euclidean tables are genuine metrics unless two points collide
        sp = euclidean_space(pts)
        if any(d <= 1e-9 for d in sp.dist[np.triu_indices(len(pts), 1)]):
            return
        flags = classify_space(sp)
        assert flags.is_metric
        assert flags.is_rectangular
        assert validate_space(sp, 1.0).holds

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_classification_is_monotone_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 7))
        sp = FiniteSpace(tuple(str(i) for i in range(n)),
                         random_symmetric_table(rng, n))
        flags = classify_space(sp)
        assert flags.is_metric == oracle_triangle_ok(sp.dist)
        if flags.is_metric:
            assert flags.is_rectangular
        if flags.is_rectangular:
            assert validate_space(sp, 1.0).holds


# ---------------------------------------------------------------------------
# relabeling invariance


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_minimal_coefficient_tight_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    sp = FiniteSpace(tuple(str(i) for i in range(n)),
                     random_symmetric_table(rng, n))
    m = minimal_coefficient(sp)
    assert m >= 1.0
    assert validate_space(sp, m).holds
    shaved = m - 1e-9
    if shaved >= 1.0:
        report = validate_space(sp, shaved)
        assert not report.holds
        assert report.witness is not None
        assert report.witness.ratio > shaved


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_permutation_changes_only_witness_labels(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    sp = FiniteSpace(tuple(str(i) for i in range(n)),
                     random_symmetric_table(rng, n))
    order = rng.permutation(n)
    shuffled = sp.permuted(order)

    a = validate_space(sp, 1.5)
    b = validate_space(shuffled, 1.5)
    assert a.holds == b.holds
    assert a.minimal_s == b.minimal_s
    assert a.max_ratio == b.max_ratio

    fa = classify_space(sp)
    fb = classify_space(shuffled)
    assert fa.is_metric == fb.is_metric
    assert fa.is_rectangular == fb.is_rectangular
    assert fa.b_metric_s == pytest.approx(fb.b_metric_s, rel=1e-12)
    assert fa.b_rectangular_s == pytest.approx(fb.b_rectangular_s, rel=1e-12)


@pytest.mark.parametrize("tol", [-1.0, -1e-15, math.nan])
@pytest.mark.parametrize("n", [3, 5])
def test_negative_or_nan_tolerance_is_rejected(tol, n):
    # at tol = -1 validate_space would call the ratio 1/3 > s + tol a violation
    sp = labeled(np.ones((n, n)) - np.eye(n))
    for check in (lambda: validate_space(sp, 1.0, tol=tol), lambda: classify_space(sp, tol=tol),
                  lambda: minimal_coefficient(sp, tol=tol)):
        with pytest.raises(ParameterError, match="tolerance must be >= 0") as exc:
            check()
        assert isinstance(exc.value, ValueError)


def test_zero_tolerance_is_accepted():
    sp = labeled(np.ones((5, 5)) - np.eye(5))
    assert validate_space(sp, 1.0, tol=0.0).holds
    assert classify_space(sp, tol=0.0).is_rectangular
