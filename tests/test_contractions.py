import math

import numpy as np
import pytest

from contractum.contractions import (
    ContractionSpec,
    Status,
    Variant,
    _CONDITIONS,
    check_pair,
    verify_over_finite,
    verify_over_sample,
)
from contractum.errors import ClosureError, FunctionDomainError
from contractum.families import AuxiliaryPair, builtin_pair
from contractum.fixtures import EXAMPLE_3_4, EXAMPLE_3_10
from contractum.spaces import FiniteSpace, SampledSpace, space_from_json


def spec_3_4():
    return ContractionSpec(variant=Variant.TYPE_F, s=3.0, pair=EXAMPLE_3_4.pair)


def spec_3_10():
    return ContractionSpec(variant=Variant.TYPE_IM, s=3.0, pair=EXAMPLE_3_10.pair)


THIRD = 1.0 / 3.0


class TestSpecValidation:
    def test_betas_required_for_beta_combo(self):
        with pytest.raises(ValueError):
            ContractionSpec(variant=Variant.BETA_COMBO, s=2.0,
                            pair=builtin_pair("ln", "inv_1p"))

    def test_betas_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            ContractionSpec(variant=Variant.TYPE_F, s=2.0,
                            pair=builtin_pair("ln", "inv_1p"),
                            betas=(0.1, 0.1, 0.1, 0.1))

    def test_betas_sum_capped(self):
        with pytest.raises(ValueError):
            ContractionSpec(variant=Variant.BETA_COMBO, s=2.0,
                            pair=builtin_pair("ln", "inv_1p"),
                            betas=(0.5, 0.5, 0.5, 0.5))

    def test_s_below_one(self):
        with pytest.raises(ValueError):
            ContractionSpec(variant=Variant.TYPE_F, s=0.9,
                            pair=builtin_pair("ln", "inv_1p"))

    def test_tau_replaces_phi(self):
        spec = ContractionSpec(variant=Variant.TYPE_IM, s=2.0,
                               pair=builtin_pair("ln", "inv_1p"), tau=0.25)
        assert spec.phi(12345.0) == 0.25


def m_value(space, T, x, y):
    """The comparison maximum max{d(x,y), d(x,Tx), d(y,Ty), d(y,Tx)}: the
    right-hand argument of the type-Im row."""
    d = space.distance
    tx, ty = T(x), T(y)
    return _CONDITIONS[Variant.TYPE_IM].rhs(d(x, y), d(x, tx), d(y, ty), d(y, tx), None, max)


class TestMValue:
    def test_example_3_4_zero_and_half(self):
        space = EXAMPLE_3_4.sampled_space(grid=0)
        # T(0) = T(1/2) = 1; the displacement d(0, 1) = 1 dominates
        got = m_value(space, EXAMPLE_3_4.map, 0.0, 0.5)
        assert got == max(0.16, 1.0, 0.25, 0.25) == 1.0

    def test_fixed_point_diagonal_vanishes(self):
        space = EXAMPLE_3_4.sampled_space(grid=0)
        assert m_value(space, EXAMPLE_3_4.map, 1.0, 1.0) == 0.0

    def test_two_fixed_points_reduce_to_distance(self):
        sp = space_from_json({"points": ["z", "u"], "distances": [[0, 2], [2, 0]]})
        T = {"z": "z", "u": "u"}.get
        assert m_value(sp, T, "z", "u") == sp.distance("z", "u")

    def test_asymmetry(self):
        sp = space_from_json({"points": ["a", "b", "c"],
                              "distances": [[0, 10, 1], [10, 0, 2], [1, 2, 0]]})
        T = {"a": "a", "b": "b", "c": "b"}.get
        assert m_value(sp, T, "a", "c") == 2.0
        assert m_value(sp, T, "c", "a") == 10.0

    def test_closure_error_names_source_point(self):
        sp = space_from_json({"points": ["a", "b"], "distances": [[0, 1], [1, 0]]})
        spec = ContractionSpec(variant=Variant.TYPE_IM, s=1.0,
                               pair=builtin_pair("ln", "inv_1p"))
        with pytest.raises(ClosureError) as exc:
            check_pair(spec, sp, lambda p: "zzz", "a", "b")
        assert exc.value.point == "a"


class TestCheckPair:
    def test_example_3_4_interval_pair_holds(self):
        space = EXAMPLE_3_4.sampled_space(grid=0)
        verdict = check_pair(spec_3_4(), space, EXAMPLE_3_4.map, 1.5, 2.0)
        assert verdict.status is Status.HOLDS
        assert verdict.margin > 0

    def test_equal_points_vacuous(self):
        space = EXAMPLE_3_4.sampled_space(grid=0)
        verdict = check_pair(spec_3_4(), space, EXAMPLE_3_4.map, 1.5, 1.5)
        assert verdict.status is Status.VACUOUS
        assert verdict.lhs is None and verdict.margin is None

    def test_example_3_10_mixed_pair_holds(self):
        space = EXAMPLE_3_10.sampled_space(grid=0)
        verdict = check_pair(spec_3_10(), space, EXAMPLE_3_10.map, 2.0, THIRD)
        assert verdict.status is Status.HOLDS

    def test_type_f_is_orientation_symmetric(self):
        space = EXAMPLE_3_4.sampled_space(grid=0)
        a = check_pair(spec_3_4(), space, EXAMPLE_3_4.map, 1.5, 2.0)
        b = check_pair(spec_3_4(), space, EXAMPLE_3_4.map, 2.0, 1.5)
        assert (a.lhs, a.rhs, a.status) == (b.lhs, b.rhs, b.status)

    def test_kannan_both_fixed_is_vacuous(self):
        sp = space_from_json({"points": ["z", "u", "w"],
                              "distances": [[0, 2, 1], [2, 0, 1], [1, 1, 0]]})
        T = {"z": "z", "u": "u", "w": "z"}.get
        spec = ContractionSpec(variant=Variant.KANNAN, s=1.0,
                               pair=builtin_pair("ln", "inv_1p"))
        verdict = check_pair(spec, sp, T, "z", "u")
        assert verdict.status is Status.VACUOUS

    def test_guard_soundness_f_never_sees_nonpositive(self):
        calls = []

        def recording_F(t):
            calls.append(t)
            return math.log(t)

        pair = AuxiliaryPair(F=recording_F, phi=lambda t: 1 / (1 + t))
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            M = rng.uniform(0.1, 2, (n, n))
            D = np.triu(M, 1) + np.triu(M, 1).T
            sp = FiniteSpace(tuple(str(i) for i in range(n)), D)
            images = rng.integers(0, n, n)
            T = lambda p: str(images[int(p)])
            for variant in Variant:
                betas = (0.25, 0.25, 0.25, 0.25) if variant is Variant.BETA_COMBO else None
                spec = ContractionSpec(variant=variant, s=2.0, pair=pair, betas=betas)
                for i in range(n):
                    for j in range(n):
                        check_pair(spec, sp, T, str(i), str(j))
        assert calls and all(t > 0 for t in calls)

    def test_domain_error_when_rhs_argument_nonpositive(self):
        # distinct points at distance zero break the type-F right side
        sp = space_from_json({"points": ["a", "b", "c"],
                              "distances": [[0, 0, 1], [0, 0, 2], [1, 2, 0]]})
        T = {"a": "a", "b": "c", "c": "b"}.get
        with pytest.raises(FunctionDomainError) as exc:
            check_pair(spec_3_4(), sp, T, "a", "b")
        assert exc.value.context[2] <= 0


class TestVerifyOverFinite:
    def test_example_3_4_passes_on_finite_plus_grid(self):
        space = EXAMPLE_3_4.sampled_space(grid=16)
        summary = verify_over_finite(spec_3_4(), space, EXAMPLE_3_4.map)
        assert summary.passed
        assert summary.violated == 0
        assert summary.total == len(space.points) * (len(space.points) - 1) // 2

    def test_identity_map_violates_every_distinct_pair(self):
        space = EXAMPLE_3_4.sampled_space(grid=16)
        summary = verify_over_finite(spec_3_4(), space, lambda x: x)
        assert not summary.passed
        assert summary.violated == summary.total
        assert summary.vacuous == 0

    def test_constant_map_all_vacuous(self):
        space = EXAMPLE_3_4.sampled_space(grid=16)
        summary = verify_over_finite(spec_3_4(), space, lambda x: 1.0)
        assert summary.passed
        assert summary.vacuous == summary.total

    def test_asymmetric_variants_check_both_orientations(self):
        space = EXAMPLE_3_10.sampled_space(grid=4)
        n_pairs = len(space.points) * (len(space.points) - 1) // 2
        sym = verify_over_finite(spec_3_4(), space, EXAMPLE_3_10.map, collect_all=True)
        asym = verify_over_finite(spec_3_10(), space, EXAMPLE_3_10.map, collect_all=True)
        assert len(sym.verdicts) == n_pairs
        assert len(asym.verdicts) == 2 * n_pairs


class TestVerifyOverSample:
    def test_example_3_4_sampled_passes(self):
        summary = verify_over_sample(
            spec_3_4(), EXAMPLE_3_4.sampler(), EXAMPLE_3_4.metric,
            EXAMPLE_3_4.map, n=2000, seed=11)
        assert summary.passed
        assert summary.total == 2000

    def test_shift_map_is_not_a_contraction(self):
        domain = SampledSpace(points=(), metric=lambda x, y: (x - y) ** 2)
        summary = verify_over_sample(
            spec_3_4(), lambda rng: float(rng.uniform(1, 2)), domain.metric,
            lambda x: x + 1.0, n=200, seed=5)
        assert not summary.passed
        assert summary.violations

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            verify_over_sample(spec_3_4(), lambda rng: 1.0, EXAMPLE_3_4.metric,
                               EXAMPLE_3_4.map, n=0, seed=0)

    def test_deterministic_given_seed(self):
        run = lambda: verify_over_sample(
            spec_3_10(), EXAMPLE_3_10.sampler(), EXAMPLE_3_10.metric,
            EXAMPLE_3_10.map, n=500, seed=42)
        a, b = run(), run()
        assert (a.holds, a.vacuous, a.violated) == (b.holds, b.vacuous, b.violated)


# ---------------------------------------------------------------------------
# dominance chain: Kannan / Reich / beta-combo each imply the type-Im
# inequality wherever they hold (their right-hand arguments never exceed
# the comparison maximum, and F is increasing)


def _random_space_and_map(rng):
    n = int(rng.integers(3, 8))
    M = rng.uniform(0.05, 2, (n, n))
    D = np.triu(M, 1) + np.triu(M, 1).T
    sp = FiniteSpace(tuple(str(i) for i in range(n)), D)
    images = rng.integers(0, n, n)
    return sp, lambda p: str(images[int(p)])


def _random_betas(rng):
    raw = rng.uniform(0, 1, 4)
    return tuple(raw / raw.sum() * rng.uniform(0.3, 1.0))


@pytest.mark.parametrize("weaker", [Variant.KANNAN, Variant.REICH, Variant.BETA_COMBO])
def test_weaker_variants_imply_type_im(weaker):
    pair = builtin_pair("ln_plus_sqrt", "inv_1p")
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        sp, T = _random_space_and_map(rng)
        s = float(rng.choice([1.0, 1.5, 3.0]))
        betas = _random_betas(rng) if weaker is Variant.BETA_COMBO else None
        weak = ContractionSpec(variant=weaker, s=s, pair=pair, betas=betas)
        strong = ContractionSpec(variant=Variant.TYPE_IM, s=s, pair=pair)
        for x in sp.points:
            for y in sp.points:
                v = check_pair(weak, sp, T, x, y)
                if v.status is Status.HOLDS:
                    w = check_pair(strong, sp, T, x, y)
                    assert w.status is Status.HOLDS, (x, y, v, w)
                    checked += 1
    assert checked > 0


def test_type_f_margin_matches_direct_formula_on_interval():
    # independent computation of the margin for interval pairs: with
    # T = fourth root, d' = (x^(1/4) - y^(1/4))^2 and d = (x - y)^2,
    # margin = [ln d + sqrt d - 1/(1+d)] - [ln(3 d') + sqrt(3 d')]
    spec = spec_3_4()
    space = EXAMPLE_3_4.sampled_space(grid=0)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, y = rng.uniform(1.0, 2.0, 2)
        if x == y:
            continue
        d_prime = (x ** 0.25 - y ** 0.25) ** 2
        d = (x - y) ** 2
        direct = (math.log(d) + math.sqrt(d) - 1.0 / (1.0 + d)) \
            - (math.log(3.0 * d_prime) + math.sqrt(3.0 * d_prime))
        verdict = check_pair(spec, space, EXAMPLE_3_4.map, float(x), float(y))
        assert verdict.status is Status.HOLDS
        assert verdict.margin == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_log_pair_margin_equals_exponential_form():
    # with F = ln and phi = 1/(1+t), the type-F inequality is exactly the
    # multiplicative form s*d(Tx,Ty) <= exp(-1/(1+d(x,y))) * d(x,y)
    import itertools

    pair = builtin_pair("ln", "inv_1p")
    spec = ContractionSpec(variant=Variant.TYPE_F, s=3.0, pair=pair)
    space = EXAMPLE_3_4.sampled_space(grid=6)
    T = EXAMPLE_3_4.map
    checked = 0
    for x, y in itertools.combinations(space.points, 2):
        verdict = check_pair(spec, space, T, x, y)
        if verdict.status is Status.VACUOUS:
            continue
        d_prime = space.distance(T(x), T(y))
        d = space.distance(x, y)
        expected_margin = math.log(math.exp(-1.0 / (1.0 + d)) * d) - math.log(3.0 * d_prime)
        assert verdict.margin == pytest.approx(expected_margin, abs=1e-12)
        checked += 1
    assert checked > 0


def test_comparison_arguments_dominated_by_m_value():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sp, T = _random_space_and_map(rng)
        d = sp.distance
        for x in sp.points:
            for y in sp.points:
                tx, ty = T(x), T(y)
                M = m_value(sp, T, x, y)
                assert (d(x, tx) + d(y, ty)) / 2 <= max(d(x, tx), d(y, ty)) + 1e-15
                assert max(d(x, tx), d(y, ty)) <= M + 1e-15
                assert (d(x, y) + d(x, tx) + d(y, ty)) / 3 <= M + 1e-15
