"""The rows of contractions._CONDITIONS: each right side against the
formulas it replaced (the scalar and the array if-chain, written out
below), bit for bit, and each symmetry flag against swapping x and y in
exact arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contractum.contractions import _CONDITIONS, Variant


def scalar_formula(variant, d, mx, my, c, betas):
    if variant is Variant.TYPE_F:
        return d
    if variant is Variant.TYPE_IM:
        return max(d, mx, my, c)
    if variant is Variant.KANNAN:
        return (mx + my) / 2.0
    if variant is Variant.REICH:
        return (d + mx + my) / 3.0
    b1, b2, b3, b4 = betas
    return b1 * d + b2 * mx + b3 * my + b4 * c


def array_formula(variant, d, mx, my, c, betas):
    if variant is Variant.TYPE_F:
        return d
    if variant is Variant.TYPE_IM:
        return np.maximum(np.maximum(np.maximum(d, mx), my), c)
    if variant is Variant.KANNAN:
        return (mx + my) / 2.0
    if variant is Variant.REICH:
        return (d + mx + my) / 3.0
    b1, b2, b3, b4 = betas
    return b1 * d + b2 * mx + b3 * my + b4 * c


def array_top(*a):
    return np.maximum.reduce(a)


def rhs(variant, d, mx, my, c, betas, top):
    """The row's right side as the program calls it: a symmetric row is
    not given c, so one that read it would raise."""
    row = _CONDITIONS[variant]
    return row.rhs(d, mx, my, None if row.symmetric else c, betas, top)


VARIANTS = list(Variant)
# zero, the smallest subnormal, a subnormal, the smallest normal, and values
# whose sums round
SPECIAL = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1 / 3, 0.4, 1.0, 3.0, 1e300]
distances = st.one_of(st.sampled_from(SPECIAL),
                      st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True))
betas = st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.25))] * 4)


@st.composite
def quadruples(draw):
    """(d, mx, my, c), drawn from a pool of at most four values, so that
    ties are common."""
    pool = draw(st.lists(distances, min_size=1, max_size=4))
    return tuple(draw(st.sampled_from(pool)) for _ in range(4))


@pytest.mark.parametrize("variant", VARIANTS)
@given(quadruple=quadruples(), weights=betas)
def test_scalar_row_is_the_old_formula(variant, quadruple, weights):
    got = rhs(variant, *quadruple, weights, max)
    assert type(got) is float
    assert repr(got) == repr(scalar_formula(variant, *quadruple, weights))


@pytest.mark.parametrize("variant", VARIANTS)
@given(rows=st.lists(quadruples(), min_size=1, max_size=20), weights=betas)
def test_array_row_is_the_old_formula_and_the_scalar_row(variant, rows, weights):
    columns = [np.array(column) for column in zip(*rows)]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = rhs(variant, *columns, weights, array_top)
        want = array_formula(variant, *columns, weights)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    scalars = np.array([rhs(variant, *row, weights, max) for row in rows])
    assert got.tobytes() == scalars.tobytes()


def swapped(variant, d, mx, my, cyx, cxy, weights):
    """The right side of (x, y) and of (y, x): the displacements change
    places, and d(y, Tx) becomes d(x, Ty)."""
    row = _CONDITIONS[variant]
    return (row.rhs(d, mx, my, cyx, weights, max), row.rhs(d, my, mx, cxy, weights, max))


@pytest.mark.parametrize("variant", VARIANTS)
def test_symmetric_flag_matches_a_swap_on_a_census(variant):
    weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    census = itertools.product(map(Fraction, (0, 1, 3)), repeat=5)
    changes = any(a != b for a, b in (swapped(variant, *q, weights) for q in census))
    assert changes is not _CONDITIONS[variant].symmetric


@pytest.mark.parametrize("variant", [v for v in VARIANTS if _CONDITIONS[v].symmetric])
@given(five=st.tuples(*[distances] * 5), weights=betas)
def test_symmetric_rows_do_not_change_under_a_swap(variant, five, weights):
    exact = [Fraction(v) for v in five]
    a, b = swapped(variant, *exact, tuple(map(Fraction, weights)))
    assert type(a) in (Fraction, int) and a == b


def test_symmetry_is_exact_not_in_floats():
    # Reich's sum rounds differently once the displacements change places,
    # so a symmetric row is decided in the loop order's orientation only
    reich = _CONDITIONS[Variant.REICH]
    assert reich.symmetric
    floats = swapped(Variant.REICH, 0.1, 0.1, 0.4, None, None, None)
    assert floats == (0.20000000000000004, 0.19999999999999998)
    exact = swapped(Variant.REICH, *map(Fraction, (0.1, 0.1, 0.4)), None, None, None)
    assert exact[0] == exact[1]

