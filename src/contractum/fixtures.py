"""Built-in example spaces, maps, and problem instances.

These are the named fixtures the CLI ``examples`` subcommand exposes and
the acceptance suite exercises, so tests and docs share one source of
truth. Each space is a finite label set A with an explicit distance table,
glued to an interval B on which (and across which) the distance falls back
to the squared absolute difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .contractions import Variant
from .errors import ParameterError
from .families import AuxiliaryPair, builtin_pair
from .integral import IntegralProblem
from .spaces import FiniteSpace, SampledSpace


def _interval_grid(lo: float, hi: float, n: int) -> list[float]:
    return [float(v) for v in np.linspace(lo, hi, n)]


def _piecewise_metric(table: dict[tuple[float, float], float]) -> Callable[[float, float], float]:
    """0 on the diagonal, the table's entry for a listed pair, (x - y)^2
    otherwise. Takes two floats, or two ndarrays elementwise."""
    listed = np.array(sorted({v for key in table for v in key}))
    lookup = np.full((len(listed), len(listed)), np.nan)
    for (a, b), d in table.items():
        i, j = np.searchsorted(listed, (a, b))
        lookup[i, j] = lookup[j, i] = d

    def on_arrays(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        i = np.minimum(np.searchsorted(listed, x), len(listed) - 1)
        j = np.minimum(np.searchsorted(listed, y), len(listed) - 1)
        special = lookup[i, j]
        hit = (listed[i] == x) & (listed[j] == y) & ~np.isnan(special)
        return np.where(x == y, 0.0, np.where(hit, special, (x - y) ** 2))

    def metric(x: float, y: float) -> float:
        if type(x) is np.ndarray:
            return on_arrays(x, y)
        if x == y:
            return 0.0
        key = (x, y) if x < y else (y, x)
        special = table.get(key)
        return special if special is not None else (x - y) ** 2
    return metric


def _build_table(pairs: dict[tuple[str, str], float]) -> dict[tuple[float, float], float]:
    out = {}
    for (a, b), d in pairs.items():
        va, vb = float(Fraction(a)), float(Fraction(b))
        key = (va, vb) if va < vb else (vb, va)
        out[key] = d
    return out


#: probability that a sampled point of a fixture is one of its finite values
P_DISCRETE = 0.3


@dataclass(frozen=True)
class ExampleFixture:
    """A finite-plus-interval space with its self-map and auxiliary pair."""

    name: str
    description: str
    finite_labels: tuple[str, ...]
    interval: tuple[float, float]
    s: float
    metric: Callable[[float, float], float]
    map: Callable[[float], float] | None = None
    pair: AuxiliaryPair | None = None
    variant: Variant | None = None
    fixed_point: float | None = None

    @cached_property
    def finite_values(self) -> tuple[float, ...]:
        return tuple(float(Fraction(p)) for p in self.finite_labels)

    def values(self, grid: int = 0) -> list[float]:
        if grid < 0:
            raise ParameterError(f"grid must be >= 0, got {grid}")
        vals = list(self.finite_values)
        if grid:
            vals.extend(_interval_grid(*self.interval, grid))
        return vals

    def space(self, grid: int = 0) -> FiniteSpace:
        """Finite table over the label set plus a uniform interval sample."""
        vals = self.values(grid)
        labels = list(self.finite_labels) + [repr(v) for v in vals[len(self.finite_labels):]]
        return FiniteSpace.from_metric(vals, self.metric, labels=labels)

    def sampled_space(self, grid: int = 32) -> SampledSpace:
        return SampledSpace(points=tuple(self.values(grid)), metric=self.metric)

    def contains(self, x: float) -> bool:
        """Whether x lies in A union B: a finite value or a point of the interval."""
        lo, hi = self.interval
        return lo <= x <= hi or x in self.finite_values

    def sampler(self) -> Callable:
        """Random point of A union B: a finite label with probability
        P_DISCRETE, otherwise uniform on the interval."""
        finite = self.finite_values
        lo, hi = self.interval

        def draw(rng: np.random.Generator) -> float:
            if rng.random() < P_DISCRETE:
                return finite[int(rng.integers(len(finite)))]
            return float(rng.uniform(lo, hi))

        return draw


# -- six reciprocals with a five-value table; b-rectangular with s = 3 ------

_TABLE_SIX = _build_table({
    ("1/2", "1/3"): 0.05, ("1/4", "1/5"): 0.05, ("1/6", "1/7"): 0.05,
    ("1/2", "1/4"): 0.08, ("1/3", "1/7"): 0.08, ("1/5", "1/6"): 0.08,
    ("1/2", "1/6"): 0.4, ("1/3", "1/4"): 0.4, ("1/5", "1/7"): 0.4,
    ("1/2", "1/5"): 0.24, ("1/3", "1/6"): 0.24, ("1/4", "1/7"): 0.24,
    ("1/2", "1/7"): 0.15, ("1/3", "1/5"): 0.15, ("1/4", "1/6"): 0.15,
})

# -- four points {0, 1/2, 1/3, 1/4} with a three-value table ----------------

_TABLE_FOUR = _build_table({
    ("0", "1/2"): 0.16, ("1/2", "1/3"): 0.16,
    ("0", "1/3"): 0.04, ("1/3", "1/4"): 0.04,
    ("0", "1/4"): 0.25, ("1/2", "1/4"): 0.25,
})


def _quartic_root_map(finite: frozenset[float], lo: float, hi: float,
                      exponent: float) -> Callable[[float], float]:
    def T(x: float) -> float:
        if x in finite:
            return 1.0
        if lo <= x <= hi:
            return x ** exponent
        raise ValueError(f"{x!r} is outside the fixture's domain")
    return T


_METRIC_SIX = _piecewise_metric(_TABLE_SIX)
_METRIC_FOUR = _piecewise_metric(_TABLE_FOUR)

EXAMPLE_2_2 = ExampleFixture(
    name="example-2.2",
    description="six reciprocal points plus [1, 2]; b-rectangular with s = 3",
    finite_labels=("1/2", "1/3", "1/4", "1/5", "1/6", "1/7"),
    interval=(1.0, 2.0),
    s=3.0,
    metric=_METRIC_SIX,
)

EXAMPLE_3_4 = ExampleFixture(
    name="example-3.4",
    description="{0, 1/2, 1/3, 1/4} plus [1, 2] with T = fourth root; "
                "type-F contraction for F = ln t + sqrt t, phi = 1/(1+t)",
    finite_labels=("0", "1/2", "1/3", "1/4"),
    interval=(1.0, 2.0),
    s=3.0,
    metric=_METRIC_FOUR,
    map=_quartic_root_map(frozenset({0.0, 0.5, 1.0 / 3.0, 0.25}), 1.0, 2.0, 0.25),
    pair=builtin_pair("ln_plus_sqrt", "inv_1p"),
    variant=Variant.TYPE_F,
    fixed_point=1.0,
)

EXAMPLE_3_10 = ExampleFixture(
    name="example-3.10",
    description="{0, 1/2, 1/3, 1/4} plus [1, 5/2] with T = sixth root; "
                "type-Im contraction for F = ln sqrt t, phi = 1/(2+t)",
    finite_labels=("0", "1/2", "1/3", "1/4"),
    interval=(1.0, 2.5),
    s=3.0,
    metric=_METRIC_FOUR,
    map=_quartic_root_map(frozenset({0.0, 0.5, 1.0 / 3.0, 0.25}), 1.0, 2.5, 1.0 / 6.0),
    pair=builtin_pair("ln_sqrt", "inv_2p"),
    variant=Variant.TYPE_IM,
    fixed_point=1.0,
)

SPACE_FIXTURES: dict[str, ExampleFixture] = {
    f.name: f for f in (EXAMPLE_2_2, EXAMPLE_3_4, EXAMPLE_3_10)
}


# -- integral instance: sine kernel scaled to satisfy the Lipschitz bound ---

SIN_KERNEL_SCALE = math.exp(-1.0) * 3.0 ** (-5.0)


def sin_kernel(t, r, x):
    """Takes floats or numpy arrays."""
    return SIN_KERNEL_SCALE * np.sin(x)


def integral_sin_problem(m: int = 65, lam: float | None = None,
                         quadrature: str = "trapezoid") -> IntegralProblem:
    """The sine-kernel instance on [0, 1] with s = 3 and lambda at the
    admissibility bound e^(-3)."""
    return IntegralProblem(
        a=0.0, b=1.0,
        lam=math.exp(-3.0) if lam is None else lam,
        kernel=sin_kernel, s=3.0, m=m, quadrature=quadrature)


INTEGRAL_FIXTURES: dict[str, Callable[..., IntegralProblem]] = {
    "integral-sin": integral_sin_problem,
}

MAP_REGISTRY: dict[str, Callable[[float], float]] = {
    "identity": lambda x: x,
    "example-3.4": EXAMPLE_3_4.map,
    "example-3.10": EXAMPLE_3_10.map,
}

ALL_FIXTURE_NAMES = tuple(SPACE_FIXTURES) + tuple(INTEGRAL_FIXTURES)
