"""Finite generalized metric spaces: representation, axiom validation,
and taxonomy.

A finite space is a labeled point set with an explicit symmetric distance
table. The central questions answered here are:

* does the table satisfy the relaxed quadrilateral inequality
  d(x, y) <= s * [d(x, u) + d(u, v) + d(v, y)] for a given coefficient
  s >= 1, quantified over every quadruple of pairwise-distinct points;
* what is the smallest admissible coefficient (by exhaustive enumeration);
* is the table an ordinary metric (triangle inequality) or a rectangular
  space (quadrilateral inequality with s = 1), and if not, which concrete
  tuple breaks it.

Every exhaustive answer comes from a min-plus kernel: for each pair, the
minimal two-hop sum d(x,z) + d(z,y) (triangles) or three-hop sum
(quadrilaterals) over its admissible middle points, in O(n^3) time and
O(n^2) memory. A pair violates an inequality iff its distance exceeds that
minimum by more than the tolerance; its coefficient is the distance over
the minimum. Witnesses come from rescanning only the violating pairs.

Distances are stored as floats and compared with an absolute tolerance
(default 1e-12); exact rational input such as ``"1/2"`` is accepted in
labels and table entries and converted once.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ClosureError, MalformedSpaceError

DEFAULT_TOL = 1e-12

# Exhaustive quadruple enumeration is the default up to this many points
# (worst case ~1.5e9 ordered quadruples, handled vectorized); beyond it a
# caller must opt into sampling explicitly.
MAX_EXHAUSTIVE_POINTS = 200


def parse_number(value) -> float:
    """Parse a table entry: float, int, or an exact-rational/decimal string."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise MalformedSpaceError(f"cannot parse distance entry {value!r}")
    raise MalformedSpaceError(f"cannot parse distance entry {value!r}")


def parse_label(label: str) -> float | None:
    """Numeric value of a point label, or None if the label is not numeric."""
    try:
        return float(Fraction(label))
    except (ValueError, ZeroDivisionError):
        return None


def _canonical_label(point) -> str:
    if isinstance(point, str):
        return point
    if isinstance(point, Fraction):
        return f"{point.numerator}/{point.denominator}" if point.denominator != 1 else str(point.numerator)
    if isinstance(point, int):
        return str(point)
    if isinstance(point, float):
        return repr(point)
    return str(point)


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """A labeled point set with a symmetric nonnegative distance table.

    Structural requirements (square shape, finite entries, symmetry,
    nonnegative entries, zero diagonal) are enforced at construction and raise
    MalformedSpaceError naming the offending pair. The remaining axiom,
    "zero distance only between identical points", is *checked* by
    validate_space / classify_space and reported in-band rather than
    rejected here.
    """

    points: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        points = tuple(_canonical_label(p) for p in self.points)
        object.__setattr__(self, "points", points)
        D = np.array(self.dist, dtype=float)  # a copy: the caller's array stays as given
        n = len(points)
        if D.shape != (n, n):
            raise MalformedSpaceError(
                f"distance table shape {D.shape} does not match {n} points")
        if len(set(points)) != n:
            raise MalformedSpaceError("point labels must be unique")
        nonfinite = np.argwhere(~np.isfinite(D))
        if nonfinite.size:
            i, j = map(int, nonfinite[0])
            raise MalformedSpaceError(
                f"non-finite distance {float(D[i, j])!r} at ({points[i]!r}, {points[j]!r})",
                pair=(points[i], points[j]))
        for i in range(n):
            if abs(D[i, i]) > DEFAULT_TOL:
                raise MalformedSpaceError(
                    f"nonzero self-distance {D[i, i]!r} at point {points[i]!r}",
                    pair=(points[i], points[i]))
        D[np.arange(n), np.arange(n)] = 0.0
        bad = np.argwhere(D != D.T)
        if bad.size:
            i, j = map(int, bad[0])
            raise MalformedSpaceError(
                f"asymmetric entries at ({points[i]!r}, {points[j]!r}): "
                f"{float(D[i, j])!r} vs {float(D[j, i])!r}",
                pair=(points[i], points[j]))
        neg = np.argwhere(D < 0)
        if neg.size:
            i, j = map(int, neg[0])
            raise MalformedSpaceError(
                f"negative distance {float(D[i, j])!r} at "
                f"({points[i]!r}, {points[j]!r})", pair=(points[i], points[j]))
        D.flags.writeable = False
        object.__setattr__(self, "dist", D)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(points)})

    @cached_property
    def _three_hop_minima(self) -> np.ndarray:
        """_pair_denominator_minima of the read-only table, computed once
        for validate_space, minimal_coefficient and classify_space."""
        denom = _pair_denominator_minima(self.dist)
        denom.flags.writeable = False
        return denom

    @classmethod
    def from_table(cls, points: Sequence, table: Sequence[Sequence]) -> "FiniteSpace":
        D = [[parse_number(v) for v in row] for row in table]
        return cls(tuple(points), np.array(D, dtype=float))

    @classmethod
    def from_metric(cls, values: Sequence[float],
                    metric: Callable[[float, float], float],
                    labels: Sequence[str] | None = None) -> "FiniteSpace":
        n = len(values)
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = metric(values[i], values[j])
        pts = tuple(labels) if labels is not None else tuple(_canonical_label(v) for v in values)
        return cls(pts, D)

    # -- lookups ----------------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ClosureError(label) from None

    def contains(self, label) -> bool:
        return label in self._index

    def distance(self, a: str, b: str) -> float:
        return float(self.dist[self.index(a), self.index(b)])

    @property
    def values(self) -> tuple[float | None, ...]:
        return tuple(parse_label(p) for p in self.points)

    def permuted(self, order: Sequence[int]) -> "FiniteSpace":
        """Same space with points reordered; useful for invariance checks."""
        order = list(order)
        pts = tuple(self.points[i] for i in order)
        return FiniteSpace(pts, self.dist[np.ix_(order, order)])

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"points": list(self.points),
                "distances": [list(map(float, row)) for row in self.dist]}

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2))


def _mirror_fill(points: Sequence[str], rows: list[list]) -> np.ndarray:
    """Assemble a full table from square or half (triangular / None-padded) input."""
    n = len(points)
    D = np.full((n, n), np.nan)
    for i, row in enumerate(rows):
        if i >= n:
            raise MalformedSpaceError(f"too many table rows ({len(rows)}) for {n} points")
        for j, cell in enumerate(row):
            if j >= n:
                raise MalformedSpaceError(f"row {i} has too many entries")
            if cell is None or (isinstance(cell, str) and not cell.strip()):
                continue
            value = parse_number(cell)
            if value != value:  # NaN marks a missing cell below, so reject it here
                raise MalformedSpaceError(
                    f"non-finite distance nan at ({points[i]!r}, {points[j]!r})",
                    pair=(points[i], points[j]))
            D[i, j] = value
    D = np.where(np.isnan(D), D.T, D)
    missing = np.argwhere(np.isnan(D))
    if missing.size:
        i, j = map(int, missing[0])
        raise MalformedSpaceError(
            f"missing distance for pair ({points[i]!r}, {points[j]!r})",
            pair=(points[i], points[j]))
    return D


def space_from_json(source) -> FiniteSpace:
    """Load { "points": [...], "distances": [[...]] }; half tables are mirrored."""
    obj = json.loads(Path(source).read_text()) if not isinstance(source, dict) else source
    if "points" not in obj or "distances" not in obj:
        raise MalformedSpaceError('space JSON needs "points" and "distances"')
    points = [(_canonical_label(p)) for p in obj["points"]]
    return FiniteSpace(tuple(points), _mirror_fill(points, [list(r) for r in obj["distances"]]))


def space_from_csv(path) -> FiniteSpace:
    """Load a CSV matrix with a header row of labels.

    Rows may carry an optional leading row-label cell; blank cells are
    mirrored from the transposed position.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if not rows:
        raise MalformedSpaceError(f"{path}: empty CSV")
    header = [c.strip() for c in rows[0]]
    body = [[c.strip() for c in row] for row in rows[1:]]
    # corner-cell layout: header[0] is filler and rows carry their label
    if len(header) > 1 and len(body) == len(header) - 1 and \
            all(row and row[0] == p for row, p in zip(body, header[1:])):
        points = header[1:]
        body = [row[1:] for row in body]
    else:
        points = [p for p in header if p]
    if len(body) != len(points):
        raise MalformedSpaceError(
            f"{path}: expected {len(points)} data rows, found {len(body)}")
    return FiniteSpace(tuple(points), _mirror_fill(points, body))


def load_space(path) -> FiniteSpace:
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return space_from_csv(p)
    return space_from_json(p)


@dataclass(frozen=True)
class SampledSpace:
    """A finite sample of a continuous space whose metric stays evaluable
    off-sample. Points are numeric values; the metric is a callable."""

    points: tuple[float, ...]
    metric: Callable[[float, float], float]

    def distance(self, a: float, b: float) -> float:
        return float(self.metric(a, b))

    def contains(self, point) -> bool:  # continuum: membership is not checked
        return True


# ---------------------------------------------------------------------------
# witnesses and reports


@dataclass(frozen=True)
class QuadrilateralWitness:
    """A quadruple (x, u, v, y) with d(x, y) on the left and the three-hop
    sum d(x,u) + d(u,v) + d(v,y) on the right."""

    x: str
    u: str
    v: str
    y: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else float("inf")

    def to_dict(self) -> dict:
        return {"x": self.x, "u": self.u, "v": self.v, "y": self.y,
                "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio}


@dataclass(frozen=True)
class TriangleWitness:
    """A triple (x, z, y) with d(x, y) on the left and d(x,z) + d(z,y) on
    the right."""

    x: str
    z: str
    y: str
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"x": self.x, "z": self.z, "y": self.y,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class CoefficientReport:
    """Outcome of checking the relaxed quadrilateral inequality at a
    requested coefficient.

    minimal_s is the smallest admissible coefficient: the maximum ratio
    d(x,y) / [d(x,u)+d(u,v)+d(v,y)] over admissible quadruples, clamped
    below at 1 because the coefficient is defined to be >= 1. The raw
    maximum is kept in max_ratio. witness is filled only on violation;
    extremal always names a ratio-maximizing quadruple (lexicographically
    smallest among maximizers, by point index)."""

    requested_s: float
    holds: bool
    minimal_s: float
    witness: QuadrilateralWitness | None
    vacuous: bool = False
    exhaustive: bool = True
    max_ratio: float = float("nan")
    extremal: QuadrilateralWitness | None = None
    axiom1_failures: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "requested_s": self.requested_s,
            "holds": self.holds,
            "minimal_s": self.minimal_s,
            "max_ratio": self.max_ratio,
            "vacuous": self.vacuous,
            "exhaustive": self.exhaustive,
            "witness": self.witness.to_dict() if self.witness else None,
            "extremal": self.extremal.to_dict() if self.extremal else None,
            "axiom1_failures": [list(p) for p in self.axiom1_failures],
        }


@dataclass(frozen=True)
class TaxonomyFlags:
    """Classification of a finite table: ordinary metric, rectangular
    (s = 1 quadrilateral), and the minimal relaxation coefficients for
    both shapes. Witness lists are sorted lexicographically by point
    index and truncated."""

    is_metric: bool
    is_rectangular: bool
    b_metric_s: float | None
    b_rectangular_s: float | None
    triangle_witnesses: tuple[TriangleWitness, ...] = ()
    quadrilateral_witnesses: tuple[QuadrilateralWitness, ...] = ()

    @property
    def witnesses(self) -> tuple:
        return self.triangle_witnesses + self.quadrilateral_witnesses

    def to_dict(self) -> dict:
        return {
            "is_metric": self.is_metric,
            "is_rectangular": self.is_rectangular,
            "b_metric_s": self.b_metric_s,
            "b_rectangular_s": self.b_rectangular_s,
            "triangle_witnesses": [w.to_dict() for w in self.triangle_witnesses],
            "quadrilateral_witnesses": [w.to_dict() for w in self.quadrilateral_witnesses],
        }


# ---------------------------------------------------------------------------
# quadruple enumeration (vectorized, exact)


def _axiom1_failures(space: FiniteSpace, tol: float) -> tuple[tuple[str, str], ...]:
    pts = space.points
    return tuple((pts[i], pts[j]) for i, j in np.argwhere(np.triu(space.dist <= tol, 1)))


def _without_loops(D: np.ndarray) -> np.ndarray:
    """D with inf on the diagonal, so a path that stays at a point costs inf."""
    E = D.copy()
    np.fill_diagonal(E, np.inf)
    return E


def _pair_denominator_minima(D: np.ndarray) -> np.ndarray:
    """For every ordered pair (i, j): the minimum of
    D[i,u] + D[u,v] + D[v,j] over u != v, both outside {i, j}.

    O(n^3) time, O(n^2) memory. Sums are associated as
    (D[i,u] + D[u,v]) + D[v,j], the order every witness rescan uses, so a
    rescanned quadruple attains its pair's minimum bit for bit and ties
    between quadruples are exact.
    """
    n = D.shape[0]
    idx = np.arange(n)
    E = _without_loops(D)                     # u == i, u == v and v == j drop out
    denom = np.full((n, n), np.inf)
    for i in range(n):
        B = E[i][:, None] + E                 # B[u, v] = D[i,u] + D[u,v]
        B[:, i] = np.inf                      # v == i
        u1 = B.argmin(axis=0)
        m1 = B[u1, idx]
        B[u1, idx] = np.inf
        m2 = B.min(axis=0)
        # min over u excluding u == j: runner-up where the argmin is j itself
        best_u = np.where(u1[:, None] == idx[None, :], m2[:, None], m1[:, None])
        row = (best_u + E).min(axis=0)        # over v of min_u(...) + D[v, j]
        row[i] = np.inf
        denom[i] = row
    return denom


def _ratio_matrix(D: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """D / denom, inf over a zero denominator; a zero distance needs no
    coefficient, so it gives 0 whatever its denominator."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(D > 0, D / denom, 0.0)


def _extremal_quadruple(space: FiniteSpace, D: np.ndarray, ratios: np.ndarray,
                        target: float) -> QuadrilateralWitness | None:
    """Lexicographically smallest quadruple (by point index) among those
    achieving ratio == target with their pair's minimal sum."""
    pairs = np.argwhere(ratios == target)
    if pairs.size == 0:
        return None
    n = D.shape[0]
    idx = np.arange(n)
    i = int(pairs[0, 0])                      # argwhere is row-major
    candidates: list[tuple[int, int, int, int]] = []
    for j in pairs[pairs[:, 0] == i, 1]:
        S = (D[i][:, None] + D) + D[:, j][None, :]   # S[u, v]
        S[idx, idx] = np.inf                  # u == v
        S[[i, j], :] = np.inf                 # u in {i, j}
        S[:, [i, j]] = np.inf                 # v in {i, j}
        u, v = np.unravel_index(int(S.argmin()), S.shape)   # first minimum
        candidates.append((i, int(u), int(v), int(j)))
    qi, qu, qv, qj = min(candidates)
    pts = space.points
    lhs = float(D[qi, qj])
    rhs = float(D[qi, qu] + D[qu, qv] + D[qv, qj])
    return QuadrilateralWitness(pts[qi], pts[qu], pts[qv], pts[qj], lhs, rhs)


# Sampled quadruples are drawn and evaluated this many at a time, so memory
# stays bounded whatever the sample count.
_SAMPLE_BLOCK = 1 << 16


def _sample_quadruples(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` ordered quadruples of pairwise-distinct indices, uniformly:
    the k-th index is drawn among the n - k points not yet taken and shifted
    past the taken ones in ascending order."""
    picks = np.empty((4, size), dtype=np.intp)
    for k in range(4):
        c = rng.integers(0, n - k, size=size)
        for taken in np.sort(picks[:k], axis=0):
            c += c >= taken
        picks[k] = c
    return picks


def _sampled_max_ratio(space: FiniteSpace, sample: int, seed: int
                       ) -> tuple[float, QuadrilateralWitness | None]:
    """Maximum ratio over ``sample`` seeded random quadruples and the first
    draw attaining it."""
    D = space.dist
    pts = space.points
    rng = np.random.default_rng(seed)
    max_ratio, extremal = 0.0, None
    for start in range(0, sample, _SAMPLE_BLOCK):
        i, u, v, j = _sample_quadruples(rng, len(pts), min(_SAMPLE_BLOCK, sample - start))
        denom = (D[i, u] + D[u, v]) + D[v, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = D[i, j] / denom
        ratio[np.isnan(ratio)] = -np.inf      # a NaN never becomes the maximum
        k = int(ratio.argmax())
        if ratio[k] > max_ratio:
            max_ratio = float(ratio[k])
            extremal = QuadrilateralWitness(pts[i[k]], pts[u[k]], pts[v[k]], pts[j[k]],
                                            float(D[i[k], j[k]]), float(denom[k]))
    return max_ratio, extremal


def validate_space(space: FiniteSpace, s: float, *, tol: float = DEFAULT_TOL,
                   sample: int | None = None, seed: int = 0) -> CoefficientReport:
    """Check all three axioms at coefficient ``s``.

    holds is true iff no distinct pair has zero distance and every
    admissible quadruple satisfies d(x,y) <= s * sum + tol. minimal_s is
    filled by exhaustive enumeration (or by sampling when ``sample`` is
    given, mandatory above MAX_EXHAUSTIVE_POINTS). Spaces with fewer than
    4 points have no admissible quadruple; they report minimal_s = 1 with
    the vacuous flag set.
    """
    if s < 1:
        raise ValueError(f"coefficient s must be >= 1, got {s}")
    n = len(space.points)
    if n < 1:
        raise ValueError("space must have at least one point")
    axiom1 = _axiom1_failures(space, tol)

    if n < 4:
        return CoefficientReport(requested_s=s, holds=not axiom1, minimal_s=1.0,
                                 witness=None, vacuous=True, max_ratio=1.0,
                                 axiom1_failures=axiom1)
    if axiom1:
        # zero distances make denominators degenerate; no coefficient helps
        return CoefficientReport(requested_s=s, holds=False, minimal_s=float("inf"),
                                 witness=None, max_ratio=float("inf"),
                                 axiom1_failures=axiom1)

    if sample is None and n > MAX_EXHAUSTIVE_POINTS:
        raise ValueError(
            f"{n} points exceeds the exhaustive limit ({MAX_EXHAUSTIVE_POINTS}); "
            f"pass sample=<count> to check a random subset of quadruples")

    if sample is None:
        D = space.dist
        ratios = _ratio_matrix(D, space._three_hop_minima)
        max_ratio = float(ratios.max())
        extremal = _extremal_quadruple(space, D, ratios, max_ratio)
    else:
        if sample < 1:
            raise ValueError("sample count must be >= 1")
        max_ratio, extremal = _sampled_max_ratio(space, sample, seed)

    holds = max_ratio <= s + tol
    return CoefficientReport(
        requested_s=s, holds=holds, minimal_s=max(1.0, max_ratio),
        witness=None if holds else extremal,
        exhaustive=sample is None, max_ratio=max_ratio, extremal=extremal,
        axiom1_failures=axiom1)


def minimal_coefficient(space: FiniteSpace, *, tol: float = DEFAULT_TOL) -> float:
    """Smallest admissible coefficient, by exhaustive enumeration: the
    minimal_s of validate_space.

    Spaces with fewer than 4 points report 1 (the inequality is vacuous).
    A zero distance between distinct points makes denominators degenerate
    and is rejected as malformed input.
    """
    report = validate_space(space, 1.0, tol=tol)
    if report.axiom1_failures and not report.vacuous:
        a, b = report.axiom1_failures[0]
        raise MalformedSpaceError(
            f"zero distance between distinct points {a!r} and {b!r} makes "
            f"quadruple denominators vanish", pair=(a, b))
    return report.minimal_s


# ---------------------------------------------------------------------------
# taxonomy


def _two_hop_minima(D: np.ndarray) -> np.ndarray:
    """For every ordered pair (x, y) with x != y: the minimum of
    D[x,z] + D[z,y] over z outside {x, y}; inf on the diagonal.
    O(n^3) time, O(n^2) memory, one row x at a time."""
    E = _without_loops(D)                     # z == x and z == y drop out
    minima = np.empty_like(E)
    for x in range(len(E)):
        minima[x] = (E[x][:, None] + E).min(axis=0)
    np.fill_diagonal(minima, np.inf)
    return minima


def _first_violations(D: np.ndarray, flagged: np.ndarray, tol: float, limit: int,
                      prefixes: Callable):
    """The first ``limit`` paths (x, *middle, w, y) of pairwise-distinct
    points, in lexicographic index order, with d(x,y) > cost + tol, each
    with d(x,y) and its cost. Only the pairs ``flagged`` by their minimal
    cost are rescanned. ``prefixes(x)`` yields, in index order, each middle
    (a tuple of indices) with the cost vector of the paths from x through
    it to every w; the cost of the path to y is that prefix[w] + D[w,y]."""
    n = D.shape[0]
    found = []
    for x in np.flatnonzero(flagged.any(axis=1)):
        ys = np.flatnonzero(flagged[x])
        for middle, prefix in prefixes(x):
            T = prefix[:, None] + D[:, ys]             # T[w, k], y = ys[k]
            V = D[x, ys][None, :] > T + tol
            on_path = np.zeros(n, dtype=bool)
            on_path[[x, *middle]] = True
            V[on_path, :] = False                       # w on the path
            V[:, on_path[ys]] = False                   # y on the path
            V[ys, np.arange(len(ys))] = False           # w == y
            for w, k in np.argwhere(V)[:limit - len(found)]:
                y = int(ys[k])
                found.append(((int(x), *middle, int(w), y), float(D[x, y]), float(T[w, k])))
            if len(found) >= limit:
                return found
    return found


def classify_space(space: FiniteSpace, *, tol: float = DEFAULT_TOL,
                   max_witnesses: int = 8) -> TaxonomyFlags:
    """Test the triangle inequality over all triples and the quadrilateral
    inequality (s = 1) over all quadruples, each from its minima kernel;
    report minimal relaxation coefficients for both (inf where a positive
    distance has a zero minimal sum) and the first violating tuples in
    index order with both sides."""
    D = space.dist
    n = len(space.points)
    if n > MAX_EXHAUSTIVE_POINTS:
        raise ValueError(
            f"{n} points exceeds the exhaustive limit ({MAX_EXHAUSTIVE_POINTS})")

    def decide(minima, prefixes, witness):
        flagged = D > minima + tol
        found = _first_violations(D, flagged, tol, max_witnesses, prefixes)
        return (not flagged.any(), max(1.0, float(_ratio_matrix(D, minima).max())),
                tuple(witness(*(space.points[i] for i in path), lhs, rhs)
                      for path, lhs, rhs in found))

    is_metric, b_metric_s, triangles = True, None, ()
    if n >= 3:
        is_metric, b_metric_s, triangles = decide(
            _two_hop_minima(D), lambda x: [((), D[x])], TriangleWitness)
    is_rect, b_rect_s, quadrilaterals = True, None, ()
    if n >= 4:
        is_rect, b_rect_s, quadrilaterals = decide(
            space._three_hop_minima,
            lambda x: (((u,), D[x, u] + D[u]) for u in range(n) if u != x),
            QuadrilateralWitness)
    return TaxonomyFlags(is_metric, is_rect, b_metric_s, b_rect_s, triangles, quadrilaterals)
