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

Every exhaustive answer comes from one min-plus kernel pass, O(n^3) time
and O(n^2) memory, that gives for each pair both the minimal two-hop sum
d(x,z) + d(z,y) (triangles) and the minimal three-hop sum (quadrilaterals)
over its admissible middle points; a loaded table keeps both. A pair
violates an inequality iff its distance exceeds that minimum by more than
the tolerance; its coefficient is the distance over the minimum. Every
witness, classify's violations and validate's extremal quadruple alike,
comes from one rescan of only the pairs it concerns.

Distances are stored as floats and compared with an absolute tolerance
(default 1e-12, never negative); exact rational input such as ``"1/2"`` is
accepted in labels and table entries. Each is parsed once, to the float
``float(Fraction(text))`` gives: plain unsigned decimals and ratios by
``float()`` and ``int / int`` a row at a time, anything else through
``Fraction``; a square JSON table of numbers loads in one array call.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ClosureError, MalformedSpaceError, ParameterError, SizeLimitError

DEFAULT_TOL = 1e-12

# validate_space, minimal_coefficient and classify_space are exhaustive up
# to this many points; beyond it validate_space needs an explicit sample and
# the others refuse. Each costs one O(n^3) kernel pass, and the limit keeps
# a command within a budget of about 1 s end to end, table load included:
# through the CLI on |x_i - x_j|^1.75 tables, each command took 0.74-0.76 s
# at n = 550 from JSON numbers, 0.86-0.93 s from half tables of p/q strings
# and 0.96-1.03 s from CSV; at n = 600, 1.02-1.11 s from JSON numbers and
# 1.24-1.33 s from CSV (2-core x86-64, Python 3.11, numpy 2.4; minimum of
# 2 runs).
MAX_EXHAUSTIVE_POINTS = 550


# Unsigned ASCII decimals and ratios p/q, the forms table cells and labels
# take in practice. float() rounds a decimal and int / int a ratio
# correctly, as float(Fraction(cell)) does, so _parse_text and _plain_values
# take them without Fraction. Unsigned cells give +0.0 where they give zero,
# as Fraction does; float("-0.0") would be -0.0. Cells of over 640
# characters go through Fraction, because int() may refuse more than 640
# digits (the least sys.set_int_max_str_digits limit), and Fraction would
# then fail where float() does not.
_NUMBER = r"\+?(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
_CELL = re.compile(_NUMBER, re.ASCII)
_ROW = re.compile(rf"(?:{_NUMBER},)*{_NUMBER}", re.ASCII)
_PLAIN_LENGTH = 640


def _plain_value(cell: str) -> float:
    """The value of a cell of the _NUMBER grammar."""
    p, slash, q = cell.partition("/")
    return int(p) / int(q) if slash else float(p)


def _plain_values(cells: Sequence) -> list[float] | None:
    """float(Fraction(cell)) for every cell, if each is an unsigned plain
    decimal or p/q with a finite value; None otherwise."""
    try:
        text = ",".join(cells)
    except TypeError:
        return None
    if not cells or max(map(len, cells)) > _PLAIN_LENGTH or not _ROW.fullmatch(text):
        return None
    try:  # a cell holding a comma passes the match but fails here
        values = list(map(_plain_value, cells) if "/" in text else map(float, cells))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return values if max(values) < math.inf else None


# A decimal with an exponent, in the grammar Fraction reads in every
# supported Python. Fraction builds 10**exp exactly, which takes seconds
# for 1e10000000; far out of the float range, 1e400 or 1e-400 of the same
# sign stands in for it, with the same outcome: the same error or zero.
_SCIENTIFIC = re.compile(r"\s*([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?[eE]([+-]?\d+)\s*", re.ASCII)
_LOG10_2 = math.log10(2.0)


def _stand_in(text: str) -> str:
    """text, or a short decimal that float(Fraction(...)) treats the same."""
    match = _SCIENTIFIC.fullmatch(text)
    if match is None:
        return text
    sign, whole, fraction, exponent = match.groups(default="")
    # the int() calls Fraction makes, in its order, so that a string of
    # more digits than int() converts fails as it would there
    mantissa = int(whole or "0") * 10 ** len(fraction) + int(fraction or "0")
    scale = int(exponent) - len(fraction)   # the value is mantissa * 10**scale
    if mantissa == 0:
        return "0"
    bits = mantissa.bit_length()            # 2**(bits-1) <= mantissa < 2**bits
    if scale > 310 - (bits - 1) * _LOG10_2:  # above 1e310: overflows
        return sign + "1e400"
    if scale < -330 - bits * _LOG10_2:       # below 1e-330: rounds to zero
        return sign + "1e-400"
    return text


def _parse_text(text) -> float:
    """float(Fraction(text)), raising what that raises: ValueError,
    ZeroDivisionError, OverflowError, or TypeError for a non-number."""
    if isinstance(text, str):
        if len(text) <= _PLAIN_LENGTH and _CELL.fullmatch(text):
            try:
                value = _plain_value(text)
            except (ZeroDivisionError, OverflowError):
                value = math.inf
            if value < math.inf:
                return value
        text = _stand_in(text)
    return float(Fraction(text))


def parse_number(value) -> float:
    """Parse a table entry: float, int, or an exact-rational/decimal string."""
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            return _parse_text(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise MalformedSpaceError(f"cannot parse distance entry {value!r}")


def parse_label(label: str) -> float | None:
    """Numeric value of a point label, or None if the label is not numeric."""
    try:
        return _parse_text(label)
    except (ValueError, ZeroDivisionError, OverflowError):
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
    def _hop_minima(self) -> tuple[np.ndarray, np.ndarray]:
        """The two- and three-hop minima of the read-only table, from one
        _pair_denominator_minima pass shared by validate_space,
        minimal_coefficient and classify_space."""
        minima = _pair_denominator_minima(self.dist)
        for m in minima:
            m.flags.writeable = False
        return minima

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
        values = _plain_values(row) if len(row) <= n else None
        if values is not None:
            D[i, :len(values)] = values
            continue
        for j, cell in enumerate(row):
            if j >= n:
                raise MalformedSpaceError(f"row {i} has too many entries")
            if cell is None or (isinstance(cell, str) and not cell.strip()):
                continue
            value = parse_number(cell)
            if value != value:  # NaN marks a missing cell below, so reject it here
                raise _nan_error(points, i, j)
            D[i, j] = value
    D = np.where(np.isnan(D), D.T, D)
    missing = np.argwhere(np.isnan(D))
    if missing.size:
        i, j = map(int, missing[0])
        raise MalformedSpaceError(
            f"missing distance for pair ({points[i]!r}, {points[j]!r})",
            pair=(points[i], points[j]))
    return D


def _numeric_square(points: Sequence[str], rows: list) -> np.ndarray | None:
    """A square table of bools, ints and floats, from one array call; None
    for any other input (strings, blanks, half tables, ragged rows, ints
    beyond 64 bits), which _mirror_fill parses cell by cell."""
    try:
        A = np.array(rows)
    except (ValueError, TypeError, OverflowError):
        return None
    if A.dtype.kind not in "biuf" or A.shape != (len(points),) * 2:
        return None
    nan = np.argwhere(np.isnan(A))
    if nan.size:
        raise _nan_error(points, *map(int, nan[0]))
    return A.astype(float)


def _nan_error(points: Sequence[str], i: int, j: int) -> MalformedSpaceError:
    return MalformedSpaceError(f"non-finite distance nan at ({points[i]!r}, {points[j]!r})",
                               pair=(points[i], points[j]))


def read_json(text: str, error=MalformedSpaceError):
    """json.loads(text). Beyond a JSONDecodeError it raises a plain
    ValueError for an integer of more digits than int() converts (4,300 by
    default); that one becomes ``error``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise error(f"cannot read JSON: {exc}") from None


def space_from_json(source) -> FiniteSpace:
    """Load { "points": [...], "distances": [[...]] }; half tables are mirrored."""
    obj = source if isinstance(source, dict) else read_json(Path(source).read_text())
    if "points" not in obj or "distances" not in obj:
        raise MalformedSpaceError('space JSON needs "points" and "distances"')
    points = [(_canonical_label(p)) for p in obj["points"]]
    rows = [list(r) for r in obj["distances"]]
    D = _numeric_square(points, rows)
    return FiniteSpace(tuple(points), _mirror_fill(points, rows) if D is None else D)


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


def _check_tol(tol: float) -> None:
    """A tolerance widens each inequality; a negative one would report
    violations of inequalities that hold, and NaN would compare false."""
    if not tol >= 0:
        raise ParameterError(f"tolerance must be >= 0, got {tol}")


def _axiom1_failures(space: FiniteSpace, tol: float) -> tuple[tuple[str, str], ...]:
    pts = space.points
    return tuple((pts[i], pts[j]) for i, j in np.argwhere(np.triu(space.dist <= tol, 1)))


def _without_loops(D: np.ndarray) -> np.ndarray:
    """D with inf on the diagonal, so a path that stays at a point costs inf."""
    E = D.copy()
    np.fill_diagonal(E, np.inf)
    return E


def _pair_denominator_minima(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every ordered pair (i, j): the two-hop minimum of
    D[i,z] + D[z,j] over z outside {i, j}, and the three-hop minimum of
    D[i,u] + D[u,v] + D[v,j] over u != v, both outside {i, j}; inf on the
    diagonal and where no middle point is admissible.

    O(n^3) time, O(n^2) memory. Row i's two-hop minima are the first
    minimum its three-hop row is built from. Sums are associated as
    (D[i,u] + D[u,v]) + D[v,j], the order the witness rescan uses, so a
    rescanned path attains its pair's minimum bit for bit and ties between
    paths are exact. D must be exactly symmetric, as FiniteSpace ensures.
    """
    n = D.shape[0]
    idx = np.arange(n)
    E = _without_loops(D)                     # u == i, u == v and v == j drop out
    two, three = np.empty((n, n)), np.empty((n, n))
    B, C = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        # B[v, u] = D[u,v] + D[i,u], bit for bit D[i,u] + D[u,v]: D is
        # symmetric and float addition commutes; rows reduce contiguously
        np.add(E, E[i], out=B)
        B[i] = np.inf                         # v == i
        u1 = B.argmin(axis=1)
        m1 = two[i] = B[idx, u1]
        B[idx, u1] = np.inf
        m2 = B.min(axis=1)
        # C[v, j] = min over u != j of (D[i,u] + D[u,v]) + D[v,j]: the
        # runner-up where the argmin is j itself
        np.add(m1[:, None], E, out=C)
        C[idx, u1] = m2 + E[idx, u1]
        C.min(axis=0, out=three[i])
        three[i, i] = np.inf
    return two, three


def _ratio_matrix(D: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """D / denom, inf over a zero denominator; a zero distance needs no
    coefficient, so it gives 0 whatever its denominator."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(D > 0, D / denom, 0.0)


# The witness rescan takes middle points u in blocks of at most this many
# path costs (u x w x flagged y); a block holds at least one u.
_RESCAN_BLOCK = 1 << 12


def _rescan(space: FiniteSpace, flagged: np.ndarray, hit: Callable, limit: int,
            witness: type) -> tuple:
    """Witnesses for the first ``limit`` paths (x, u, w, y), in
    lexicographic index order, over the ``flagged`` pairs (x, y), whose
    cost (D[x,u] + D[u,w]) + D[w,y] passes ``hit(x, ys, cost)``; u lies
    outside {x, w, y} and w outside {x, y}. A TriangleWitness path
    (x, w, y) is scanned as (x, x, w, y), since D[x,x] = 0 adds nothing.
    ``cost`` holds the paths through a block of u to every w and every
    flagged y = ys[k], indexed [u, w, k]."""
    D, pts = space.dist, space.points
    n = len(pts)
    triangle = witness is TriangleWitness
    found = []
    for x in np.flatnonzero(flagged.any(axis=1)):
        ys = np.flatnonzero(flagged[x])
        us = np.array([x]) if triangle else np.delete(np.arange(n), x)
        step = max(1, _RESCAN_BLOCK // (n * len(ys)))
        for start in range(0, len(us), step):
            u = us[start:start + step]
            cost = (D[x, u][:, None] + D[u])[:, :, None] + D[:, ys]
            H = hit(x, ys, cost)
            H[:, x] = False                                  # w == x
            H[np.arange(len(u)), u] = False                  # w == u
            H &= (u[:, None] != ys)[:, None, :]              # y == u
            H[:, ys, np.arange(len(ys))] = False             # w == y
            for a, w, k in np.argwhere(H)[:limit - len(found)]:
                path = (x, w, ys[k]) if triangle else (x, u[a], w, ys[k])
                found.append(witness(*(pts[i] for i in path),
                                     float(D[x, ys[k]]), float(cost[a, w, k])))
            if len(found) >= limit:
                return tuple(found)
    return tuple(found)


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

    holds is true iff no distinct pair has distance <= tol and the maximal
    ratio d(x,y) / sum over admissible quadruples is at most s + tol: here
    tol bounds the ratio's excess over s, not d(x,y) - s * sum (unlike
    classify_space, which flags d(x,y) > sum + tol). minimal_s is filled
    by exhaustive enumeration (or by sampling when ``sample`` is given,
    mandatory above MAX_EXHAUSTIVE_POINTS). Spaces with fewer than
    4 points have no admissible quadruple; they report minimal_s = 1 with
    the vacuous flag set.
    """
    if s < 1:
        raise ValueError(f"coefficient s must be >= 1, got {s}")
    _check_tol(tol)
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
        raise SizeLimitError(
            f"{n} points exceeds the exhaustive limit ({MAX_EXHAUSTIVE_POINTS}); "
            f"pass sample=<count> to check a random subset of quadruples")

    if sample is None:
        minima = space._hop_minima[1]
        ratios = _ratio_matrix(space.dist, minima)
        max_ratio = float(ratios.max())
        # the first quadruple of a maximal-ratio pair that attains its minimum
        extremal = next(iter(_rescan(space, ratios == max_ratio,
                                     lambda x, ys, cost: cost <= minima[x, ys], 1,
                                     QuadrilateralWitness)), None)
    else:
        if sample < 1:
            raise ParameterError(f"sample count must be >= 1, got {sample}")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
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


def classify_space(space: FiniteSpace, *, tol: float = DEFAULT_TOL,
                   max_witnesses: int = 8) -> TaxonomyFlags:
    """Test the triangle inequality over all triples and the quadrilateral
    inequality (s = 1) over all quadruples, each from its minima kernel;
    report minimal relaxation coefficients for both (inf where a positive
    distance has a zero minimal sum) and the first violating tuples in
    index order with both sides."""
    _check_tol(tol)
    D = space.dist
    n = len(space.points)
    if n > MAX_EXHAUSTIVE_POINTS:
        raise SizeLimitError(
            f"{n} points exceeds the exhaustive limit ({MAX_EXHAUSTIVE_POINTS})")

    def decide(minima, witness):
        flagged = D > minima + tol
        return (not flagged.any(), max(1.0, float(_ratio_matrix(D, minima).max())),
                _rescan(space, flagged, lambda x, ys, cost: D[x, ys] > cost + tol,
                        max_witnesses, witness))

    two_hop, three_hop = space._hop_minima
    is_metric, b_metric_s, triangles = (
        decide(two_hop, TriangleWitness) if n >= 3 else (True, None, ()))
    is_rect, b_rect_s, quadrilaterals = (
        decide(three_hop, QuadrilateralWitness) if n >= 4 else (True, None, ()))
    return TaxonomyFlags(is_metric, is_rect, b_metric_s, b_rect_s, triangles, quadrilaterals)
