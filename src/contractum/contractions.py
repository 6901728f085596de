"""Contraction inequality checking for a self-map over a finite space or
a sampled continuous domain.

Each variant is one row of ``_CONDITIONS``. A pair is vacuous unless
d' = d(Tx, Ty) > 0; else it holds iff F(s^power * d') + phi(d(x, y)) <=
F(A), where the row's ``rhs(d(x,y), mx, my, d(y,Tx), betas, top)`` gives

* typeF  (power 1, symmetric):          A = d(x, y)
* typeIm (power 2):                     A = max{d(x,y), d(x,Tx), d(y,Ty), d(y,Tx)}
* kannan (power 2, guarded, symmetric): A = (d(x,Tx) + d(y,Ty)) / 2
* reich  (power 2, guarded, symmetric): A = (d(x,y) + d(x,Tx) + d(y,Ty)) / 3
* beta   (power 2, guarded, from_image): A = b1 d(x,y) + b2 d(Tx,x) + b3 d(Ty,y) + b4 d(y,Tx)

mx and my are the displacements of x and y: d(p, Tp), or d(Tp, p) for a
row with ``from_image``, as the beta formula is written. ``top`` is
``max`` for floats and a reduction with np.maximum for arrays, so one
formula gives both paths the same bits and keeps Fractions exact. For a
``guarded`` row a vanishing A is vacuous, as F is undefined at 0; for the
others it raises. A ``symmetric`` row's A does not change when x and y
swap, in exact arithmetic (in floats Reich's sum can move by an ulp), so
the orientation (x, y) in loop order decides the pair, and d(y, Tx) is
not passed; the other rows are checked in both orientations of every
unordered pair.

A margin of rhs - lhs >= -1e-9 counts as holding (F compositions amplify
rounding near small distances); reported margins are raw.

check_pair is the one-pair reference: T applied to both points, then the
scalar verdict _verdict. verify_over_finite and verify_over_sample give
exactly its verdicts, but decide them in blocks of pairs with numpy
arrays: T is applied once per point, in order; the distances d(x,y),
d(x,Tx), d(y,Ty), d(y,Tx), d(Tx,Ty) are read from the table through the
image indices, or come from the metric's array mode; F and phi are
evaluated once per block. Callables that cannot take arrays are applied
element by element. Arrays only decide statuses: numpy's log and square
can differ from libm's log and pow in the last place, so the scalar
verdict re-decides every orientation whose margin or guard quantity lies
within a relative band of 2^-30 of its threshold (relative to the larger
of 1 and the terms of the margin, for margins). Every number that is
reported comes from the scalar verdict. For each such orientation, and
each violation the arrays decide, _verdict runs on the images the block
already holds, with the scalar distance (a table entry, or the metric's
scalar mode on the points and images as T gave them) and the scalar F
and phi, and each point's displacement d(p, Tp) is computed once; T is
applied exactly once per point of a block, and the metric sees only
arguments check_pair would pass it. Every verdict under
collect_all comes from check_pair. A block in which an array call or a
scalar verdict fails, or in which some pair would make check_pair raise,
is re-run pair by pair in loop order, so the error names the same first
failing pair. Sampled pairs are drawn as before, x then y for each pair,
so a seed gives the same sample. The array path takes the metric to be
symmetric, as a metric is, and F and phi in array mode to agree with
their scalar values to well within the band. FiniteSpace.from_metric, by
contrast, stays scalar on purpose: it stores the metric's values, and an
array metric would change them, and the minimal s printed from them, in
the last place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ClosureError, FunctionDomainError, ParameterError
from .expressions import array_values
from .families import AuxiliaryPair
from .spaces import FiniteSpace, SampledSpace

MARGIN_TOL = 1e-9
GUARD_TOL = 1e-12


class Variant(str, Enum):
    TYPE_F = "typeF"
    TYPE_IM = "typeIm"
    KANNAN = "kannan"
    REICH = "reich"
    BETA_COMBO = "beta"


@dataclass(frozen=True)
class _Condition:
    rhs: Callable
    power: int = 2
    guarded: bool = False
    symmetric: bool = True
    from_image: bool = False


_CONDITIONS: dict[Variant, _Condition] = {
    Variant.TYPE_F: _Condition(lambda d, mx, my, c, b, top: d, power=1),
    Variant.TYPE_IM: _Condition(lambda d, mx, my, c, b, top: top(d, mx, my, c), symmetric=False),
    Variant.KANNAN: _Condition(lambda d, mx, my, c, b, top: (mx + my) / 2, guarded=True),
    Variant.REICH: _Condition(lambda d, mx, my, c, b, top: (d + mx + my) / 3, guarded=True),
    Variant.BETA_COMBO: _Condition(
        lambda d, mx, my, c, b, top: b[0] * d + b[1] * mx + b[2] * my + b[3] * c,
        guarded=True, symmetric=False, from_image=True),
}


class Status(str, Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class ContractionSpec:
    """Which inequality to test, with its coefficient and auxiliary pair.

    ``tau`` models the constant-perturbation shortcut: when set, phi is
    replaced by the constant function tau. ``betas`` are required for the
    beta-combo variant (four nonnegative weights summing to at most 1) and
    must be absent otherwise.
    """

    variant: Variant
    s: float
    pair: AuxiliaryPair
    betas: tuple[float, float, float, float] | None = None
    tau: float | None = None

    def __post_init__(self):
        if not self.s >= 1:
            raise ParameterError(f"coefficient s must be >= 1, got {self.s}")
        if self.variant is Variant.BETA_COMBO:
            if self.betas is None:
                raise ParameterError("beta-combo requires four beta weights")
            betas = tuple(float(b) for b in self.betas)
            if len(betas) != 4 or any(not b >= 0 for b in betas):
                raise ParameterError("betas must be four nonnegative reals")
            if sum(betas) > 1 + 1e-12:
                raise ParameterError(f"betas must sum to at most 1, got {sum(betas)}")
            object.__setattr__(self, "betas", betas)
        elif self.betas is not None:
            raise ParameterError(f"variant {self.variant.value} does not take betas")
        if self.tau is not None and not self.tau > 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")

    def phi(self, t: float) -> float:
        return self.tau if self.tau is not None else self.pair.phi(t)


@dataclass(frozen=True)
class PairVerdict:
    x: Any
    y: Any
    status: Status
    lhs: float | None = None
    rhs: float | None = None

    @property
    def margin(self) -> float | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {"x": str(self.x), "y": str(self.y), "status": self.status.value,
                "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


def _apply_map(space, T, x):
    tx = T(x)
    if not space.contains(tx):
        raise ClosureError(x)
    return tx


def check_pair(spec: ContractionSpec, space, T: Callable, x, y, *,
               tol: float = MARGIN_TOL) -> PairVerdict:
    """Verdict for one ordered pair: vacuous when the guard d(Tx, Ty) > 0
    fails, or a guarded row's argument A vanishes. A nonpositive F or phi
    argument in any other case raises FunctionDomainError carrying (x, y,
    argument)."""
    tx = _apply_map(space, T, x)
    ty = _apply_map(space, T, y)
    d = space.distance
    moved = (lambda p, tp: d(tp, p)) if _CONDITIONS[spec.variant].from_image else d
    return PairVerdict(x, y, *_verdict(spec, d, moved, x, y, tx, ty, tol))


def _verdict(spec: ContractionSpec, d, moved, x, y, tx, ty,
             tol: float) -> tuple[Status, float | None, float | None]:
    """Status, lhs and rhs of the pair (x, y) with images tx and ty, from
    the scalar distance d and moved(p, Tp), the displacement of p as the
    row reads it. check_pair and the block path share it."""
    d_txy = d(tx, ty)
    if d_txy <= GUARD_TOL:
        return Status.VACUOUS, None, None

    row = _CONDITIONS[spec.variant]
    d_xy = d(x, y)
    arg = row.rhs(d_xy, moved(x, tx), moved(y, ty), None if row.symmetric else d(y, tx),
                  spec.betas, max)
    if row.guarded and arg <= GUARD_TOL:
        return Status.VACUOUS, None, None
    if arg <= 0 or d_xy <= 0:
        name, value = ("F", arg) if arg <= 0 else ("phi", d_xy)
        raise FunctionDomainError(
            f"{name} argument {value!r} is not positive for pair ({x!r}, {y!r})",
            argument=value, context=(x, y, value))

    lhs = spec.pair.F(spec.s ** row.power * d_txy)
    rhs = spec.pair.F(arg) - spec.phi(d_xy)
    return (Status.HOLDS if rhs - lhs >= -tol else Status.VIOLATED), lhs, rhs


@dataclass
class VerificationSummary:
    """Aggregated verdicts. A pair counts as violated if any tested
    orientation is violated; vacuity is symmetric (the guard d(Tx,Ty) is),
    so the three counters partition the pairs."""

    total: int = 0
    holds: int = 0
    vacuous: int = 0
    violated: int = 0
    violations: list[PairVerdict] = field(default_factory=list)
    verdicts: list[PairVerdict] | None = None

    @property
    def passed(self) -> bool:
        return self.violated == 0

    def to_dict(self) -> dict:
        out = {"total": self.total, "holds": self.holds,
               "vacuous": self.vacuous, "violated": self.violated,
               "passed": self.passed,
               "violations": [v.to_dict() for v in self.violations]}
        if self.verdicts is not None:
            out["verdicts"] = [v.to_dict() for v in self.verdicts]
        return out


# ---------------------------------------------------------------------------
# the array path


#: pairs per block: bounds the memory of the per-pair arrays
_PAIR_BLOCK = 1 << 15
#: relative band around a threshold in which the scalar verdict decides the status
_BAND = 2.0 ** -30

#: status codes; an unordered pair's code is the largest of its orientations'
_VACUOUS, _HOLDS, _VIOLATED = 0, 1, 2
_CODE = {Status.VACUOUS: _VACUOUS, Status.HOLDS: _HOLDS, Status.VIOLATED: _VIOLATED}


class _Reference(Exception):
    """Some pair of the block makes check_pair raise: the reference loop
    re-runs the block, so the first such pair raises its own error."""


@dataclass(frozen=True)
class _Frame:
    """Points and their images as the array path reads them: ``coord`` and
    ``image`` are what ``dist`` takes (table indices, or point values under
    a metric), and ``moved`` is d(p, Tp) for each point. The scalar
    verdicts of the flagged orientations read the scalar distance
    ``scalar`` instead, over the position of each point and the position
    ``target[p]`` of its image, and keep each point's displacement in
    ``displaced``."""

    points: Sequence
    coord: np.ndarray
    image: np.ndarray
    moved: np.ndarray
    dist: Callable[[np.ndarray, np.ndarray], np.ndarray]
    target: Sequence[int]
    scalar: Callable[[int, int], float]
    displaced: dict = field(default_factory=dict)


def _frame(space, T: Callable, points: Sequence) -> _Frame | None:
    """T applied once to each point, in order. None when T fails on a point
    or the points cannot go into arrays: the reference loop then decides,
    and raises where and what it raises."""
    try:
        images = [_apply_map(space, T, p) for p in points]
        if isinstance(space, FiniteSpace):
            coord = np.arange(len(points))
            image = np.array([space.index(t) for t in images], dtype=np.intp)
            table = space.dist
            dist = lambda a, b: table[a, b]
            target = image.tolist()
            scalar = lambda a, b: float(table[a, b])  # what space.distance gives
        else:
            coord = np.array(points, dtype=float)
            image = np.array(images, dtype=float)
            dist = lambda a, b: array_values(space.metric, a, b)
            # the metric's scalar mode on the points and images as given:
            # Python's d ** 2 and numpy's can differ in the last place
            values = [*points, *images]
            target = range(len(points), len(values))
            scalar = lambda a, b: space.distance(values[a], values[b])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            moved = dist(coord, image)
    except Exception:  # whatever it is, the reference loop meets it again
        return None
    return _Frame(points, coord, image, moved, dist, target, scalar)


def _near(q: np.ndarray, threshold: float) -> np.ndarray:
    return np.abs(q - threshold) <= _BAND * np.maximum(np.abs(q), abs(threshold))


def _orientation_codes(spec: ContractionSpec, tol: float, d_xy, d_txty,
                       d_xtx, d_yty, d_ytx) -> tuple[np.ndarray, np.ndarray]:
    """Status codes of one orientation (x, y) over a block, and the mask of
    pairs near a threshold, whose status the scalar verdict decides."""
    row = _CONDITIONS[spec.variant]
    arg = row.rhs(d_xy, d_xtx, d_yty, d_ytx, spec.betas, lambda *a: np.maximum.reduce(a))
    vacuous = d_txty <= GUARD_TOL
    near = _near(d_txty, GUARD_TOL)
    if row.guarded:
        vacuous |= arg <= GUARD_TOL
        near |= _near(arg, GUARD_TOL)
    live = ~(vacuous | near)
    arg, d_xy, d_txty = arg[live], d_xy[live], d_txty[live]
    if (d_xy <= 0).any() or (not row.guarded and (arg <= 0).any()):
        raise _Reference
    lhs = array_values(spec.pair.F, spec.s ** row.power * d_txty)
    f_arg = array_values(spec.pair.F, arg)
    phi = array_values(spec.phi, d_xy)
    margin = (f_arg - phi) - lhs
    size = np.maximum(np.maximum(np.abs(lhs), np.abs(f_arg)), np.maximum(np.abs(phi), 1.0))
    codes = np.zeros(len(live), dtype=np.uint8)
    codes[live] = np.where(margin >= -tol, _HOLDS, _VIOLATED)
    near[live] = np.abs(margin + tol) <= _BAND * size
    return codes, near


def _array_block(spec: ContractionSpec, tol: float, frame: _Frame, i: np.ndarray,
                 j: np.ndarray, violations: list) -> np.ndarray:
    """Codes of the pairs (points[i[k]], points[j[k]]). The arrays decide
    each orientation's status; _verdict, on the frame's images and scalar
    distances, decides those near a threshold and gives the numbers of
    each violation, in loop order."""
    dist, coord, image = frame.dist, frame.coord, frame.image
    x, y, tx, ty = coord[i], coord[j], image[i], image[j]
    row = _CONDITIONS[spec.variant]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        d_xy, d_txty = dist(x, y), dist(tx, ty)
        d_xtx, d_yty = frame.moved[i], frame.moved[j]
        found = [_orientation_codes(spec, tol, d_xy, d_txty, d_xtx, d_yty,
                                    None if row.symmetric else dist(y, tx))]
        if not row.symmetric:
            found.append(_orientation_codes(spec, tol, d_xy, d_txty, d_yty, d_xtx,
                                            dist(x, ty)))
    codes, near = map(np.array, zip(*found))
    k, swapped = np.nonzero(near.T | (codes.T == _VIOLATED))
    first = np.where(swapped, j[k], i[k]).tolist()
    second = np.where(swapped, i[k], j[k]).tolist()
    points, target, d, displaced = frame.points, frame.target, frame.scalar, frame.displaced

    def moved(p, tp):
        value = displaced.get(p)
        if value is None:
            value = displaced[p] = d(tp, p) if row.from_image else d(p, tp)
        return value

    for pair, orientation, a, b in zip(k.tolist(), swapped.tolist(), first, second):
        status, lhs, rhs = _verdict(spec, d, moved, a, b, target[a], target[b], tol)
        codes[orientation, pair] = _CODE[status]
        if status is Status.VIOLATED:
            violations.append(PairVerdict(points[a], points[b], status, lhs, rhs))
    return codes.max(axis=0)


def _reference_block(spec: ContractionSpec, space, T: Callable, tol: float, points: Sequence,
                     i: np.ndarray, j: np.ndarray, violations: list,
                     verdicts: list | None) -> np.ndarray:
    """The reference loop: check_pair on each pair in turn, both
    orientations for the asymmetric variants."""
    symmetric = _CONDITIONS[spec.variant].symmetric
    codes = np.empty(len(i), dtype=np.uint8)
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        x, y = points[a], points[b]
        found = [check_pair(spec, space, T, x, y, tol=tol)]
        if not symmetric:
            found.append(check_pair(spec, space, T, y, x, tol=tol))
        codes[k] = max(_CODE[v.status] for v in found)
        violations.extend(v for v in found if v.status is Status.VIOLATED)
        if verdicts is not None:
            verdicts.extend(found)
    return codes


def _verify(spec: ContractionSpec, space, T: Callable, tol: float, collect_all: bool,
            blocks: Iterable[tuple[Sequence, np.ndarray, np.ndarray]]) -> VerificationSummary:
    """The summary over ``blocks`` of pairs (points[i[k]], points[j[k]]), in
    loop order. Blocks that share one points sequence share its images.
    With ``collect_all`` every verdict is printed, so check_pair gives all
    of them."""
    counts = np.zeros(3, dtype=np.int64)
    violations: list[PairVerdict] = []
    verdicts: list[PairVerdict] | None = [] if collect_all else None
    points = frame = None
    for block_points, i, j in blocks:
        if not collect_all and block_points is not points:
            points, frame = block_points, _frame(space, T, block_points)
        codes = None
        if frame is not None:
            mark = len(violations)
            try:
                codes = _array_block(spec, tol, frame, i, j, violations)
            except Exception:  # whatever it is, the reference loop meets it again
                del violations[mark:]
        if codes is None:
            codes = _reference_block(spec, space, T, tol, block_points, i, j,
                                     violations, verdicts)
        counts += np.bincount(codes, minlength=3)
    violations.sort(key=lambda v: (str(v.x), str(v.y)))
    return VerificationSummary(total=int(counts.sum()), holds=int(counts[_HOLDS]),
                               vacuous=int(counts[_VACUOUS]),
                               violated=int(counts[_VIOLATED]),
                               violations=violations, verdicts=verdicts)


def _pair_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index arrays (i, j) of the pairs i < j of n points, in loop order
    (i, then j), in blocks of at most _PAIR_BLOCK pairs."""
    rows = np.arange(max(n - 1, 0))
    first = rows * (2 * n - rows - 1) // 2  # number of the first pair of each row
    total = n * (n - 1) // 2
    for start in range(0, total, _PAIR_BLOCK):
        k = np.arange(start, min(start + _PAIR_BLOCK, total))
        i = np.searchsorted(first, k, side="right") - 1
        yield i, k - first[i] + i + 1


def verify_over_finite(spec: ContractionSpec, space, T: Callable, *,
                       tol: float = MARGIN_TOL,
                       collect_all: bool = False) -> VerificationSummary:
    """The verdict of every unordered pair of the space's points (both
    orientations for the asymmetric variants), as check_pair would give
    it. Overall pass iff zero violations."""
    points = space.points
    return _verify(spec, space, T, tol, collect_all,
                   ((points, i, j) for i, j in _pair_blocks(len(points))))


def verify_over_sample(spec: ContractionSpec, sampler: Callable,
                       metric: Callable[[Any, Any], float], T: Callable,
                       n: int, seed: int, *, tol: float = MARGIN_TOL,
                       collect_all: bool = False) -> VerificationSummary:
    """Monte-Carlo proxy for a continuous domain: ``n`` pairs drawn by
    ``sampler`` (a callable taking a numpy Generator), deterministic for a
    given seed. Each pair draws its x, then its y. Report shape matches
    verify_over_finite."""
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    def blocks():
        for start in range(0, n, _PAIR_BLOCK):
            count = min(_PAIR_BLOCK, n - start)
            points = [sampler(rng) for _ in range(2 * count)]
            i = np.arange(0, 2 * count, 2)
            yield points, i, i + 1

    return _verify(spec, SampledSpace(points=(), metric=metric), T, tol, collect_all,
                   blocks())
