"""Reference answers the benchmark checks the program against.

Everything here is written from the definitions, independently of
``contractum``: quadruple ratios by brute force (O(n^4), small tables)
and by a top-2 three-hop minimum (O(n^3), large tables), contraction
verdicts as array formulas, orbits in closed form or by plain iteration,
and Nystrom iteration of the integral equations on the program's grid.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-12          # the program's default table tolerance
MARGIN_TOL = 1e-9    # the program's verdict tolerance
GUARD_TOL = 1e-12    # the program's vacuity guard


# ---------------------------------------------------------------------------
# distance tables


def _distinct4(n: int) -> np.ndarray:
    i, u, v, j = np.ix_(*(np.arange(n),) * 4)
    return (i != u) & (i != v) & (i != j) & (u != v) & (u != j) & (v != j)


def brute_force(D: np.ndarray, max_witnesses: int = 8) -> dict:
    """Every admissible quadruple (i, u, v, j), pairwise distinct, at once.

    Returns the maximal ratio D[i,j] / (D[i,u] + D[u,v] + D[v,j]), the
    lexicographically smallest quadruple attaining it, and the first
    ``max_witnesses`` quadruples violating the s = 1 inequality. A
    quadruple attains the maximum only with its pair's smallest sum: two
    sums an ulp apart can round to the same quotient."""
    n = len(D)
    S = (D[:, :, None, None] + D[None, :, :, None]) + D[None, None, :, :]
    lhs = np.broadcast_to(D[:, None, None, :], S.shape)
    ok = _distinct4(n)
    S = np.where(ok, S, np.inf)
    denom = S.min(axis=(1, 2))                       # [i, j]
    off = np.isfinite(denom)
    R = np.where(off, D / np.where(off, denom, 1.0), -np.inf)
    best = float(R.max())
    attains = (R == best)[:, None, None, :] & (S == denom[:, None, None, :])
    extremal = tuple(int(k) for k in np.argwhere(attains)[0])
    violating = ok & (lhs > S + TOL)
    quads = [tuple(int(k) for k in q) for q in np.argwhere(violating)[:max_witnesses]]
    return {"max_ratio": best, "extremal": extremal, "quadrilateral": quads}


def three_hop_minima(D: np.ndarray) -> np.ndarray:
    """min over distinct u, v outside {i, j} of D[i,u] + D[u,v] + D[v,j],
    for every ordered pair i != j (inf on the diagonal). O(n^3)."""
    n = len(D)
    cols = np.arange(n)
    out = np.full((n, n), np.inf)
    for i in range(n):
        P = D[i][:, None] + D               # P[u, v] = D[i,u] + D[u,v]
        P[i, :] = np.inf
        P[:, i] = np.inf
        P[cols, cols] = np.inf
        first = P.argmin(axis=0)
        m1 = P[first, cols]
        P[first, cols] = np.inf
        m2 = P.min(axis=0)                  # runner-up, used when u would be j
        C = np.where(first[:, None] == cols[None, :], m2[:, None], m1[:, None])
        E = C + D                           # E[v, j]
        E[cols, cols] = np.inf
        E[i, :] = np.inf
        row = E.min(axis=0)
        row[i] = np.inf
        out[i] = row
    return out


def quadruple_ratio(D: np.ndarray, q: tuple[int, int, int, int]) -> float:
    i, u, v, j = q
    return float(D[i, j] / (D[i, u] + D[u, v] + D[v, j]))


def triangle(D: np.ndarray, max_witnesses: int = 8) -> dict:
    """Maximal ratio d(x,y) / (d(x,z) + d(z,y)) over distinct triples and
    the first ``max_witnesses`` triples violating the triangle inequality."""
    n = len(D)
    idx = np.arange(n)
    worst = 0.0
    found: list[tuple[int, int, int]] = []
    for x in range(n):
        S = D[x][:, None] + D               # S[z, y]
        mask = np.ones((n, n), dtype=bool)
        mask[x, :] = mask[:, x] = False
        mask[idx, idx] = False
        lhs = np.broadcast_to(D[x][None, :], (n, n))
        worst = max(worst, float((lhs[mask] / S[mask]).max()))
        if len(found) < max_witnesses:
            for z, y in np.argwhere(mask & (lhs > S + TOL)):
                found.append((x, int(z), int(y)))
    return {"max_ratio": worst, "witnesses": found[:max_witnesses]}


def first_quadrilateral_violations(D: np.ndarray, denom: np.ndarray,
                                   limit: int = 8) -> list[tuple]:
    """First ``limit`` quadruples, in lexicographic order, with
    D[x,y] > D[x,u] + D[u,v] + D[v,y] + tol. Only rows x whose three-hop
    minima ``denom`` admit a violation are scanned, one (x, u) at a time."""
    n = len(D)
    idx = np.arange(n)
    found: list[tuple[int, int, int, int]] = []
    for x in np.flatnonzero((D > denom + TOL).any(axis=1)):
        x = int(x)
        for u in range(n):
            if u == x:
                continue
            T = (D[x, u] + D[u][:, None]) + D  # T[v, y]
            V = D[x][None, :] > T + TOL
            V[idx, idx] = False
            V[[x, u], :] = False
            V[:, [x, u]] = False
            for v, y in np.argwhere(V):
                found.append((x, u, int(v), int(y)))
                if len(found) == limit:
                    return found
    return found


# ---------------------------------------------------------------------------
# contraction verdicts

F_FUNCTIONS = {
    "ln": np.log,
    "ln_sqrt": lambda t: np.log(np.sqrt(t)),
    "ln_plus_sqrt": lambda t: np.log(t) + np.sqrt(t),
    "x_plus_ln": lambda t: t + np.log(t),
    "ln(t)+sqrt(t)": lambda t: np.log(t) + np.sqrt(t),
    "t + ln(t)": lambda t: t + np.log(t),
}

PHI_FUNCTIONS = {
    "inv_1p": lambda t: 1.0 / (1.0 + t),
    "inv_2p": lambda t: 1.0 / (2.0 + t),
    "1/(1+t)": lambda t: 1.0 / (1.0 + t),
    "1/(3+t^2)": lambda t: 1.0 / (3.0 + t ** 2),
}

ASYMMETRIC = ("typeIm", "beta")

# the paper's four-point table, shared by examples 3.4 and 3.10
PAPER_TABLE_FOUR = {(0.0, 0.5): 0.16, (1 / 3, 0.5): 0.16, (0.0, 1 / 3): 0.04,
                    (0.25, 1 / 3): 0.04, (0.0, 0.25): 0.25, (0.25, 0.5): 0.25}

FIXTURE_SHAPES = {
    # name: (finite values, interval, exponent of the interval map, F, phi)
    "example-3.4": ((0.0, 0.5, 1 / 3, 0.25), (1.0, 2.0), 0.25, "ln_plus_sqrt", "inv_1p"),
    "example-3.10": ((0.0, 0.5, 1 / 3, 0.25), (1.0, 2.5), 1 / 6, "ln_sqrt", "inv_2p"),
}


def fixture_metric(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = (x - y) ** 2
    for (a, b), value in PAPER_TABLE_FOUR.items():
        d[((x == a) & (y == b)) | ((x == b) & (y == a))] = value
    d[x == y] = 0.0
    return d


def fixture_map(name: str, values) -> np.ndarray:
    finite, _, exponent, _, _ = FIXTURE_SHAPES[name]
    return np.array([1.0 if v in finite else v ** exponent for v in values])


def fixture_grid(name: str, grid: int) -> np.ndarray:
    finite, (lo, hi), *_ = FIXTURE_SHAPES[name]
    return np.concatenate([np.array(finite), np.linspace(lo, hi, grid)])


def fixture_sample(name: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a seeded sampled check draws: a finite point with
    probability 0.3, else uniform on the interval; x before y."""
    finite, (lo, hi), *_ = FIXTURE_SHAPES[name]
    rng = np.random.default_rng(seed)

    def draw() -> float:
        if rng.random() < 0.3:
            return finite[int(rng.integers(len(finite)))]
        return float(rng.uniform(lo, hi))

    xs, ys = [], []
    for _ in range(n):
        xs.append(draw())
        ys.append(draw())
    return np.array(xs), np.array(ys)


def _verdicts(variant, s, F, phi, betas, x, y, tx, ty, metric) -> np.ndarray:
    """Per oriented pair: 0 vacuous, 1 holds, 2 violated."""
    d_txy = metric(tx, ty)
    d_xy = metric(x, y)
    if variant == "typeF":
        arg = d_xy
    elif variant == "typeIm":
        arg = np.maximum.reduce([d_xy, metric(x, tx), metric(y, ty), metric(y, tx)])
    elif variant == "kannan":
        arg = (metric(x, tx) + metric(y, ty)) / 2.0
    elif variant == "reich":
        arg = (d_xy + metric(x, tx) + metric(y, ty)) / 3.0
    else:
        b1, b2, b3, b4 = betas
        arg = b1 * d_xy + b2 * metric(tx, x) + b3 * metric(ty, y) + b4 * metric(y, tx)
    vacuous = d_txy <= GUARD_TOL
    if variant in ("kannan", "reich", "beta"):
        vacuous |= arg <= GUARD_TOL
    live = ~vacuous
    if (arg[live] <= 0).any() or (d_xy[live] <= 0).any():
        raise ValueError("reference: F or phi argument is not positive")
    scale = s if variant == "typeF" else s ** 2
    lhs = F(scale * d_txy[live])
    rhs = F(arg[live]) - phi(d_xy[live])
    out = np.zeros(len(x), dtype=np.int8)
    out[live] = np.where(rhs - lhs >= -MARGIN_TOL, 1, 2)
    return out


def contraction_counts(variant, s, F, phi, betas, x, y, tx, ty, metric) -> dict:
    """holds / vacuous / violated over unordered pairs (x[k], y[k]), both
    orientations for the asymmetric variants, and the number of violated
    orientations (the length of the program's violation list)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        v = _verdicts(variant, s, F, phi, betas, x, y, tx, ty, metric)
        if variant in ASYMMETRIC:
            w = _verdicts(variant, s, F, phi, betas, y, x, ty, tx, metric)
        else:
            w = np.zeros_like(v)
    violated = (v == 2) | (w == 2)
    holds = ~violated & ((v == 1) | (w == 1))
    return {"total": len(v), "holds": int(holds.sum()),
            "vacuous": int((~violated & ~holds).sum()),
            "violated": int(violated.sum()),
            "violations": int((v == 2).sum() + (w == 2).sum())}


def all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


# ---------------------------------------------------------------------------
# orbits


def iterate_scalar(f, x0: float, tol: float = 0.0, max_iter: int = 10_000_000) -> float:
    """Plain fixed-point iteration until the step stops moving the point."""
    x = x0
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx - x) <= tol:
            return fx
        x = fx
    raise RuntimeError("reference orbit did not settle")


# ---------------------------------------------------------------------------
# integral equations


def quadrature_weights(grid: np.ndarray, rule: str) -> np.ndarray:
    m = len(grid)
    h = grid[1] - grid[0]
    if rule == "simpson":
        w = np.full(m, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * h / 3.0
    w = np.full(m, h)
    w[0] = w[-1] = h / 2.0
    return w


def nystrom_solve(kernel, lam: float, a: float, b: float, m: int, rule: str,
                  x0: float = 0.0, sweeps: int = 10_000) -> np.ndarray:
    """Iterate x <- lam * W K(t, r, x(r)) on the m-point grid until the
    sup-norm step is at round-off level. ``kernel`` takes mesh arrays."""
    t = np.linspace(a, b, m)
    w = quadrature_weights(t, rule)
    T, R = np.meshgrid(t, t, indexing="ij")
    x = np.full(m, float(x0))
    for _ in range(sweeps):
        nxt = lam * (kernel(T, R, x[None, :]) @ w)
        step = float(np.max(np.abs(nxt - x)))
        x = nxt
        if step <= 1e-15 * max(1.0, float(np.max(np.abs(x)))):
            return x
    raise RuntimeError("reference integral solution did not settle")


def refined_residual(kernel, lam: float, a: float, b: float, values: np.ndarray,
                     rule: str) -> float:
    """Sup-norm of x - lam * Q(K(t, ., x)) on the grid with midpoints added,
    x interpolated linearly: the program's refined-quadrature oracle."""
    m = len(values)
    coarse = np.linspace(a, b, m)
    fine = np.linspace(a, b, 2 * (m - 1) + 1)
    x = np.interp(fine, coarse, values)
    w = quadrature_weights(fine, rule)
    T, R = np.meshgrid(fine, fine, indexing="ij")
    return float(np.max(np.abs(x - lam * (kernel(T, R, x[None, :]) @ w))))


def sup_norm(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))
