"""Quadrature ground truth: iterated child-kernel operators and moment identities.

Everything here is an independent check on the simulation and the
estimators: Gauss-Hermite quadrature of the one-step operators, the
generation-sum moment formulas, and the closed-form limit variances of the
distributional results.  The operator iterates live on a fixed grid with
cubic interpolation, which also covers the asymmetric model where no closed
form exists.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bar import BarParams, InitSpec, mu_triangle, simulate_trees, stationary_mu, transition_density_p
from .kernels import L2_NORM_SQ_CUBED, SQRT_PI
from .rng import derive_seed
from .tree import level_slice

# scipy is imported inside the functions that call it: scipy.special's ndtr
# in apply_q (and harness.summarize_stats), scipy.interpolate's CubicSpline
# in GridFunction; commands that do not verify must not pay for either

GH_NODES = 64  # per Gaussian component; spectral accuracy for smooth integrands
GRID_NODES = 512
TAIL_TOLERANCE = 1e-10
GRID_STEP = 0.25  # widest node spacing: a quarter of gaussian_bump()'s unit width
REACH_SDS = 8.0  # standard deviations each generation's window reaches out
_P_ROWS = 32  # grid nodes per block of _apply_p_outer: a 1 MB buffer at gh = 64
_SQRT2 = math.sqrt(2.0)


class GridFunction:
    """A function known on a strictly increasing grid, cubic between nodes.

    Evaluation clips its argument to the support: quadrature nodes landing in
    the far tails (weights below ~1e-40) then read the boundary value instead
    of an extrapolated polynomial.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray, tail_warning: bool = False):
        from scipy.interpolate import CubicSpline

        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d and of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        self.nodes = nodes
        self.values = values
        self.tail_warning = tail_warning
        self._spline = CubicSpline(nodes, values, bc_type="natural")

    def __call__(self, x):
        return self._spline(np.clip(x, self.nodes[0], self.nodes[-1]))


def default_grid(params: BarParams, x: float = 0.0, generations: int = 5) -> np.ndarray:
    """Evaluation grid for the operator iterates behind Q^k f(x), k <= generations.

    The model's own window first: wide enough for one-step kernels from every
    grid node to keep their tail mass below TAIL_TOLERANCE whenever the model
    contracts; with an unstable branch (max |a| >= 1) edge nodes necessarily
    leak and results carry the tail warning.  A critical model,
    m2 = (a0^2 + a1^2) / 2 = 1, takes the unstable branch's spread 4 sigma
    without its 1 / sqrt|1 - m2| factor.  That window is used when its nodes
    are at most GRID_STEP apart and it holds the window ``_reach`` gives.
    Otherwise, as for near-critical models (m2 or max |a| near 1), whose
    window spreads the nodes far wider than the bump function, or a start
    point x outside the window, the grid spans the ``_reach`` window itself.
    Its edge nodes leak, so ``apply_q`` sets the tail warning, but the values
    at x need none of the mass that leaves.  Where even that window is wider
    than (GRID_NODES - 1) * GRID_STEP, nothing resolves the bump on this many
    nodes.
    """
    a_max = max(abs(params.a0), abs(params.a1))
    m2 = 0.5 * (params.a0**2 + params.a1**2)
    sd = params.sigma / math.sqrt(1.0 - m2) if m2 < 1 else 4.0 * params.sigma / (abs(1 - m2) ** 0.5 or 1.0)
    a_bar = 0.5 * (params.a0 + params.a1)
    center = 0.5 * (params.b0 + params.b1) / (1.0 - a_bar) if abs(a_bar) < 1 else 0.0
    half_width = max(10.0 * sd, 7.0 * params.sigma / (1.0 - a_max) if a_max < 1 else 12.0 * sd)
    half_width += abs(center)
    lo, hi = _reach(params, x, generations)
    if 2.0 * half_width <= (GRID_NODES - 1) * GRID_STEP and -half_width <= lo and hi <= half_width:
        return np.linspace(-half_width, half_width, GRID_NODES)
    return np.linspace(lo, hi, GRID_NODES)


def _reach(params: BarParams, x: float, generations: int) -> tuple[float, float]:
    """A window holding generations 0..``generations`` of a tree started at x.

    Generation k's means lie in the hull of the affine branch maps applied k
    times to x, and its standard deviation is at most s_k, s_k^2 = sigma^2 (1
    + A^2 + ... + A^(2(k-1))) with A = max |a|.  Each generation's hull is
    widened by REACH_SDS times s_k (x itself by REACH_SDS sigma).
    """
    branches = ((params.a0, params.b0), (params.a1, params.b1))
    a_max = max(abs(params.a0), abs(params.a1))
    pad = REACH_SDS * params.sigma
    m_lo = m_hi = float(x)
    lo, hi = m_lo - pad, m_hi + pad
    var = 0.0
    for _ in range(generations):
        ends = [a * m + b for a, b in branches for m in (m_lo, m_hi)]
        m_lo, m_hi = min(ends), max(ends)
        var = a_max**2 * var + params.sigma**2
        pad = REACH_SDS * math.sqrt(var)
        lo, hi = min(lo, m_lo - pad), max(hi, m_hi + pad)
    return lo, hi


def _check_magnitudes(params: BarParams, x: float, n: int) -> None:
    """Reject a model whose generation-n sums from x overflow float64 in the moment table.

    A generation-n value is at most about A^n (|x| + n (max |b| + 10 sigma))
    with A = max(1, |a0|, |a1|), and a sum holds 2^n of them.  The table
    squares the sums, and the standard error of a Q2 row is the spread of
    those squares, so the bound is on the fourth power.  ``default_grid``
    squares a0 and a1 themselves, even at n = 0.  The bounds are taken in
    logarithms, so they cannot overflow themselves.
    """
    log_max = math.log(sys.float_info.max)
    a = max(1.0, abs(params.a0), abs(params.a1))
    spread = abs(x) + n * (max(abs(params.b0), abs(params.b1)) + 10.0 * params.sigma)
    if not 4.0 * (n * math.log(2.0 * a) + math.log1p(spread)) < log_max:
        raise ValueError(
            f"coefficients a0={params.a0:g}, a1={params.a1:g}, b0={params.b0:g}, b1={params.b1:g}, "
            f"sigma={params.sigma:g} overflow float64 within {n} generations from x={x:g}"
        )
    if not 2.0 * math.log(a) < log_max:
        raise ValueError(f"coefficients a0={params.a0:g}, a1={params.a1:g} overflow float64 when squared")


def grid_function(nodes: np.ndarray, fn) -> GridFunction:
    return GridFunction(nodes, fn(np.asarray(nodes, dtype=float)))


@lru_cache(maxsize=8)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, computed once per node count.

    The arrays are shared by every caller, so they are read-only.
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def apply_q(params: BarParams, f: GridFunction) -> GridFunction:
    """One step of the child-average operator: x -> E[f(child) | parent = x].

    Gauss-Hermite quadrature of each Gaussian mixture component.  If either
    component puts more than TAIL_TOLERANCE mass outside the grid support for
    some grid node, the result carries a tail warning.  Coinciding components
    (every symmetric model) are integrated once and added twice.
    """
    from scipy.special import ndtr

    t, w = _hermgauss(GH_NODES)
    x = f.nodes
    lo, hi = x[0], x[-1]
    acc = np.zeros_like(x)
    warn = f.tail_warning
    for (a, b), count in Counter(((params.a0, params.b0), (params.a1, params.b1))).items():
        mean = a * x + b
        y = mean[:, None] + _SQRT2 * params.sigma * t[None, :]
        component = (f(y) @ w) / SQRT_PI
        for _ in range(count):
            acc += component
        tail = ndtr((lo - mean) / params.sigma) + ndtr((mean - hi) / params.sigma)
        warn = warn or bool(np.max(tail) > TAIL_TOLERANCE)
    return GridFunction(x, 0.5 * acc, warn)


def _apply_p_outer(params: BarParams, g1: GridFunction, g2: GridFunction) -> GridFunction:
    """x -> E[g1(child0) * g2(child1) | parent = x], joint over the correlated pair.

    The second child's node z[i, j, l] depends on the first child's node j
    only through rho; at rho = 0 it is built, and g2 evaluated, for one j.
    The second child is integrated _P_ROWS grid nodes at a time: each block
    is broadcast into one reused (_P_ROWS, gh, gh) buffer, so the matmul sees
    the bytes, and makes the per-matrix calls, of the full evaluation.
    """
    t, w = _hermgauss(GH_NODES)
    x = g1.nodes
    c10 = params.rho / params.sigma
    c11 = math.sqrt(params.sigma**2 - params.rho**2 / params.sigma**2)
    tj = t[:1] if c10 == 0 else t
    y = params.a0 * x[:, None] + params.b0 + _SQRT2 * params.sigma * t[None, :]
    z = (
        params.a1 * x[:, None, None]
        + params.b1
        + _SQRT2 * c10 * tj[None, :, None]
        + _SQRT2 * c11 * t[None, None, :]
    )
    g2z = g2(z)
    inner = np.empty((x.size, GH_NODES))  # (G, gh) after integrating the second child
    part = np.empty((min(_P_ROWS, x.size), GH_NODES, GH_NODES))
    for i in range(0, x.size, _P_ROWS):
        rows = inner[i : i + _P_ROWS]
        block = part[: len(rows)]
        block[...] = g2z[i : i + _P_ROWS]
        np.matmul(block, w, out=rows)
    vals = ((g1(y) * inner) @ w) / math.pi
    return GridFunction(x, vals, g1.tail_warning or g2.tail_warning)


def _apply_p_sym_outer(params: BarParams, g1: GridFunction, g2: GridFunction) -> GridFunction:
    a = _apply_p_outer(params, g1, g2)
    b = _apply_p_outer(params, g2, g1)
    return GridFunction(a.nodes, 0.5 * (a.values + b.values), a.tail_warning or b.tail_warning)


def expected_generation_sum(params: BarParams, f: GridFunction, x: float, n: int) -> float:
    """Expectation of the generation-n sum of f, started from x: 2^n * Q^n f(x)."""
    if not 0 <= n <= 8:
        raise ValueError("n must be in [0, 8] (quadrature cost grows with n)")
    return float(2**n * _iterate_q(params, f, n)(x))


def second_moment_generation_sum(params: BarParams, f: GridFunction, x: float, n: int) -> float:
    """Second moment of the generation-n sum of f started from x.

    The mixed moment at g = f and m = n: 2^n Q^n(f^2)(x) plus the over-pairs
    term sum_k 2^(n+k) Q^(n-k-1)(P(Q^k f (x) Q^k f))(x).
    """
    return mixed_moment(params, f, f, x, n, n)


def mixed_moment(
    params: BarParams, f: GridFunction, g: GridFunction, x: float, n: int, m: int
) -> float:
    """Expectation of (generation-n sum of f) * (generation-m sum of g), m <= n.

    When Q^(n-m) f is g itself (the second moment) the two iterates are one,
    and the symmetrized pair operator is the plain one.
    """
    if not 0 <= m <= n <= 5:
        raise ValueError("need 0 <= m <= n <= 5")
    qnm_f = _iterate_q(params, f, n - m)
    same = qnm_f is g
    lead = GridFunction(g.nodes, g.values * qnm_f.values, g.tail_warning or qnm_f.tail_warning)
    term = 2**n * _iterate_q(params, lead, m)(x)
    qk_g, qk_f = g, qnm_f
    for k in range(m):
        if k:
            qk_g = apply_q(params, qk_g)
            qk_f = qk_g if same else apply_q(params, qk_f)
        pk = _apply_p_outer(params, qk_g, qk_g) if same else _apply_p_sym_outer(params, qk_g, qk_f)
        term += 2 ** (n + k) * _iterate_q(params, pk, m - k - 1)(x)
    return float(term)


def _iterate_q(params: BarParams, f: GridFunction, times: int) -> GridFunction:
    g = f
    for _ in range(times):
        g = apply_q(params, g)
    return g


def true_variance_clt(params: BarParams, x: float, x0: float, x1: float, statistic: str = "p_hat") -> float:
    """Limit variance of the standardized estimator at the given point.

    statistic "p_hat":   ||K0||_2^6 * P(x,x0,x1) / mu(x)
    statistic "mu_tri":  ||K0||_2^6 * mu_tri(x,x0,x1) under the estimator's
                         own sqrt(|A_n| h^3) normalization (same for both
                         populations)

    Defined in the stationary symmetric sub-case only: ``stationary_mu``
    reads ``params.sigma_a``, which raises ``ValueError`` for any other model;
    so does a point where a density underflows and the variance is 0 or inf.
    """
    if statistic == "p_hat":
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # judged below
            sigma2 = float(L2_NORM_SQ_CUBED * transition_density_p(params, x, x0, x1) / stationary_mu(params, x))
    elif statistic == "mu_tri":
        sigma2 = L2_NORM_SQ_CUBED * float(mu_triangle(params, x, x0, x1))
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    if not 0 < sigma2 < math.inf:
        point = f"({x:g}, {x0:g}, {x1:g})"
        raise ValueError(f"{statistic} limit variance at {point} is {sigma2:g}, not positive and finite")
    return sigma2


# -- Monte Carlo cross-check of the moment identities -------------------------


@dataclass
class MomentCheckRow:
    formula: str
    mc_estimate: float
    mc_se: float
    quadrature: float
    z_score: float

    @property
    def passed(self) -> bool:
        return abs(self.z_score) <= 3.0


def gaussian_bump(center: float = 0.0, width: float = 1.0):
    """Smooth bounded test function for the moment identities."""

    def f(y):
        return np.exp(-0.5 * ((y - center) / width) ** 2)

    return f


def moment_check_table(
    params: BarParams,
    x: float,
    n: int,
    m: int,
    replications: int,
    seed: int,
) -> list[MomentCheckRow]:
    """Monte Carlo means of generation sums against the quadrature formulas.

    Simulates ``replications`` trees from a point mass at x and compares the
    empirical mean, second moment, and mixed moment of the generation sums of
    f(y) = y and a Gaussian bump with the corresponding quadrature values.
    """
    if not 0 <= m <= n <= 5:
        raise ValueError("need 0 <= m <= n <= 5")
    if replications < 2:
        raise ValueError("need at least 2 replications for a standard error")
    _check_magnitudes(params, x, n)
    grid = default_grid(params, x, n)
    f_id = grid_function(grid, lambda y: y)
    f_bump = grid_function(grid, gaussian_bump())

    seeds = [derive_seed(seed, r) for r in range(replications)]
    trees = simulate_trees(params, max(n - 1, 0), InitSpec.dirac(x), seeds)
    gen_n, gen_m = trees[:, level_slice(n)], trees[:, level_slice(m)]
    bump = gaussian_bump()
    arr = {
        "id_n": np.sum(gen_n, axis=1),
        "bump_n": np.sum(bump(gen_n), axis=1),
        "id_m": np.sum(gen_m, axis=1),
        "bump_m": np.sum(bump(gen_m), axis=1),
    }
    del trees, gen_n, gen_m  # the trees are not needed during quadrature, which peaks in memory

    def row(name: str, samples: np.ndarray, target: float) -> MomentCheckRow:
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
        z = 0.0 if se == 0 else (mean - target) / se
        return MomentCheckRow(name, mean, se, target, z)

    rows = []
    for label, fn, key in (("f=y", f_id, "id_n"), ("f=bump", f_bump, "bump_n")):
        rows.append(row(f"Q1[{label}, n={n}]", arr[key], expected_generation_sum(params, fn, x, n)))
        rows.append(
            row(f"Q2[{label}, n={n}]", arr[key] ** 2, second_moment_generation_sum(params, fn, x, n))
        )
    rows.append(
        row(
            f"Q2bis[f=y,g=bump, n={n}, m={m}]",
            arr["id_n"] * arr["bump_m"],
            mixed_moment(params, f_id, f_bump, x, n, m),
        )
    )
    return rows
