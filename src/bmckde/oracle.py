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
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import ndtr

from .bar import BarParams, SymmetricBarParams, mu_triangle, stationary_mu, transition_density_p
from .kernels import L2_NORM_SQ_CUBED
from .tree import Population

GH_NODES = 64  # per Gaussian component; spectral accuracy for smooth integrands
GRID_NODES = 512
TAIL_TOLERANCE = 1e-10
_SQRT2 = math.sqrt(2.0)


class GridFunction:
    """A function known on a strictly increasing grid, cubic between nodes.

    Evaluation clips its argument to the support: quadrature nodes landing in
    the far tails (weights below ~1e-40) then read the boundary value instead
    of an extrapolated polynomial.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray, tail_warning: bool = False):
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

    def map_values(self, fn) -> "GridFunction":
        return GridFunction(self.nodes, fn(self.values), self.tail_warning)


def default_grid(params: BarParams, half_width: float | None = None) -> np.ndarray:
    """Evaluation grid wide enough that Gaussian tails at the edge are negligible.

    Wide enough for one-step kernels from every grid node to keep their tail
    mass below TAIL_TOLERANCE whenever the model contracts; with an unstable
    branch (max |a| >= 1) edge nodes necessarily leak and results carry the
    tail warning.
    """
    if half_width is None:
        a_max = max(abs(params.a0), abs(params.a1))
        m2 = 0.5 * (params.a0**2 + params.a1**2)
        sd = params.sigma / math.sqrt(1.0 - m2) if m2 < 1 else 4.0 * params.sigma / abs(1 - m2) ** 0.5
        a_bar = 0.5 * (params.a0 + params.a1)
        center = 0.5 * (params.b0 + params.b1) / (1.0 - a_bar) if abs(a_bar) < 1 else 0.0
        half_width = max(10.0 * sd, 7.0 * params.sigma / (1.0 - a_max) if a_max < 1 else 12.0 * sd)
        half_width += abs(center)
    return np.linspace(-half_width, half_width, GRID_NODES)


def grid_function(nodes: np.ndarray, fn) -> GridFunction:
    return GridFunction(nodes, fn(np.asarray(nodes, dtype=float)))


def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return t, w


def apply_q(params: BarParams, f: GridFunction, gh_nodes: int = GH_NODES) -> GridFunction:
    """One step of the child-average operator: x -> E[f(child) | parent = x].

    Gauss-Hermite quadrature of each Gaussian mixture component.  If either
    component puts more than TAIL_TOLERANCE mass outside the grid support for
    some grid node, the result carries a tail warning.
    """
    t, w = _hermgauss(gh_nodes)
    x = f.nodes
    lo, hi = x[0], x[-1]
    acc = np.zeros_like(x)
    warn = f.tail_warning
    for a, b in ((params.a0, params.b0), (params.a1, params.b1)):
        mean = a * x + b
        y = mean[:, None] + _SQRT2 * params.sigma * t[None, :]
        acc += (f(y) @ w) / math.sqrt(math.pi)
        tail = ndtr((lo - mean) / params.sigma) + ndtr((mean - hi) / params.sigma)
        warn = warn or bool(np.max(tail) > TAIL_TOLERANCE)
    return GridFunction(x, 0.5 * acc, warn)


def _apply_p_outer(
    params: BarParams, g1: GridFunction, g2: GridFunction, gh_nodes: int = GH_NODES
) -> GridFunction:
    """x -> E[g1(child0) * g2(child1) | parent = x], joint over the correlated pair."""
    t, w = _hermgauss(gh_nodes)
    x = g1.nodes
    c10 = params.rho / params.sigma
    c11 = math.sqrt(params.sigma**2 - params.rho**2 / params.sigma**2)
    y = params.a0 * x[:, None] + params.b0 + _SQRT2 * params.sigma * t[None, :]
    z = (
        params.a1 * x[:, None, None]
        + params.b1
        + _SQRT2 * c10 * t[None, :, None]
        + _SQRT2 * c11 * t[None, None, :]
    )
    inner = g2(z) @ w  # (G, gh) after integrating the second child
    vals = ((g1(y) * inner) @ w) / math.pi
    return GridFunction(x, vals, g1.tail_warning or g2.tail_warning)


def _apply_p_sym_outer(
    params: BarParams, g1: GridFunction, g2: GridFunction, gh_nodes: int = GH_NODES
) -> GridFunction:
    a = _apply_p_outer(params, g1, g2, gh_nodes)
    b = _apply_p_outer(params, g2, g1, gh_nodes)
    return GridFunction(a.nodes, 0.5 * (a.values + b.values), a.tail_warning or b.tail_warning)


def expected_generation_sum(params: BarParams, f: GridFunction, x: float, n: int) -> float:
    """Expectation of the generation-n sum of f, started from x: 2^n * Q^n f(x)."""
    if not 0 <= n <= 8:
        raise ValueError("n must be in [0, 8] (quadrature cost grows with n)")
    g = f
    for _ in range(n):
        g = apply_q(params, g)
    return float(2**n * g(x))


def second_moment_generation_sum(params: BarParams, f: GridFunction, x: float, n: int) -> float:
    """Second moment of the generation-n sum of f started from x.

    2^n Q^n(f^2)(x) plus the over-pairs term
    sum_k 2^(n+k) Q^(n-k-1)(P(Q^k f (x) Q^k f))(x).
    """
    if not 0 <= n <= 5:
        raise ValueError("n must be in [0, 5]")
    term = 2**n * _iterate_q(params, f.map_values(np.square), n)(x)
    qk = f
    for k in range(n):
        pk = _apply_p_outer(params, qk, qk)
        term += 2 ** (n + k) * _iterate_q(params, pk, n - k - 1)(x)
        qk = apply_q(params, qk)
    return float(term)


def mixed_moment(
    params: BarParams, f: GridFunction, g: GridFunction, x: float, n: int, m: int
) -> float:
    """Expectation of (generation-n sum of f) * (generation-m sum of g), m <= n."""
    if not 0 <= m <= n <= 5:
        raise ValueError("need 0 <= m <= n <= 5")
    qnm_f = _iterate_q(params, f, n - m)
    lead = GridFunction(g.nodes, g.values * qnm_f.values, g.tail_warning or qnm_f.tail_warning)
    term = 2**n * _iterate_q(params, lead, m)(x)
    qk_g, qk_f = g, qnm_f
    for k in range(m):
        pk = _apply_p_sym_outer(params, qk_g, qk_f)
        term += 2 ** (n + k) * _iterate_q(params, pk, m - k - 1)(x)
        qk_g = apply_q(params, qk_g)
        qk_f = apply_q(params, qk_f)
    return float(term)


def _iterate_q(params: BarParams, f: GridFunction, times: int) -> GridFunction:
    g = f
    for _ in range(times):
        g = apply_q(params, g)
    return g


def true_variance_clt(
    params: SymmetricBarParams,
    x: float,
    x0: float,
    x1: float,
    statistic: str = "p_hat",
    population: Population = Population.GEN_N,
) -> float:
    """Limit variance of the standardized estimator at the given point.

    statistic "p_hat":   ||K0||_2^6 * P(x,x0,x1) / mu(x)
    statistic "mu_tri":  ||K0||_2^6 * mu_tri(x,x0,x1) under the estimator's
                         own sqrt(|A_n| h^3) normalization (same for both
                         populations)
    statistic "num_raw": variance of the generation-sqrt-normalized numerator
                         sum, which doubles on the whole-tree index set
    """
    bar = params.to_bar_params()
    if statistic == "p_hat":
        p = transition_density_p(bar, x, x0, x1)
        return float(L2_NORM_SQ_CUBED * p / stationary_mu(params, x))
    mt = float(mu_triangle(params, x, x0, x1))
    if statistic == "mu_tri":
        return L2_NORM_SQ_CUBED * mt
    if statistic == "num_raw":
        factor = 2.0 if population is Population.TREE_N else 1.0
        return factor * L2_NORM_SQ_CUBED * mt
    raise ValueError(f"unknown statistic {statistic!r}")


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
    grid: np.ndarray | None = None,
) -> list[MomentCheckRow]:
    """Monte Carlo means of generation sums against the quadrature formulas.

    Simulates ``replications`` trees from a point mass at x and compares the
    empirical mean, second moment, and mixed moment of the generation sums of
    f(y) = y and a Gaussian bump with the corresponding quadrature values.
    """
    from .bar import InitSpec, simulate
    from .rng import derive_seed

    if not 0 <= m <= n <= 5:
        raise ValueError("need 0 <= m <= n <= 5")
    if grid is None:
        grid = default_grid(params)
    f_id = grid_function(grid, lambda y: y)
    f_bump = grid_function(grid, gaussian_bump())

    sums: dict[str, list[float]] = {"id_n": [], "bump_n": [], "id_m": [], "bump_m": []}
    for r in range(replications):
        tree = simulate(params, max(n - 1, 0), InitSpec.dirac(x), derive_seed(seed, r))
        lvl_n, lvl_m = tree.level(n), tree.level(m)
        sums["id_n"].append(float(np.sum(lvl_n)))
        sums["bump_n"].append(float(np.sum(gaussian_bump()(lvl_n))))
        sums["id_m"].append(float(np.sum(lvl_m)))
        sums["bump_m"].append(float(np.sum(gaussian_bump()(lvl_m))))
    arr = {k: np.asarray(v) for k, v in sums.items()}

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
