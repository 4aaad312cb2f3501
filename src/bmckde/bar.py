"""Gaussian bifurcating autoregressive (BAR) model: simulation and closed-form densities.

Each node value spawns two children
    X_u0 = a0*X_u + b0 + e_u0,   X_u1 = a1*X_u + b1 + e_u1,
with (e_u0, e_u1) bivariate centered Gaussian, Var = sigma^2 each and
Cov = rho, independent across nodes.  The stationary symmetric sub-case
(a0 = a1 = a with |a| < 1, b = 0, rho = 0) has closed-form invariant
densities and is the reference model for bandwidth selection and the
distributional checks; ``BarParams.sigma_a`` is the one place that decides
it, so every function of that sub-case takes a ``BarParams``.

Trees come from one batch simulator, ``simulate_trees``, which returns one
heap-ordered tree per seed as the rows of one array; generation k of every
tree is the column slice ``tree.level_slice(k)``, and ``simulate`` is its
one-seed call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import SQRT_2PI
from .rng import philox_stream, rekey
from .tree import MAX_DEPTH, TreeSample, level_slice

# sigma^4 is finite below this bound, and so is rho^2 < sigma^4: the noise
# covariance and the transition density's determinant cannot overflow
_SIGMA_MAX = sys.float_info.max**0.25


@dataclass(frozen=True)
class BarParams:
    """Autoregression coefficients, intercepts, and noise parameters of the BAR model."""

    a0: float
    a1: float
    b0: float = 0.0
    b1: float = 0.0
    sigma: float = 1.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        if not self.sigma < _SIGMA_MAX:
            raise ValueError(f"sigma must be below {_SIGMA_MAX:.6g}, where sigma^4 overflows float64")
        if not abs(self.rho) < self.sigma**2:
            raise ValueError("need |rho| < sigma^2 for a valid noise covariance")
        for name in ("a0", "a1", "b0", "b1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def sigma_a(self) -> float:
        """Standard deviation of the invariant law, sigma / sqrt(1 - a^2).

        Defined only in the stationary symmetric sub-case; any other model
        raises ``ValueError``.
        """
        if not (self.a0 == self.a1 and abs(self.a0) < 1 and self.b0 == self.b1 == 0.0 and self.rho == 0.0):
            raise ValueError("need the stationary symmetric sub-case (a0 = a1 with |a| < 1, b = 0, rho = 0)")
        return self.sigma / math.sqrt(1.0 - self.a0**2)


@dataclass(frozen=True)
class InitSpec:
    """Root distribution: a point mass at ``x0``, or the invariant law when
    ``x0`` is None (stationary symmetric sub-case only)."""

    x0: float | None = 0.0

    @classmethod
    def dirac(cls, x0: float = 0.0) -> "InitSpec":
        return cls(x0)

    @classmethod
    def stationary(cls) -> "InitSpec":
        return cls(None)


def simulate(params: BarParams, n: int, init: InitSpec, seed: int) -> TreeSample:
    """Simulate a BAR tree of depth n (levels 0..n+1 stored).

    The noise of generation k is drawn from the Philox stream keyed by
    (seed, k + 1), one (e_u0, e_u1) pair per parent in rank order, and a
    stationary root from stream (seed, 0), so output is a pure function of
    (params, n, init, seed): bit-identical across runs and worker counts.
    Correlated pairs come from the Cholesky split
    e_u0 = sigma*Z0, e_u1 = (rho/sigma)*Z0 + sqrt(sigma^2 - rho^2/sigma^2)*Z1.
    The tree is built in place in the array the sample keeps, which
    rejects a tree with non-finite values (a model that overflows).
    """
    return TreeSample(simulate_trees(params, n, init, [seed])[0])


def simulate_trees(params: BarParams, n: int, init: InitSpec, seeds) -> np.ndarray:
    """One heap-ordered tree per seed, an (R, 2^(n+2) - 1) array.

    Row r is bitwise the array of ``simulate(params, n, init, seeds[r])``,
    and its generation k is ``level_slice(k)``, as in ``TreeSample``; the
    rows are not checked as trees, ``TreeSample`` does that.  One
    bit generator is re-keyed to each (seed, stream) in turn, each seed
    reaching ``rekey`` as given, and each generation of all rows is one pass
    of the per-tree expressions, written straight into its slice: the
    children of parent j of a generation are its entries 2j and 2j+1 in the
    next.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n > MAX_DEPTH:
        raise OverflowError(f"depth {n} exceeds limit ({MAX_DEPTH})")
    # a stationary root exists only where sigma_a does, which raises otherwise
    root_sd = params.sigma_a if init.x0 is None else None

    reps = len(seeds)
    trees = np.empty((reps, (1 << (n + 2)) - 1))
    gen = philox_stream(seeds[0], 0)  # one bit generator per call, re-keyed per stream
    if init.x0 is None:
        z = np.empty(reps)
        for r, seed in enumerate(seeds):
            rekey(gen, seed, 0).standard_normal(out=z[r : r + 1])
        trees[:, 0] = root_sd * z
    else:
        trees[:, 0] = float(init.x0)

    sigma, rho = params.sigma, params.rho
    c10 = rho / sigma
    c11 = math.sqrt(sigma**2 - rho**2 / sigma**2)

    # a model that overflows is rejected by TreeSample's finiteness check,
    # not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 1):
            parents = trees[:, level_slice(k)]
            children = trees[:, level_slice(k + 1)]
            z = np.empty((reps, 1 << k, 2))
            for r, seed in enumerate(seeds):
                rekey(gen, seed, k + 1).standard_normal(out=z[r])
            e0 = sigma * z[..., 0]
            e1 = c10 * z[..., 0] + c11 * z[..., 1]
            children[:, 0::2] = params.a0 * parents + params.b0 + e0
            children[:, 1::2] = params.a1 * parents + params.b1 + e1
    return trees


def transition_density_p(params: BarParams, x, y, z):
    """Joint density P(x, y, z) of the two children given parent value x."""
    s2 = params.sigma**2
    det = s2**2 - params.rho**2
    dy = y - params.a0 * x - params.b0
    dz = z - params.a1 * x - params.b1
    g = dy**2 - 2.0 * (params.rho / s2) * dy * dz + dz**2
    return np.exp(-s2 * g / (2.0 * det)) / (2.0 * math.pi * math.sqrt(det))


def q_density(params: BarParams, x, y):
    """Density Q(x, y) of one uniformly chosen child given parent value x."""
    s = params.sigma
    d0 = (y - params.a0 * x - params.b0) / s
    d1 = (y - params.a1 * x - params.b1) / s
    return (np.exp(-0.5 * d0**2) + np.exp(-0.5 * d1**2)) / (2.0 * s * SQRT_2PI)


def stationary_mu(params: BarParams, x):
    """Invariant density of the lineage chain: centered Gaussian with sd sigma_a."""
    sa = params.sigma_a
    return np.exp(-0.5 * (np.asarray(x, dtype=float) / sa) ** 2) / (sa * SQRT_2PI)


def mu_triangle(params: BarParams, x, y, z):
    """Stationary triangle density mu(x) * Q(x, y) * Q(x, z)."""
    s = params.sigma
    qy = np.exp(-0.5 * ((y - params.a0 * x) / s) ** 2) / (s * SQRT_2PI)
    qz = np.exp(-0.5 * ((z - params.a0 * x) / s) ** 2) / (s * SQRT_2PI)
    return stationary_mu(params, x) * qy * qz
