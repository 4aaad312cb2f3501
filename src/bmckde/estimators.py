"""Kernel estimators of the invariant, triangle, and transition densities.

The sample is the set of mother-daughters triangles over a chosen index set
(one generation, or the whole tree).  Everything is direct summation, no
binning or FFT shortcuts, done by one blocked primitive over a tensor grid of
evaluation points; the scalar estimators are one-point grids, so grid
evaluations agree bitwise with scalar calls by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .kernels import GAUSSIAN, BandwidthTriple
from .tree import Population, TreeSample

# Quotient degeneracy threshold: the Gaussian kernel is strictly positive, so
# a vanishing denominator can only be underflow; compare against this rather
# than exact zero.
DENOMINATOR_FLOOR = 1e-300

_BLOCK_ENTRIES = 1 << 22  # cap scratch matrices at ~32 MB per block


def _kernel_sums(columns, bandwidths, axes) -> np.ndarray:
    """Normalized product-kernel sums at every point of the tensor grid of ``axes``.

    Coordinate j of a grid point a contributes K0((a_j - columns[j]) / bandwidths[j])
    per sample member; the value is the sum over the sample of the product of
    those factors, divided by N times the bandwidths.  Values come flattened in
    C order (first axis slowest).  Kernel rows are computed once per axis
    value, and the product over the trailing axes of a block of trailing
    points is reused for every first-axis row in a block of them.  A value is
    always the contiguous row sum of the same elementwise products, so any
    grid agrees bitwise with one-point grids.  Blocks hold at most
    ``_BLOCK_ENTRIES`` entries; the trailing axes' kernel rows are kept whole.
    """
    for h in bandwidths:
        if not (h > 0 and math.isfinite(h)):
            raise ValueError("bandwidth must be positive and finite")
    size = columns[0].size
    if size == 0:
        raise ValueError("empty index set")
    trailing = [GAUSSIAN((ax[:, None] - col[None, :]) / h) for ax, col, h in zip(axes[1:], columns[1:], bandwidths[1:])]
    shape = tuple(ax.size for ax in axes[1:])
    n_trail = math.prod(shape)
    step = max(1, _BLOCK_ENTRIES // size)
    out = np.empty((axes[0].size, n_trail))
    for a0 in range(0, axes[0].size, step):
        lead = GAUSSIAN((axes[0][a0 : a0 + step, None] - columns[0][None, :]) / bandwidths[0])
        if not trailing:
            out[a0 : a0 + step, 0] = np.sum(lead, axis=-1)
            continue
        for t0 in range(0, n_trail, step):
            t1 = min(t0 + step, n_trail)
            idx = np.unravel_index(np.arange(t0, t1), shape)
            tail = trailing[0][idx[0]]
            for rows, i in zip(trailing[1:], idx[1:]):
                tail = tail * rows[i]
            for i, row in enumerate(lead):
                out[a0 + i, t0:t1] = np.sum(row * tail, axis=-1)
    norm = size
    for h in bandwidths:
        norm = norm * h
    return out.ravel() / norm


def mu_hat(sample: TreeSample, population: Population, h: float, x: float) -> float:
    """Kernel estimate of the invariant density at x: (1/(N h)) sum K0((x - X_u)/h)."""
    vals = sample.population_parents(population)
    return float(_kernel_sums((vals,), (h,), (np.array([x], dtype=float),))[0])


def mu_tri_hat(
    sample: TreeSample,
    population: Population,
    bw: BandwidthTriple,
    x: float,
    x0: float,
    x1: float,
) -> float:
    """Kernel estimate of the triangle density at (x, x0, x1).

    Triple-product kernel sum over the triangles of the index set, normalized
    by N * h * h0 * h1 so the estimate integrates to one.
    """
    point = tuple(np.array([v], dtype=float) for v in (x, x0, x1))
    return float(_kernel_sums(sample.triangle_arrays(population), (bw.h, bw.h0, bw.h1), point)[0])


def p_hat(
    sample: TreeSample,
    population: Population,
    bw_num: BandwidthTriple,
    h_den: float,
    x: float,
    x0: float,
    x1: float,
) -> float:
    """Quotient estimate of the transition density, numerator and denominator
    smoothed with their own bandwidths; 0 when the denominator underflows."""
    den = mu_hat(sample, population, h_den, x)
    if den < DENOMINATOR_FLOOR:
        return 0.0
    return mu_tri_hat(sample, population, bw_num, x, x0, x1) / den


@dataclass
class EstimatorSpec:
    """Which estimator to evaluate and with what smoothing."""

    kind: str  # "mu" | "mu_tri" | "p"
    population: Population = Population.GEN_N
    h: float | None = None  # mu bandwidth, and p denominator bandwidth
    bw: BandwidthTriple | None = None  # numerator bandwidths for mu_tri / p

    def __post_init__(self) -> None:
        if self.kind not in ("mu", "mu_tri", "p"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "mu" and self.h is None:
            raise ValueError("mu estimator needs h")
        if self.kind in ("mu_tri", "p") and self.bw is None:
            raise ValueError(f"{self.kind} estimator needs a bandwidth triple")
        if self.kind == "p" and self.h is None:
            raise ValueError("p estimator needs the denominator bandwidth h")


@dataclass
class DensityEstimate:
    """Estimator values over a grid, with enough metadata to reproduce them."""

    points: np.ndarray  # (G,) for mu, (G, 3) otherwise
    values: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.points.shape[0] != self.values.shape[0]:
            raise ValueError("points and values lengths differ")

    def to_csv(self, path: str) -> None:
        cols = ["x"] if self.points.ndim == 1 else ["x", "x0", "x1"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols + ["value"]) + "\n")
            pts = self.points if self.points.ndim == 2 else self.points[:, None]
            for row, v in zip(pts, self.values):
                fh.write(",".join(repr(float(c)) for c in row) + f",{float(v)!r}\n")


def product_points(xs: np.ndarray, x0s: np.ndarray, x1s: np.ndarray) -> np.ndarray:
    """Tensor-product grid flattened in C order (x slowest, x1 fastest)."""
    gx, g0, g1 = np.meshgrid(xs, x0s, x1s, indexing="ij")
    return np.column_stack([gx.ravel(), g0.ravel(), g1.ravel()])


def evaluate_on_grid(sample: TreeSample, spec: EstimatorSpec, grid) -> DensityEstimate:
    """Evaluate an estimator over a grid; pointwise-identical to scalar calls.

    ``grid`` is a 1-D array of x's for the mu estimator, and a tuple of three
    axis arrays (tensor-product grid, C order) for the three-dimensional
    estimators.
    """
    meta: dict[str, Any] = {
        "estimator": spec.kind,
        "population": spec.population.value,
        "sample_depth": sample.depth,
    }
    if spec.kind == "mu":
        xs = np.atleast_1d(np.asarray(grid, dtype=float))
        if xs.size == 0:
            raise ValueError("empty grid")
        vals = sample.population_parents(spec.population)
        meta.update(h=spec.h, sample_size=int(vals.size))
        return DensityEstimate(xs, _kernel_sums((vals,), (spec.h,), (xs,)), meta)

    if not (isinstance(grid, tuple) and len(grid) == 3):
        raise ValueError("3-d grid must be a tuple of three axes")
    axes = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in grid)
    if any(ax.size == 0 for ax in axes):
        raise ValueError("empty grid")
    bw = spec.bw
    columns = sample.triangle_arrays(spec.population)
    meta.update(bw=[bw.h, bw.h0, bw.h1], sample_size=int(columns[0].size))
    values = _kernel_sums(columns, (bw.h, bw.h0, bw.h1), axes)
    if spec.kind == "p":
        meta.update(h_den=spec.h)
        den = _kernel_sums((columns[0],), (spec.h,), axes[:1])[:, None]
        values = values.reshape(den.size, -1)
        values = np.where(den < DENOMINATOR_FLOOR, 0.0, values / np.where(den == 0, 1.0, den)).ravel()
    return DensityEstimate(product_points(*axes), values, meta)
