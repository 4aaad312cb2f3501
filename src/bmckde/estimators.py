"""Kernel estimators of the invariant, triangle, and transition densities.

The sample is the set of mother-daughters triangles over a chosen index set
(one generation, or the whole tree).  Everything is direct summation, no
binning or FFT shortcuts, done by one primitive, ``kernel_sums``, over a
stack of same-size samples, one tree per row with a bandwidth per tree or one
for all, and a tensor grid of evaluation points; ``p_at`` is the one quotient
of two of its sums.  It keeps the daughter axes' kernel rows whole and forms
the products in two reused cache-sized buffers; every value is still one
contiguous sum over the sample.  The scalar estimators are one-tree,
one-point calls of these two and ``evaluate_on_grid`` is a one-tree call, so
grid evaluations agree bitwise with scalar calls, and each tree of a stack
with its one-tree call, by construction; the CLT harness estimates a block
of trees that way.
A grid of more than one unit is computed by a pool of worker threads, one
per CPU the process may use, each pinned to its own CPU, with its own
buffers; the executor's queue gives the next unit to whichever thread is
free, and the values are the same bits at any thread count.  The same pool
runs the cross-validation sweep in ``cv``.  Calls of one unit, and calls
inside a ``multiprocessing`` worker, stay on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from multiprocessing import parent_process
from typing import Any

import numpy as np

from .kernels import BandwidthTriple, gaussian
from .table import write_csv
from .tree import Population, TreeSample

# Quotient degeneracy threshold: the Gaussian kernel is strictly positive, so
# a vanishing denominator can only be underflow; compare against this rather
# than exact zero.
DENOMINATOR_FLOOR = 1e-300

# doubles per scratch buffer (512 KB); each thread fills its own two on its first
# unit, and with its x block's kernel rows a thread's three buffers fit a 2 MB L2
_BLOCK_ENTRIES = 1 << 16
# worker threads per pooled call (grid estimator, CV sweep); results are bitwise the same at any count
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pin(cpus):
    """Pool initializer: pin the new worker thread to the next CPU of ``cpus``."""
    try:
        os.sched_setaffinity(0, {cpus.pop()})
    except OSError:  # not allowed here: the thread runs unpinned
        pass


@contextmanager
def _worker_pool(units):
    """A ``map(fn, units)`` for a call of ``units`` work units, on one thread pool.

    The map yields ``fn(unit)`` for each unit, in unit order.  The pool has
    one thread per CPU the process may use, at most one per unit, and lives
    for the ``with`` block; each worker is pinned to its own CPU of the
    calling thread's affinity mask (unpinned where that is not allowed), and
    the calling thread is never pinned.  The executor's queue gives the next
    unit to whichever worker is free; at most 4 units per thread are queued
    or wait for the caller.  Calls of at most one unit, and calls inside a
    ``multiprocessing`` worker, get the built-in ``map`` on the calling
    thread.  Units computed exactly as on one thread therefore give the
    same values at any thread count.
    """
    threads = min(_THREADS, units)
    if threads <= 1 or parent_process() is not None:
        yield map
        return
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    pinning = {"initializer": _pin, "initargs": ([cpus[i % len(cpus)] for i in range(threads)],)} if cpus else {}
    pool = ThreadPoolExecutor(threads, **pinning)

    def pmap(fn, units):
        todo = iter(units)
        queued = deque(pool.submit(fn, unit) for unit in islice(todo, 4 * threads))
        while queued:
            result = queued.popleft().result()
            queued.extend(pool.submit(fn, unit) for unit in islice(todo, 1))
            yield result

    try:
        yield pmap
    finally:
        pool.shutdown(cancel_futures=True)


def kernel_sums(columns, bandwidths, axes) -> np.ndarray:
    """Normalized product-kernel sums at every point of the tensor grid of ``axes``.

    ``columns`` are a stack of R same-size samples, each (R, N), one tree per
    row (one tree is a stack of one).  ``bandwidths`` is (h,) or a triple, each
    a number or one per tree, checked here alone.  ``axes`` is (x,) or
    (x, x0, x1), each 1-D, finite and nonempty.
    Coordinate j of a grid point a contributes K0((a_j - columns[j]) /
    bandwidths[j]) per sample member; the value is the sum over the sample
    of the product of those factors, divided by N times the bandwidths.
    Values come as (R, G), one row per tree, each flattened in C order
    (first axis slowest).  The x0 and x1 kernel rows are kept whole, the x
    rows computed in blocks.  The products ``k0 * k1`` of one x0 row with a
    chunk of x1 rows (the whole axis, for several x0 rows, when it fits) go
    into a reused buffer, and each x row is multiplied into a second one and
    summed.  Every value is the contiguous row sum of ``kx * (k0 * k1)``,
    every tree is computed as it would be alone, so any grid agrees bitwise
    with one-point grids and any stack with one-tree calls.  Buffers hold at
    most ``_BLOCK_ENTRIES`` entries, or one row per tree if that is more.

    The kernel-row blocks, then the (x block, x0 rows) product units, each
    looping over its x1 chunks, are mapped over the threads of one
    ``_worker_pool`` that lives for this call.  A thread fills its two
    buffers on its first unit and keeps the kernel rows of the last x block
    it took.  Each unit is computed exactly as on one thread, into its own
    slice of the result, so the values do not depend on the thread count or
    on which thread takes which unit.  One-unit calls (every scalar
    estimate) and calls inside a ``multiprocessing`` worker run on the
    calling thread.
    """
    trees, size = columns[0].shape
    hs = []
    for h in bandwidths:
        h = np.asarray(h, dtype=float)
        if h.shape not in ((), (trees,)):
            raise ValueError("one bandwidth per tree of the stack")
        if not ((h > 0) & (h < math.inf)).all():  # NaN fails both
            raise ValueError("bandwidth must be positive and finite")
        hs.append(h.reshape(-1, 1, 1))
    for ax in axes:
        if ax.ndim != 1 or not np.all(np.isfinite(ax)):
            raise ValueError("grid axes must be 1-D and finite")
        if ax.size == 0:
            raise ValueError("empty grid")
    if size == 0:
        raise ValueError("empty index set")
    step = max(1, _BLOCK_ENTRIES // (trees * size))  # kernel rows per tree per buffer
    trailing = [np.empty((trees, ax.size, size)) for ax in axes[1:]]
    row_blocks = [
        (rows[:, i : i + step], ax[i : i + step], col, h)
        for rows, ax, col, h in zip(trailing, axes[1:], columns[1:], hs[1:])
        for i in range(0, ax.size, step)
    ]
    out = np.empty((trees, axes[0].size, math.prod(ax.size for ax in axes[1:])))
    lead_blocks = range(0, axes[0].size, step)
    if trailing:
        k0, k1 = trailing
        n0, n1 = k0.shape[1], k1.shape[1]
        chunk = min(step, n1)
        group = min(n0, max(1, step // n1))  # x0 rows per unit
        units = [(a0, i0) for a0 in lead_blocks for i0 in range(0, n0, group)]
    else:
        units = [(a0, 0) for a0 in lead_blocks]
    mine = threading.local()  # per thread: its x block's kernel rows and its two product buffers

    def kernel_rows(ax, col, h):
        return gaussian((ax[None, :, None] - col[:, None, :]) / h)

    def fill_rows(block):
        rows, ax, col, h = block
        rows[...] = kernel_rows(ax, col, h)

    def fill_products(unit):
        a0, i0 = unit
        if getattr(mine, "lead_at", None) != a0:  # a thread may take any unit next
            mine.lead = kernel_rows(axes[0][a0 : a0 + step], columns[0], hs[0])
            mine.lead_at = a0
        if not trailing:
            out[:, a0 : a0 + step, 0] = np.sum(mine.lead, axis=-1)
            return
        if not hasattr(mine, "tail"):  # the thread's first unit
            mine.tail, mine.prod = np.empty((2, trees * group * chunk, size))
        r0 = k0[:, i0 : i0 + group, None]
        for i1 in range(0, n1, chunk):
            r1 = k1[:, None, i1 : i1 + chunk]
            m = r0.shape[1] * r1.shape[2]
            block = mine.tail[: trees * m].reshape(trees, m, size)
            scratch = mine.prod[: trees * m].reshape(trees, m, size)
            np.multiply(r0, r1, out=block.reshape(trees, r0.shape[1], r1.shape[2], size))
            t0 = i0 * n1 + i1
            for i in range(mine.lead.shape[1]):
                row = mine.lead[:, i, None]
                out[:, a0 + i, t0 : t0 + m] = np.sum(np.multiply(row, block, out=scratch), axis=-1)

    with _worker_pool(len(units)) as pmap:
        list(pmap(fill_rows, row_blocks))
        list(pmap(fill_products, units))
    norm = size
    for h in hs:
        norm = norm * h
    return (out / norm).reshape(trees, -1)


def p_at(columns, bandwidths, h_den, axes) -> np.ndarray:
    """The quotient estimate of the transition density over the grid of ``axes``.

    ``columns``, ``bandwidths`` (h, h0, h1) and ``axes`` (x, x0, x1) are as
    for ``kernel_sums``, and so are the (R, G) values; ``h_den`` is the
    denominator's bandwidth, a number or one per tree.  The numerator is the
    triangle-density sum, the denominator the x-only sum at each x of the
    grid, and a value is 0 where the denominator underflows (below
    ``DENOMINATOR_FLOOR``).
    """
    num = kernel_sums(columns, bandwidths, axes)
    den = kernel_sums(columns[:1], (h_den,), axes[:1])[:, :, None]
    by_x = num.reshape(den.shape[0], den.shape[1], -1)
    return np.where(den < DENOMINATOR_FLOOR, 0.0, by_x / np.maximum(den, DENOMINATOR_FLOOR)).reshape(num.shape)


def _one_tree(sample: TreeSample, population: Population):
    """The triangle columns of ``sample`` as a stack of one tree."""
    return tuple(col[None] for col in sample.triangle_arrays(population))


def _one_point(*coords):
    """One-point axes: a 1-element axis per coordinate."""
    return tuple(np.array([v], dtype=float) for v in coords)


def mu_hat(sample: TreeSample, population: Population, h: float, x: float) -> float:
    """Kernel estimate of the invariant density at x: (1/(N h)) sum K0((x - X_u)/h)."""
    return float(kernel_sums(_one_tree(sample, population)[:1], (h,), _one_point(x))[0, 0])


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
    return float(kernel_sums(_one_tree(sample, population), bw, _one_point(x, x0, x1))[0, 0])


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
    return float(p_at(_one_tree(sample, population), bw_num, h_den, _one_point(x, x0, x1))[0, 0])


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
        write_csv(path, cols + ["value"], np.column_stack([self.points, self.values]).tolist())


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
    columns = _one_tree(sample, spec.population)
    if spec.kind == "mu":
        xs = np.atleast_1d(np.asarray(grid, dtype=float))
        meta.update(h=spec.h, sample_size=int(columns[0].size))
        return DensityEstimate(xs, kernel_sums(columns[:1], (spec.h,), (xs,))[0], meta)

    if not (isinstance(grid, tuple) and len(grid) == 3):
        raise ValueError("3-d grid must be a tuple of three axes")
    axes = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in grid)
    meta.update(bw=list(spec.bw), sample_size=int(columns[0].size))
    if spec.kind == "p":
        meta.update(h_den=spec.h)
        values = p_at(columns, spec.bw, spec.h, axes)[0]
    else:
        values = kernel_sums(columns, spec.bw, axes)[0]
    return DensityEstimate(product_points(*axes), values, meta)
