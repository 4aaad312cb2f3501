"""K-fold least-squares cross-validation for the two bandwidths.

The sample is the set of generation-n triangles.  For each fold, the
held-out least-squares score of a candidate bandwidth is

    J(h)     = int (mu_hat_[-k])^2  - (2/|fold|) sum_{u in fold} mu_hat_[-k](X_u)
    J_tri(h) = int (mu_tri_hat_[-k])^2
               - (2/|fold|) sum_{u in fold} mu_tri_hat_[-k](X_u, X_u0, X_u1)

with the squared-estimator integrals in closed form through the Gaussian
self-convolution (the N(0,2) density), coordinatewise in the triangle case.
``j_hat_den``/``j_hat_num`` are the direct per-fold reference.  ``cv_select``
scores all folds and bandwidths in one sweep: both integrals and both
leave-out terms are sums over pairs of triangles in which only the folds of
the pair matter, so per kernel (conv and kernel, one and three coordinates)
each fold's sums against all triangles and against itself, with the total,
are exact sufficient statistics for every fold's score.  The sweep's chunk
pairs are mapped over the pinned worker threads of
``estimators._worker_pool``, whose queue gives the next pair to whichever
thread is free; each thread fills its buffers on its first pair, and the
calling thread adds each pair's partial sums in the one-thread order, so
scores are the same bits at any thread count.  A sweep of one chunk pair,
or inside a ``multiprocessing`` worker, runs on the calling thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .estimators import _worker_pool
from .kernels import GAUSSIAN, L2_NORM_SQ_CUBED
from .rng import FOLD_STREAM, philox_stream
from .tree import Population, TreeSample

_BLOCK = 256  # rows per chunk: three 512 KB pair buffers per thread, filled on its first chunk pair and reused
# Exponents are raised to this floor before exp.  Below it the squared kernel
# exp(x)^2 = exp(2x) underflows, and below twice it exp(x) itself; results that
# underflow take a slow path about 20x costlier per element.  A raised term is
# < 1.6e-154, while the row and total sums every score is formed from hold
# the terms exp(0) = 1 of the pairs u = v, so the change is far below their
# rounding.
_EXP_FLOOR = -354.0


@dataclass(frozen=True)
class FoldPartition:
    """Assignment of each generation-n node to one of K folds."""

    n: int
    K: int
    assignment: np.ndarray  # fold index per rank, length 2^n

    def __post_init__(self) -> None:
        if self.assignment.shape != (1 << self.n,):
            raise ValueError("assignment length must be 2^n")
        counts = np.bincount(self.assignment, minlength=self.K)
        if len(counts) > self.K or np.any(counts == 0):
            raise ValueError("folds must be nonempty and indices < K")
        if counts.max() - counts.min() > 1:
            raise ValueError("fold sizes must differ by at most one")

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.K)


def make_folds(n: int, K: int, seed: int) -> FoldPartition:
    """Seeded uniform balanced partition of generation n into K folds."""
    if not 2 <= K <= (1 << n):
        raise ValueError(f"need 2 <= K <= 2^n, got K={K}, n={n}")
    perm = philox_stream(seed, FOLD_STREAM).permutation(1 << n)
    assignment = np.empty(1 << n, dtype=np.int64)
    assignment[perm] = np.arange(1 << n) % K
    return FoldPartition(n, K, assignment)


def _check_fold(sample: TreeSample, partition: FoldPartition, k: int) -> None:
    if sample.depth != partition.n:
        raise ValueError("partition depth does not match sample")
    if not 0 <= k < partition.K:
        raise ValueError(f"fold {k} outside [0, {partition.K})")


def j_hat_den(sample: TreeSample, partition: FoldPartition, k: int, h: float) -> float:
    """Held-out least-squares score of h for the invariant-density estimator."""
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    _check_fold(sample, partition, k)
    vals = sample.level(partition.n)
    held = vals[partition.assignment == k]
    rest = vals[partition.assignment != k]
    if held.size == 0 or rest.size == 0:
        raise ValueError("fold and complement must both be nonempty")
    m = rest.size
    diff = (rest[:, None] - rest[None, :]) / h
    integral = GAUSSIAN.l2_norm_sq * float(np.sum(np.exp(-0.25 * diff**2))) / (m * m * h)
    cross = (held[:, None] - rest[None, :]) / h
    leave_out = GAUSSIAN.sup_norm * float(np.sum(np.exp(-0.5 * cross**2))) / (held.size * m * h)
    return integral - 2.0 * leave_out


def j_hat_num(sample: TreeSample, partition: FoldPartition, k: int, h: float) -> float:
    """Held-out least-squares score of h for the triangle-density estimator."""
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    _check_fold(sample, partition, k)
    tri = np.column_stack(sample.triangle_arrays(Population.GEN_N))
    held = tri[partition.assignment == k]
    rest = tri[partition.assignment != k]
    if held.shape[0] == 0 or rest.shape[0] == 0:
        raise ValueError("fold and complement must both be nonempty")
    m = rest.shape[0]
    d2 = _sq_dists(rest, rest) / h**2
    integral = L2_NORM_SQ_CUBED * float(np.sum(np.exp(-0.25 * d2))) / (m * m * h**3)
    c2 = _sq_dists(held, rest) / h**2
    leave_out = GAUSSIAN.sup_norm**3 * float(np.sum(np.exp(-0.5 * c2))) / (held.shape[0] * m * h**3)
    return integral - 2.0 * leave_out


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


@dataclass
class CvResult:
    """Candidate grid, averaged scores, and the two selected bandwidths."""

    grid: np.ndarray
    scores_den: np.ndarray
    scores_num: np.ndarray
    h_d_hat: float
    h_n_hat: float
    K: int
    seed: int


DEFAULT_GRID_SIZE = 32


def default_grid(n: int, size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Log-spaced candidates bracketing the 2^(-n*gamma), gamma in (0, 1/3) range."""
    return np.geomspace(2.0 ** (-0.33 * n), 1.0, size)


def cv_select(
    sample: TreeSample,
    K: int = 5,
    grid: np.ndarray | None = None,
    seed: int = 0,
) -> CvResult:
    """Select denominator and numerator bandwidths by K-fold cross-validation.

    Scores every candidate on every fold in one blocked pairwise sweep and
    averages over folds; ties (and the argmin) resolve to the smallest h.
    """
    n = sample.depth
    if grid is None:
        grid = default_grid(n)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty bandwidth grid")
    if not np.all((grid > 0) & (grid <= 1)) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing within (0, 1]")
    partition = make_folds(n, K, seed)
    j_den, j_num = _fold_scores(sample, partition, grid)
    scores_den = j_den.mean(axis=0)
    scores_num = j_num.mean(axis=0)
    return CvResult(
        grid=grid,
        scores_den=scores_den,
        scores_num=scores_num,
        h_d_hat=float(grid[np.argmin(scores_den)]),
        h_n_hat=float(grid[np.argmin(scores_num)]),
        K=K,
        seed=seed,
    )


def _fold_scores(sample: TreeSample, partition: FoldPartition, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-fold scores, shape (K, len(grid)), for the denominator and numerator.

    Each criterion sums a symmetric kernel over pairs (u, v); fold k's score
    needs only its row (k against all), its diagonal (k against k) and the
    total.  Rows sorted by fold are cut into chunks of at most _BLOCK rows,
    long folds into pieces and short ones grouped whole, so there are about
    N / _BLOCK chunks for any K; each chunk pair a <= b adds its sums by fold.
    Worker threads compute the pairs, each with its own buffers, and the
    calling thread adds their sums in (a, b) order as they arrive.
    """
    K, nh = partition.K, grid.size
    order = np.argsort(partition.assignment, kind="stable")
    x, x0, x1 = (a[order] for a in sample.triangle_arrays(Population.GEN_N))
    sizes = partition.sizes()
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    fold = np.repeat(np.arange(K), sizes)  # fold of each sorted row
    per_chunk = max(1, _BLOCK // int(sizes.max()))  # whole folds per chunk
    cuts = np.concatenate([np.arange(bounds[k], bounds[k + 1], _BLOCK) for k in range(0, K, per_chunk)] + [bounds[-1:]])
    # chunk: rows i0:i1, first fold f, start of each of its folds within the chunk
    chunks = [(i0, i1, fold[i0], np.maximum(bounds[fold[i0] : fold[i1 - 1] + 1] - i0, 0)) for i0, i1 in zip(cuts[:-1], cuts[1:])]

    pairs = [(a, b) for a in range(len(chunks)) for b in range(a, len(chunks))]
    scale = -0.25 / grid**2
    side = int(np.diff(cuts).max())

    mine = threading.local()  # per thread: its buffers, filled on its first pair

    def sweep(pair):
        # the chunk pair's row sums by fold, then its diagonal block, column
        # sums by fold or one-fold total, whichever the pair adds
        if not hasattr(mine, "flat"):
            mine.flat, mine.sums = np.empty((3, side * side)), np.empty((3, 4, nh, side))
        flat, (rs, cs, ds) = mine.flat, mine.sums  # pair buffers; row, column and same-fold sums
        (i0, i1, f, starts), (j0, j1, l, lstarts) = (chunks[c] for c in pair)
        ni, nj = i1 - i0, j1 - j0
        d1, d3, e = (buf[: ni * nj].reshape(ni, nj) for buf in flat)
        for v, buf in ((x, d1), (x0, d3), (x1, e)):
            np.square(np.subtract.outer(v[i0:i1], v[j0:j1], out=buf), out=buf)
        np.add(np.add(d3, e, out=d3), d1, out=d3)
        nr = ni if starts.size > 1 else 1  # row sums where rows span several folds, else one total
        er = e.reshape(nr, -1)
        csplit = j0 != i0 and lstarts.size > 1  # columns of several folds: keep the column sums
        same = fold[i0:i1, None] == fold[None, i0:i1] if j0 == i0 and nr > 1 else None
        for t in range(nh):
            for c, d in ((0, d1), (2, d3)):
                np.exp(np.maximum(np.multiply(d, scale[t], out=e), _EXP_FLOOR, out=e), out=e)
                for q in (c, c + 1):  # the conv kernel, then its square, the kernel
                    if q > c:
                        np.square(e, out=e)
                    er.sum(axis=1, out=rs[q, t, :nr])
                    if csplit:
                        e.sum(axis=0, out=cs[q, t, :nj])
                    if same is not None:
                        np.sum(e, axis=1, where=same, out=ds[q, t, :ni])
        r = rs[:, :, :nr]
        if j0 == i0:  # the chunk against itself
            other = r.copy() if same is None else np.add.reduceat(ds[:, :, :ni], starts, axis=-1)
        elif csplit:
            other = np.add.reduceat(cs[:, :, :nj], lstarts, axis=-1)
        else:  # columns of one fold l
            other = r.sum(axis=-1)
        return np.add.reduceat(r, starts, axis=-1), other

    # the calling thread adds every pair's sums in (a, b) order, as one thread would
    rows = np.zeros((4, nh, K))  # kernels conv1, ker1, conv3, ker3; fold k against every row
    diag = np.zeros((4, nh, K))  # fold k against itself
    with _worker_pool(len(pairs)) as pmap:
        for (a, b), (row, other) in zip(pairs, pmap(sweep, pairs)):
            (_, _, f, starts), (_, _, l, lstarts) = chunks[a], chunks[b]
            rows[:, :, f : f + starts.size] += row
            if a == b:
                diag[:, :, f : f + starts.size] += other
            elif lstarts.size > 1:
                rows[:, :, l : l + lstarts.size] += other
            else:
                rows[:, :, l] += other
                if l == f:  # two pieces of one fold: both orders
                    diag[:, :, l] += 2.0 * other

    comp = rows.sum(axis=-1, keepdims=True) - 2.0 * rows + diag  # complement-complement pair sums
    cross = rows - diag  # held-out rows against the complement
    m = bounds[-1] - sizes  # complement sizes
    h, h3 = grid[:, None], grid[:, None] ** 3
    j_den = GAUSSIAN.l2_norm_sq * comp[0] / (m * m * h) - 2.0 * GAUSSIAN.sup_norm * cross[1] / (sizes * m * h)
    j_num = L2_NORM_SQ_CUBED * comp[2] / (m * m * h3) - 2.0 * GAUSSIAN.sup_norm**3 * cross[3] / (sizes * m * h3)
    return j_den.T, j_num.T
