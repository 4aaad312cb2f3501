"""K-fold least-squares cross-validation for the two bandwidths.

The sample is the set of generation-n triangles.  For each fold, the
held-out least-squares score of a candidate bandwidth is

    J(h)     = int (mu_hat_[-k])^2  - (2/|fold|) sum_{u in fold} mu_hat_[-k](X_u)
    J_tri(h) = int (mu_tri_hat_[-k])^2
               - (2/|fold|) sum_{u in fold} mu_tri_hat_[-k](X_u, X_u0, X_u1)

with the squared-estimator integrals in closed form through the Gaussian
self-convolution (the N(0,2) density), coordinatewise in the triangle case.
``j_hat_den``/``j_hat_num`` are the direct per-fold reference; ``cv_select``
computes all folds and all bandwidths in one blocked pairwise pass, since
both integrals and both leave-out terms are sums over pairs of triangles and
only the fold memberships of the pair matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GAUSSIAN, L2_NORM_SQ_CUBED
from .rng import FOLD_STREAM, philox_stream
from .tree import Population, TreeSample

_BLOCK = 4096  # pairwise scratch capped at ~128 MB


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

    def fold_ranks(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == k)

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


def _sq_dists_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # |a|^2 + |b|^2 - 2 a.b via BLAS; cheaper than forming differences for
    # large blocks, and the ~1e-16 cancellation error is invisible under exp
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    d = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0, out=d)


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


def default_grid(n: int, size: int = 32) -> np.ndarray:
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


def _fold_scores(
    sample: TreeSample, partition: FoldPartition, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-fold scores, shape (K, len(grid)), for the denominator and numerator.

    Both criteria decompose into sums of a symmetric kernel of the pair
    (u, v), and for each fold only three aggregates are needed: the grand
    total, the per-fold row sums, and the within-fold sums.  Sorting the
    sample by fold makes folds contiguous, so one blocked pass over the pair
    matrix (upper block triangle only) accumulates everything with row
    reductions and per-fold sub-block sums.
    """
    K, nh = partition.K, grid.size
    vals_raw = sample.level(partition.n)
    tri_raw = np.column_stack(sample.triangle_arrays(Population.GEN_N))
    N = vals_raw.size
    order = np.argsort(partition.assignment, kind="stable")
    vals = vals_raw[order]
    tri = np.ascontiguousarray(tri_raw[order])
    sizes = partition.sizes().astype(float)
    bounds = np.concatenate([[0], np.cumsum(partition.sizes())])  # fold k rows [bounds[k], bounds[k+1])

    # per bandwidth: row sums over all v, and within-fold diagonal sums
    rows = np.zeros((4, nh, N))  # kernels: conv1, ker1, conv3, ker3
    diag = np.zeros((4, nh, K))

    inv4 = 0.25 / grid**2
    for i0 in range(0, N, _BLOCK):
        i1 = min(i0 + _BLOCK, N)
        for j0 in range(i0, N, _BLOCK):
            j1 = min(j0 + _BLOCK, N)
            d1 = (vals[i0:i1, None] - vals[None, j0:j1]) ** 2
            d3 = _sq_dists_gemm(tri[i0:i1], tri[j0:j1])
            # folds overlapping both block ranges, for the within-fold sums
            overlaps = [
                (k, max(bounds[k], i0), min(bounds[k + 1], i1), max(bounds[k], j0), min(bounds[k + 1], j1))
                for k in range(K)
                if bounds[k] < i1 and bounds[k + 1] > i0 and bounds[k] < j1 and bounds[k + 1] > j0
            ]
            for t in range(nh):
                e1 = np.exp(-inv4[t] * d1)
                e3 = np.exp(-inv4[t] * d3)
                for idx, e in ((0, e1), (1, e1 * e1), (2, e3), (3, e3 * e3)):
                    rows[idx, t, i0:i1] += e.sum(axis=1)
                    if j0 != i0:
                        rows[idx, t, j0:j1] += e.sum(axis=0)
                    for k, ri0, ri1, rj0, rj1 in overlaps:
                        if ri0 < ri1 and rj0 < rj1:
                            s = e[ri0 - i0 : ri1 - i0, rj0 - j0 : rj1 - j0].sum()
                            diag[idx, t, k] += s if j0 == i0 else 2.0 * s

    m = N - sizes  # complement sizes
    j_den = np.empty((K, nh))
    j_num = np.empty((K, nh))
    for t, h in enumerate(grid):
        fold_rows = np.add.reduceat(rows[:, t, :], bounds[:-1], axis=1)  # (4, K)
        totals = rows[:, t, :].sum(axis=1)
        for out, (ci, cl), hp, (rw, dg, tot), (rk, dk) in (
            (j_den, (GAUSSIAN.l2_norm_sq, GAUSSIAN.sup_norm), h, (fold_rows[0], diag[0, t], totals[0]), (fold_rows[1], diag[1, t])),
            (j_num, (L2_NORM_SQ_CUBED, GAUSSIAN.sup_norm**3), h**3, (fold_rows[2], diag[2, t], totals[2]), (fold_rows[3], diag[3, t])),
        ):
            comp = tot - 2.0 * rw + dg  # complement-complement pair sums
            cross = rk - dk  # held-out rows restricted to the complement
            out[:, t] = ci * comp / (m * m * hp) - 2.0 * cl * cross / (sizes * m * hp)
    return j_den, j_num
