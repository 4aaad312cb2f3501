"""Monte Carlo experiment driver: replications, standardized statistics, figures.

Each replication simulates a fresh tree from a seed derived from the master
seed and the replication index.  A CLT run's unit of work is a block of
replications at one depth, about ``_BLOCK_VALUES`` tree values of them (one
tree under cross-validation): one simulation pass builds the block's trees,
each gets its own bandwidths, and one estimator call computes every tree's
statistic, each to the bits of its one-tree call.  Block boundaries depend
only on the depth, the replication count and the selector kind, so reports
are bit-identical across runs, block sizes and worker-pool sizes; a block
returns its rows, grouped by depth.  The pool workers keep freed block arrays
on glibc's heap instead of handing them back to the OS; the calling process's
allocator is never changed, other C libraries skip the setting, and results
stay byte-identical at any pool size.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from typing import ClassVar, Sequence

import numpy as np

from .bar import BarParams, InitSpec, mu_triangle, simulate, simulate_trees, transition_density_p
from .cv import DEFAULT_GRID_SIZE, cv_select, default_grid
from .estimators import EstimatorSpec, evaluate_on_grid, kernel_sums, p_at
from .kernels import BandwidthTriple
from .rng import derive_seed
from .rot import DEFAULT_LAG, rot_select
from .table import write_csv, write_text
from .tree import Population, TreeSample, triangle_columns
from . import estimators, oracle

# tree values per CLT block: a pool task simulates and estimates the
# replications of one depth in blocks of this many values (at least one
# tree); rows are the same bits at any block size
_BLOCK_VALUES = 1 << 18

CASE1 = BarParams(0.7, 0.5, 0.0, 0.0, 1.0, 0.0)
CASE2 = BarParams(1.2, 0.7, 0.0, 0.0, 1.0, 0.0)  # supercritical first branch


@dataclass(frozen=True)
class FixedGamma:
    """Deterministic bandwidth h = 2^(-n*gamma), gamma in (0, 1/3)."""

    kind: ClassVar[str] = "fixed"
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0 / 3.0:
            raise ValueError("gamma must lie in (0, 1/3)")


@dataclass(frozen=True)
class CvSelector:
    """K-fold cross-validation over explicit candidates ``grid`` or over
    ``grid_size`` default ones (``DEFAULT_GRID_SIZE`` when neither is given),
    never both."""

    kind: ClassVar[str] = "cv"
    K: int = 5
    grid_size: int | None = None
    grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.grid is not None and self.grid_size is not None:
            raise ValueError("give explicit candidates (grid) or their number (grid_size), not both")

    def candidates(self, n: int) -> np.ndarray:
        if self.grid is not None:
            return np.asarray(self.grid, dtype=float)
        return default_grid(n, DEFAULT_GRID_SIZE if self.grid_size is None else self.grid_size)


@dataclass(frozen=True)
class RotSelector:
    kind: ClassVar[str] = "rot"
    m: int = DEFAULT_LAG


Selector = FixedGamma | CvSelector | RotSelector


@dataclass(frozen=True)
class ExperimentSpec:
    """One distributional-check experiment."""

    model: BarParams
    n_list: tuple[int, ...]
    replications: int
    point: tuple[float, float, float] = (0.0, 0.0, 0.0)
    population: Population = Population.GEN_N
    selector: Selector = FixedGamma(0.2)
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not self.n_list:
            raise ValueError("n_list must be nonempty")


@dataclass
class ReplicationRow:
    replication: int
    seed: int
    n: int
    h_num: float
    h_den: float
    estimate: float
    stat: float


@dataclass
class ExperimentReport:
    rows: list[ReplicationRow]
    summaries: list[dict] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        write_csv(path, [f.name for f in fields(ReplicationRow)], map(astuple, self.rows))


def summarize_stats(zs: np.ndarray) -> dict:
    """Moments and normal-fit diagnostics of the standardized statistics.

    Skewness, excess kurtosis and the KS distance to N(0, 1) are scipy's
    ``stats.skew``, ``stats.kurtosis`` and ``stats.kstest(zs, "norm")``
    statistic, written out in their operation order so that only
    ``scipy.special.ndtr`` is loaded; a test pins every field bitwise to
    scipy's.
    """
    from scipy.special import ndtr

    zs = np.asarray(zs, dtype=float)
    n = zs.size
    mean = np.mean(zs, keepdims=True)
    d = zs - mean
    d2 = d**2
    m2 = np.mean(d2)
    # scipy's moments are NaN when the spread is below rounding of the mean
    flat = bool(m2 <= (np.finfo(float).eps * mean) ** 2)
    skewness = np.nan if flat else np.mean(d2 * d) / m2**1.5
    kurtosis = np.nan if flat else np.mean(d2**2) / m2**2.0 - 3
    cdf = ndtr(np.sort(zs))
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return {
        "replications": n,
        "mean": float(mean[0]),
        "variance": float(np.var(zs, ddof=1)) if n > 1 else float("nan"),
        "skewness": float(skewness) if n > 2 else float("nan"),
        "excess_kurtosis": float(kurtosis) if n > 3 else float("nan"),
        "ks_distance": float(d_plus if d_plus > d_minus else d_minus),
    }


def _bandwidths_for(sample, selector: Selector, cv_seed: int) -> tuple[BandwidthTriple, float]:
    """(numerator triple, denominator bandwidth) for one simulated sample."""
    if isinstance(selector, FixedGamma):
        h = 2.0 ** (-sample.depth * selector.gamma)
        return BandwidthTriple.scalar(h), h
    if isinstance(selector, CvSelector):
        res = cv_select(sample, K=selector.K, grid=selector.candidates(sample.depth), seed=cv_seed)
        return BandwidthTriple.scalar(res.h_n_hat), res.h_d_hat
    sel = rot_select(sample, selector.m)
    return BandwidthTriple(sel.h_n_hat, sel.h_0n_hat, sel.h_1n_hat), sel.h_d_hat


def _blocks(n: int, replications: int, selector: Selector) -> list[range]:
    """Replication indices of each block at depth n, in order.

    A block holds as many depth-n trees as fit in ``_BLOCK_VALUES`` values,
    at least one, so its boundaries depend only on n, the count and the
    selector's kind.  Blocks save a fixed per-call cost per tree, a fraction
    of a millisecond; a cross-validated tree costs tens of milliseconds to
    seconds more to select, so under ``CvSelector`` a block is one tree and
    the pool keeps one task per replication.
    """
    per_block = 1 if isinstance(selector, CvSelector) else max(1, _BLOCK_VALUES // ((1 << (n + 2)) - 1))
    return [range(b, min(b + per_block, replications)) for b in range(0, replications, per_block)]


def _clt_block(args) -> list[ReplicationRow]:
    """The rows of the replications ``reps`` at depth n, in order, from one simulation pass.

    The trees are the rows of one ``simulate_trees`` array, each bitwise its
    seed's ``simulate``; each is checked as a ``TreeSample`` and gets its own
    bandwidths.  One ``kernel_sums`` or ``p_at`` call at the one-point grid
    of ``spec.point`` estimates every tree at once, each to the bits of its
    one-tree ``mu_tri_hat`` or ``p_hat``; N, the statistic's sample size, is
    the length of the trees' columns.
    """
    spec, n, reps, statistic, truth, sigma2 = args
    seeds = [derive_seed(spec.seed, rep + (n << 32)) for rep in reps]
    trees = simulate_trees(spec.model, n, InitSpec.stationary(), seeds)
    chosen = [_bandwidths_for(TreeSample(tree), spec.selector, seed) for tree, seed in zip(trees, seeds)]
    columns = triangle_columns(trees, spec.population)
    bws = tuple(np.array([bw for bw, _ in chosen]).T)
    point = tuple(np.array([v], dtype=float) for v in spec.point)
    if statistic == "p_hat":
        est = p_at(columns, bws, np.array([h_den for _, h_den in chosen]), point)
    else:
        est = kernel_sums(columns, bws, point)
    size = columns[0].shape[-1]
    return [
        ReplicationRow(rep, seed, n, bw.h, h_den, e, math.sqrt(size * bw.h**3) * (e - truth) / math.sqrt(sigma2))
        for rep, seed, (bw, h_den), e in zip(reps, seeds, chosen, est[:, 0].tolist())
    ]


def _keep_freed_arrays() -> None:
    """Pool-worker initializer: glibc keeps freed arrays on its heap.

    A depth-14 block frees its trees and its temporaries, hundreds of KB
    each; by default glibc returns them to the OS and the next block faults
    them in again, hundreds of minor faults each.  Other C libraries
    have no ``mallopt`` and are left as they are.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD: arrays below 64 MB come from the heap
    mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD: trim only above 128 MB free


def _run_clt(spec: ExperimentSpec, statistic: str) -> ExperimentReport:
    """Rows and a summary per entry of ``spec.n_list``.  Each distinct depth runs
    once, deepest first so that a pool's last chunks are its cheapest, and a
    depth listed twice reports the same rows and summary twice."""
    x, x0, x1 = spec.point
    # true_variance_clt raises outside the stationary symmetric sub-case, or
    # where the variance is not positive and finite, before any replication runs
    sigma2 = oracle.true_variance_clt(spec.model, x, x0, x1, statistic)
    truth = float((transition_density_p if statistic == "p_hat" else mu_triangle)(spec.model, x, x0, x1))
    depths = sorted(set(spec.n_list), reverse=True)
    tasks = [
        (spec, n, reps, statistic, truth, sigma2)
        for n in depths
        for reps in _blocks(n, spec.replications, spec.selector)
    ]
    # outputs are the same at any pool size, so more workers than blocks or
    # than CPUs the process may use would only cost start-up; only the
    # workers' allocator is retuned, never the caller's
    workers = min(spec.threads, len(tasks), estimators._THREADS)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_arrays) as pool:
            blocks = list(pool.map(_clt_block, tasks, chunksize=4))
    else:
        blocks = [_clt_block(t) for t in tasks]
    rows = [row for block in blocks for row in block]  # in task order, as map returns them
    by_depth = {n: [row for row in rows if row.n == n] for n in depths}
    report = ExperimentReport(rows=[])
    for n in spec.n_list:
        report.rows += by_depth[n]
        summary = summarize_stats(np.array([r.stat for r in by_depth[n]]))
        summary.update(n=n, statistic=statistic, sigma2=sigma2, truth=truth)
        report.summaries.append(summary)
    return report


def run_clt_p_hat(spec: ExperimentSpec) -> ExperimentReport:
    """Standardized quotient-estimator statistics over replications."""
    return _run_clt(spec, "p_hat")


def run_clt_mu_tri(spec: ExperimentSpec) -> ExperimentReport:
    """Standardized triangle-density statistics over replications."""
    return _run_clt(spec, "mu_tri")


# -- figure-style consistency runs -------------------------------------------


@dataclass(frozen=True)
class FigureGrid:
    """Slice grid: fixed parent coordinate, square grid over the children."""

    slice_x: float = 0.0
    half_width: float = 3.0
    points_per_axis: int = 21

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax = np.linspace(-self.half_width, self.half_width, self.points_per_axis)
        return np.array([self.slice_x]), ax, ax


@dataclass
class FigureRun:
    """One (depth, seed) run of ``run_figure_reproduction``."""

    case: str
    selector: str
    n: int
    seed_index: int
    seed: int
    h_num: BandwidthTriple
    h_den: float
    sup_error: float
    points: np.ndarray
    p_tilde: np.ndarray
    p_true: np.ndarray

    @property
    def file_name(self) -> str:
        return f"grid_case{self.case}_{self.selector}_n{self.n}_s{self.seed_index}.csv"


def case_params(case: str) -> BarParams:
    if case == "1":
        return CASE1
    if case == "2":
        return CASE2
    raise ValueError(f"unknown case {case!r}")


def run_figure_reproduction(
    case: str,
    selector: Selector,
    n_list: Sequence[int],
    n_seeds: int = 3,
    seed: int = 0,
    grid: FigureGrid = FigureGrid(),
) -> list[FigureRun]:
    """Estimate the transition density on a grid slice for growing depths.

    For each depth and seed: simulate, select both bandwidths on the sample,
    evaluate the plug-in quotient estimator over the slice, and record the
    sup distance to the true transition density on the same grid.
    """
    params = case_params(case)
    runs: list[FigureRun] = []
    for n in n_list:
        for s in range(n_seeds):
            rep_seed = derive_seed(seed, s + (n << 32))
            sample = simulate(params, n, InitSpec.dirac(0.0), rep_seed)
            bw, h_den = _bandwidths_for(sample, selector, rep_seed)
            est = evaluate_on_grid(
                sample,
                EstimatorSpec(kind="p", population=Population.GEN_N, h=h_den, bw=bw),
                grid.axes(),
            )
            truth = transition_density_p(params, est.points[:, 0], est.points[:, 1], est.points[:, 2])
            runs.append(
                FigureRun(
                    case=case,
                    selector=selector.kind,
                    n=n,
                    seed_index=s,
                    seed=rep_seed,
                    h_num=bw,
                    h_den=h_den,
                    sup_error=float(np.max(np.abs(est.values - truth))),
                    points=est.points,
                    p_tilde=est.values,
                    p_true=truth,
                )
            )
    return runs


def mean_sup_errors(runs: list[FigureRun]) -> dict[int, float]:
    """Across-seed mean of the grid sup error, per depth."""
    by_n: dict[int, list[float]] = {}
    for r in runs:
        by_n.setdefault(r.n, []).append(r.sup_error)
    return {n: float(np.mean(v)) for n, v in sorted(by_n.items())}


def write_figure_outputs(runs: list[FigureRun], out_dir: str) -> list[str]:
    """Grid CSV per run plus one summary CSV, each written atomically; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for r in runs:
        paths.append(os.path.join(out_dir, r.file_name))
        grid = np.column_stack([r.points, r.p_tilde, r.p_true]).tolist()
        write_csv(paths[-1], ["x", "x0", "x1", "p_tilde", "p_true"], grid)
    paths.append(os.path.join(out_dir, "summary.csv"))
    write_csv(
        paths[-1],
        ["case", "selector", "n", "seed_index", "seed", "h_num", "h_0num", "h_1num", "h_den", "sup_error"],
        ([r.case, r.selector, r.n, r.seed_index, r.seed, *r.h_num, r.h_den, r.sup_error] for r in runs),
    )
    return paths


def gnuplot_script(runs: list[FigureRun], out_dir: str) -> str:
    """Emit a gnuplot script rendering estimate-vs-truth surfaces per run."""
    lines = ["set pm3d", "set hidden3d"]
    for r in runs:
        side = np.unique(r.points[:, 1]).size
        lines.append(f"set dgrid3d {side},{side}")
        lines += [
            f'set title "case {r.case} {r.selector} n={r.n} seed {r.seed_index}"',
            f'splot "{r.file_name}" using 2:3:4 with lines title "estimate", \\',
            f'      "{r.file_name}" using 2:3:5 with lines title "truth"',
            "pause -1",
        ]
    path = os.path.join(out_dir, "surfaces.gnuplot")
    write_text(path, "set datafile separator ','\n" + "\n".join(lines) + "\n")
    return path
