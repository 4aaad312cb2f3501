"""Monte Carlo experiment driver: replications, standardized statistics, figures.

Each replication simulates a fresh tree from a seed derived from the master
seed and the replication index, so reports are bit-identical across runs and
across worker-pool sizes; merging is by replication index.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .bar import BarParams, InitSpec, SymmetricBarParams, mu_triangle, simulate, transition_density_p
from .cv import DEFAULT_GRID_SIZE, cv_select, default_grid
from .estimators import EstimatorSpec, evaluate_on_grid, mu_tri_hat, p_hat
from .kernels import BandwidthTriple
from .rng import derive_seed
from .rot import DEFAULT_LAG, rot_select
from .table import write_csv, write_text
from .tree import Population, tree_size
from . import estimators, oracle

CASE1 = BarParams(0.7, 0.5, 0.0, 0.0, 1.0, 0.0)
CASE2 = BarParams(1.2, 0.7, 0.0, 0.0, 1.0, 0.0)  # supercritical first branch


@dataclass(frozen=True)
class FixedGamma:
    """Deterministic bandwidth h = 2^(-n*gamma), gamma in (0, 1/3)."""

    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0 / 3.0:
            raise ValueError("gamma must lie in (0, 1/3)")


@dataclass(frozen=True)
class CvSelector:
    """K-fold cross-validation over explicit candidates ``grid`` or over
    ``grid_size`` default ones (``DEFAULT_GRID_SIZE`` when neither is given),
    never both."""

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
    """Moments and normal-fit diagnostics of the standardized statistics."""
    zs = np.asarray(zs, dtype=float)
    return {
        "replications": int(zs.size),
        "mean": float(np.mean(zs)),
        "variance": float(np.var(zs, ddof=1)) if zs.size > 1 else float("nan"),
        "skewness": float(sps.skew(zs)) if zs.size > 2 else float("nan"),
        "excess_kurtosis": float(sps.kurtosis(zs)) if zs.size > 3 else float("nan"),
        "ks_distance": float(sps.kstest(zs, "norm").statistic),
    }


def _bandwidths_for(sample, selector: Selector, n: int, cv_seed: int) -> tuple[BandwidthTriple, float]:
    """(numerator triple, denominator bandwidth) for one simulated sample."""
    if isinstance(selector, FixedGamma):
        h = 2.0 ** (-n * selector.gamma)
        return BandwidthTriple.scalar(h), h
    if isinstance(selector, CvSelector):
        res = cv_select(sample, K=selector.K, grid=selector.candidates(n), seed=cv_seed)
        return BandwidthTriple.scalar(res.h_n_hat), res.h_d_hat
    sel = rot_select(sample, selector.m)
    return BandwidthTriple(sel.h_n_hat, sel.h_0n_hat, sel.h_1n_hat), sel.h_d_hat


def _clt_replication(args) -> tuple:
    spec, n, rep, statistic, truth, sigma2 = args
    seed = derive_seed(spec.seed, rep + (n << 32))
    sample = simulate(spec.model, n, InitSpec.stationary(), seed)
    bw, h_den = _bandwidths_for(sample, spec.selector, n, seed)
    x, x0, x1 = spec.point
    if statistic == "p_hat":
        est = p_hat(sample, spec.population, bw, h_den, x, x0, x1)
    else:
        est = mu_tri_hat(sample, spec.population, bw, x, x0, x1)
    size = (1 << n) if spec.population is Population.GEN_N else tree_size(n)
    z = math.sqrt(size * bw.h**3) * (est - truth) / math.sqrt(sigma2)
    return rep, seed, n, bw.h, h_den, est, z


def _run_clt(spec: ExperimentSpec, statistic: str) -> ExperimentReport:
    if not spec.model.is_symmetric or not abs(spec.model.a0) < 1:
        raise ValueError("distributional checks need the stationary symmetric sub-case")
    sym = SymmetricBarParams(spec.model.a0, spec.model.sigma)
    x, x0, x1 = spec.point
    if statistic == "p_hat":
        truth = float(transition_density_p(spec.model, x, x0, x1))
    else:
        truth = float(mu_triangle(sym, x, x0, x1))
    sigma2 = oracle.true_variance_clt(sym, x, x0, x1, statistic)
    # deepest depths first, so a pool's last chunks are its cheapest
    order = sorted(range(len(spec.n_list)), key=lambda i: spec.n_list[i], reverse=True)
    tasks = [
        (spec, spec.n_list[i], rep, statistic, truth, sigma2)
        for i in order
        for rep in range(spec.replications)
    ]
    # outputs are the same at any pool size, so more workers than tasks or
    # than CPUs the process may use would only cost start-up
    workers = min(spec.threads, len(tasks), estimators._THREADS)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_clt_replication, tasks, chunksize=16))
    else:
        results = [_clt_replication(t) for t in tasks]
    by_depth = {i: results[j * spec.replications : (j + 1) * spec.replications] for j, i in enumerate(order)}
    report = ExperimentReport(rows=[])
    for i, n in enumerate(spec.n_list):
        depth_rows = by_depth[i]  # in replication order, as map returns them
        for rep, seed, n_, h_num, h_den, est, z in depth_rows:
            report.rows.append(ReplicationRow(rep, seed, n_, h_num, h_den, est, z))
        summary = summarize_stats(np.array([r[6] for r in depth_rows]))
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
    h_num: tuple[float, float, float]
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
    sel_name = type(selector).__name__.lower().removesuffix("selector")
    runs: list[FigureRun] = []
    for n in n_list:
        for s in range(n_seeds):
            rep_seed = derive_seed(seed, s + (n << 32))
            sample = simulate(params, n, InitSpec.dirac(0.0), rep_seed)
            bw, h_den = _bandwidths_for(sample, selector, n, rep_seed)
            est = evaluate_on_grid(
                sample,
                EstimatorSpec(kind="p", population=Population.GEN_N, h=h_den, bw=bw),
                grid.axes(),
            )
            truth = transition_density_p(params, est.points[:, 0], est.points[:, 1], est.points[:, 2])
            runs.append(
                FigureRun(
                    case=case,
                    selector=sel_name,
                    n=n,
                    seed_index=s,
                    seed=rep_seed,
                    h_num=(bw.h, bw.h0, bw.h1),
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
