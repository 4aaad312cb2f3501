"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload is a closed loop with one client.  Pass ``i`` draws its inputs
from ``derive_seed(seed, i)``, so passes never repeat an input (a cache keyed
on inputs cannot serve a later pass) and a run is a pure function of its seed.
``run`` is the timed part; ``check`` runs untimed afterwards and returns the
failures, each charged to the layer whose output was wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from bmckde import bar, cli, cv, harness, oracle
from bmckde.estimators import p_hat
from bmckde.kernels import BandwidthTriple
from bmckde.rng import derive_seed
from bmckde.tree import Population, TreeSample

FULL = {
    "cv_depth": 11,
    "cv_grid": 8,
    "clt_depths": (12, 14),
    "clt_reps": 1000,
    "fig_depths": (12, 14, 16),
    "fig_seeds": 1,
    "fig_points": 41,
    "oracle_reps": 10_000,
}
SMOKE = {
    "cv_depth": 8,
    "cv_grid": 4,
    "clt_depths": (8, 9),
    "clt_reps": 50,
    "fig_depths": (8, 9),
    "fig_seeds": 1,
    "fig_points": 11,
    "oracle_reps": 500,
}

CV_FOLD_TOL = 1e-10
# The moment rows are Monte Carlo z-scores.  The package flags a row at
# |z| > 3, which a correct program crosses by chance in about one pass in a
# hundred (five rows at roughly 0.3% each), so the hundreds of passes of a
# benchmark campaign would report failures that are not faults.  A wrong
# quadrature formula or simulation moves z far past 5 at 10 000 replications.
ORACLE_Z_BOUND = 5.0
SAMPLED_POINTS = 3


@dataclass
class Job:
    index: int
    seed: int
    ops: int
    paths: dict = field(default_factory=dict)


@dataclass
class Checked:
    failed_ops: int
    failures: list  # (layer, message)
    accuracy: dict  # per-layer accuracy metric -> value


def _bitwise_equal(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _sampled(rng_seed: int, size: int, k: int) -> np.ndarray:
    return np.random.default_rng(rng_seed).choice(size, min(k, size), replace=False)


class CvPipeline:
    """simulate -> cv-select -> estimate through the CLI, one tree per op."""

    name = "cv_pipeline"
    params = harness.CASE1
    K = 5

    def __init__(self, seed: int, sizes: dict, workdir: str, workers: int):
        self.seed, self.workdir = seed, workdir
        self.depth = sizes["cv_depth"]
        self.grid = cv.default_grid(self.depth, sizes["cv_grid"])

    def prepare(self, i: int) -> Job:
        s = derive_seed(self.seed, i)
        base = os.path.join(self.workdir, f"p{i}")
        paths = {k: f"{base}_{k}" for k in ("sim.json", "cv.json", "est.json", "tree.csv", "scores.csv", "phat.csv")}
        paths["scores.json"] = f"{base}_scores.json"
        sim = {"a0": self.params.a0, "a1": self.params.a1, "sigma": self.params.sigma,
               "n": self.depth, "seed": s, "init": "dirac"}
        with open(paths["sim.json"], "w") as fh:
            json.dump(sim, fh)
        with open(paths["cv.json"], "w") as fh:
            json.dump({"K": self.K, "grid": [float(h) for h in self.grid], "seed": s}, fh)
        return Job(i, s, 1, paths)

    def run(self, job: Job):
        p = job.paths
        codes = [cli.main(["simulate", "--config", p["sim.json"], "--out", p["tree.csv"]])]
        if codes[-1] == 0:
            codes.append(cli.main(["cv-select", "--tree", p["tree.csv"], "--config", p["cv.json"],
                                   "--out", p["scores.csv"]]))
        if codes[-1] == 0:
            with open(p["scores.json"]) as fh:
                sel = json.load(fh)
            est = {"estimator": "p", "h": sel["h_D_hat"], "bw": [sel["h_N_hat"]] * 3,
                   "grid": {"x": [0.0], "x0": {"min": -3, "max": 3, "num": 21},
                            "x1": {"min": -3, "max": 3, "num": 21}}}
            with open(p["est.json"], "w") as fh:
                json.dump(est, fh)
            codes.append(cli.main(["estimate", "--tree", p["tree.csv"], "--config", p["est.json"],
                                   "--out", p["phat.csv"]]))
        return codes

    def check(self, job: Job, codes) -> Checked:
        fails = []
        if codes != [0, 0, 0]:
            return Checked(1, [("cli", f"exit codes {codes}")], {})
        p = job.paths
        sample = TreeSample.from_csv(p["tree.csv"])
        if sample != bar.simulate(self.params, self.depth, bar.InitSpec.dirac(0.0), job.seed):
            fails.append(("tree", "tree CSV does not round-trip the simulated tree"))
        with open(p["scores.csv"]) as fh:
            rows = [tuple(map(float, r)) for r in list(csv.reader(fh))[1:]]
        hs, sd, sn = (np.array(c) for c in zip(*rows))
        with open(p["scores.json"]) as fh:
            sel = json.load(fh)
        if sel["h_D_hat"] != hs[np.argmin(sd)] or sel["h_N_hat"] != hs[np.argmin(sn)]:
            fails.append(("cv", "selection is not the argmin of the scores"))
        # fold-averaged score at one bandwidth against the per-fold reference,
        # denominator and numerator on alternate ops to halve the check's cost
        t = (job.index // 2) % hs.size
        part = cv.make_folds(self.depth, self.K, job.seed)
        j_hat, scores = (cv.j_hat_den, sd) if job.index % 2 == 0 else (cv.j_hat_num, sn)
        ref = np.mean([j_hat(sample, part, k, hs[t]) for k in range(self.K)])
        if not abs(ref - scores[t]) <= CV_FOLD_TOL:
            fails.append(("cv", f"{j_hat.__name__} at h={float(hs[t])!r} differs from the score by {abs(ref - scores[t]):.3g}"))
        with open(p["phat.csv"]) as fh:
            grid = np.array([tuple(map(float, r)) for r in list(csv.reader(fh))[1:]])
        truth = bar.transition_density_p(self.params, grid[:, 0], grid[:, 1], grid[:, 2])
        sup = float(np.max(np.abs(grid[:, 3] - truth)))
        bw = BandwidthTriple.scalar(sel["h_N_hat"])
        for j in _sampled(job.seed, grid.shape[0], SAMPLED_POINTS):
            x, x0, x1, v = grid[j]
            if not _bitwise_equal(p_hat(sample, Population.GEN_N, bw, sel["h_D_hat"], x, x0, x1), v):
                fails.append(("estimators", f"grid value at {grid[j, :3]} differs from p_hat"))
        if not math.isfinite(sup):
            fails.append(("estimators", "non-finite estimate"))
        return Checked(int(bool(fails)), fails, {"estimators.sup_err": sup})


class CltSweep:
    """run_clt_p_hat on the symmetric model at two depths; op = one replication."""

    name = "clt_sweep"
    model = bar.BarParams(0.5, 0.5, 0.0, 0.0, 1.0, 0.0)

    def __init__(self, seed: int, sizes: dict, workdir: str, workers: int):
        self.seed, self.workers = seed, workers
        self.depths, self.reps = tuple(sizes["clt_depths"]), sizes["clt_reps"]

    def prepare(self, i: int) -> Job:
        return Job(i, derive_seed(self.seed, i), self.reps * len(self.depths))

    def run(self, job: Job, workers: int | None = None):
        return harness.run_clt_p_hat(harness.ExperimentSpec(
            model=self.model, n_list=self.depths, replications=self.reps,
            selector=harness.FixedGamma(0.2), seed=job.seed, threads=workers or self.workers,
        ))

    def check(self, job: Job, report) -> Checked:
        fails = []
        expected = [(n, r) for n in self.depths for r in range(self.reps)]
        if [(row.n, row.replication) for row in report.rows] != expected:
            return Checked(job.ops, [("harness", "rows missing or out of order")], {})
        bad = {i for i, row in enumerate(report.rows) if not (math.isfinite(row.estimate) and math.isfinite(row.stat))}
        if bad:
            fails.append(("estimators", f"{len(bad)} non-finite rows"))
        for i in _sampled(job.seed, len(report.rows), 2 * SAMPLED_POINTS):
            row = report.rows[i]
            sample = bar.simulate(self.model, row.n, bar.InitSpec.stationary(), row.seed)
            est = p_hat(sample, Population.GEN_N, BandwidthTriple.scalar(row.h_num), row.h_den, 0.0, 0.0, 0.0)
            if not _bitwise_equal(est, row.estimate):
                bad.add(int(i))
                fails.append(("harness", f"row {int(i)} does not reproduce from its seed"))
        ks = max(s["ks_distance"] for s in report.summaries)
        return Checked(len(bad), fails, {"harness.clt_ks": ks})


class FigureReproduction:
    """run_figure_reproduction, case 2, rule of thumb; op = one (depth, seed) run."""

    name = "figure_grid"

    def __init__(self, seed: int, sizes: dict, workdir: str, workers: int):
        self.seed = seed
        self.depths, self.seeds = list(sizes["fig_depths"]), sizes["fig_seeds"]
        self.grid = harness.FigureGrid(points_per_axis=sizes["fig_points"])

    def prepare(self, i: int) -> Job:
        return Job(i, derive_seed(self.seed, i), len(self.depths) * self.seeds)

    def run(self, job: Job):
        return harness.run_figure_reproduction("2", harness.RotSelector(), self.depths, self.seeds, job.seed, self.grid)

    def check(self, job: Job, runs) -> Checked:
        fails, bad = [], 0
        if [(r.n, r.seed_index) for r in runs] != [(n, s) for n in self.depths for s in range(self.seeds)]:
            return Checked(job.ops, [("harness", "runs missing or out of order")], {})
        for r in runs:
            errs = []
            sample = bar.simulate(harness.CASE2, r.n, bar.InitSpec.dirac(0.0), r.seed)
            bw = BandwidthTriple(*r.h_num)
            for j in _sampled(r.seed, r.points.shape[0], SAMPLED_POINTS):
                if not _bitwise_equal(p_hat(sample, Population.GEN_N, bw, r.h_den, *r.points[j]), r.p_tilde[j]):
                    errs.append(("estimators", f"n={r.n} grid value at {r.points[j]} differs from p_hat"))
            if not (math.isfinite(r.sup_error) and r.sup_error == float(np.max(np.abs(r.p_tilde - r.p_true)))):
                errs.append(("harness", f"n={r.n} sup error does not match its grid"))
            bad += bool(errs)
            fails += errs
        return Checked(bad, fails, {"estimators.sup_err": float(np.mean([r.sup_error for r in runs]))})


class OracleMoments:
    """moment_check_table, criterion-2 config; op = one Monte Carlo tree."""

    name = "oracle_moments"
    params = bar.BarParams(0.5, 0.5, 0.0, 0.0, 1.0, 0.0)

    def __init__(self, seed: int, sizes: dict, workdir: str, workers: int):
        self.seed, self.reps = seed, sizes["oracle_reps"]

    def prepare(self, i: int) -> Job:
        return Job(i, derive_seed(self.seed, i), self.reps)

    def run(self, job: Job):
        return oracle.moment_check_table(self.params, 0.5, 4, 2, self.reps, job.seed)

    def check(self, job: Job, rows) -> Checked:
        fails = [("oracle", f"{r.formula}: z={r.z_score:.3g}") for r in rows if not abs(r.z_score) <= ORACLE_Z_BOUND]
        if len(rows) != 5:
            fails.append(("oracle", f"{len(rows)} rows, expected 5"))
        max_absz = max((abs(r.z_score) for r in rows), default=math.inf)
        return Checked(job.ops if fails else 0, fails, {"oracle.max_absz": max_absz})


WORKLOADS = {w.name: w for w in (CvPipeline, CltSweep, FigureReproduction, OracleMoments)}
