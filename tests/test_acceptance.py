"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not calibrated at run time.  Criterion 3
applies its mean and KS gates to the quotient-estimator statistic centred at
its exact standardized smoothing bias at the pinned depth and bandwidth
(computed here in closed form from the Gaussian convolution of the reference
model), since the CLT holds around p only once that bias vanishes.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import dblquad

from bmckde.bar import BarParams, InitSpec, simulate, transition_density_p
from bmckde.cv import cv_select, j_hat_den, j_hat_num, make_folds
from bmckde.harness import (
    CASE1,
    CASE2,
    CvSelector,
    ExperimentSpec,
    FigureGrid,
    FixedGamma,
    RotSelector,
    mean_sup_errors,
    run_clt_mu_tri,
    run_clt_p_hat,
    run_figure_reproduction,
    summarize_stats,
)
from bmckde.oracle import moment_check_table, true_variance_clt
from bmckde.rng import derive_seed
from bmckde.rot import a_hat, exact_h_d, rot_constants, score_G
from bmckde.tree import Population

SYM = BarParams(0.5, 0.5, 0.0, 0.0, 1.0, 0.0)
MASTER_SEED = 0


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_density_ground_truth():
    t0 = time.time()
    failures = []
    for params, label in ((CASE1, "case1"), (CASE2, "case2")):
        for x in (-1.0, 0.0, 1.0):
            lim = 10.0 + 2.0 * abs(x)
            mass, _ = dblquad(
                lambda z, y: transition_density_p(params, x, y, z),
                -lim, lim, -lim, lim, epsabs=1e-9, epsrel=1e-9,
            )
            if abs(mass - 1.0) > 1e-6:
                failures.append(f"{label} x={x}: mass={mass}")
    # rho = 0 factorization, exact to 1e-12
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y, z = rng.uniform(-2, 2, 3)
        for params in (CASE1, CASE2):
            p = transition_density_p(params, x, y, z)
            f = (
                math.exp(-0.5 * (y - params.a0 * x) ** 2)
                * math.exp(-0.5 * (z - params.a1 * x) ** 2)
                / (2 * math.pi)
            )
            if abs(p - f) > 1e-12:
                failures.append(f"factorization at {(x, y, z)}")
    elapsed = time.time() - t0
    ok = report("1", not failures and elapsed < 10, f"P mass + factorization ({elapsed:.1f}s)")
    assert ok, failures


def test_criterion_2_moment_identity_oracles():
    t0 = time.time()
    rows = moment_check_table(SYM, x=0.5, n=4, m=2, replications=10_000, seed=MASTER_SEED)
    bad = [r for r in rows if not r.passed]
    elapsed = time.time() - t0
    detail = "; ".join(f"{r.formula}: z={r.z_score:+.2f}" for r in rows)
    ok = report("2", not bad and elapsed < 120, f"{detail} ({elapsed:.1f}s)")
    assert ok, [f"{r.formula}: z={r.z_score}" for r in bad]


def _clt_spec(statistic_population: Population, replications: int = 500) -> ExperimentSpec:
    return ExperimentSpec(
        model=SYM,
        n_list=(12,),
        replications=replications,
        point=(0.0, 0.0, 0.0),
        population=statistic_population,
        selector=FixedGamma(0.2),
        seed=MASTER_SEED,
        threads=1,
    )


def _gaussian_density_at_origin(cov: np.ndarray) -> float:
    return 1.0 / math.sqrt(np.linalg.det(2.0 * math.pi * cov))


def _standardized_smoothing_bias(a: float, sigma: float, n: int, h: float, sigma2: float) -> float:
    """sqrt(2^n h^3) (E-ratio - p) / sigma at the origin for the symmetric model.

    With a Gaussian kernel the smoothed densities are exact Gaussians: the
    triangle law N(0, Sigma_tri) becomes N(0, Sigma_tri + h^2 I) and the
    invariant law N(0, sigma_a^2) becomes N(0, sigma_a^2 + h^2).
    """
    sa2 = sigma * sigma / (1.0 - a * a)
    cov = np.array(
        [
            [sa2, a * sa2, a * sa2],
            [a * sa2, a * a * sa2 + sigma * sigma, a * a * sa2],
            [a * sa2, a * a * sa2, a * a * sa2 + sigma * sigma],
        ]
    )
    smoothed = _gaussian_density_at_origin(cov + h * h * np.eye(3)) / _gaussian_density_at_origin(
        np.array([[sa2 + h * h]])
    )
    p = 1.0 / (2.0 * math.pi * sigma * sigma)  # children independent given parent 0
    return math.sqrt(2.0**n * h**3) * (smoothed - p) / math.sqrt(sigma2)


def test_criterion_3_clt_p_hat():
    t0 = time.time()
    report_obj = run_clt_p_hat(_clt_spec(Population.GEN_N))
    s = report_obj.summaries[0]
    sigma2 = true_variance_clt(BarParams(0.5, 0.5, sigma=1.0), 0, 0, 0, "p_hat")
    assert sigma2 == pytest.approx(0.010341, abs=2e-6)
    raw_variance = s["variance"] * sigma2  # stats are sigma-standardized
    # finite-depth smoothing bias of the statistic at n = 12, h = 2^(-0.2 n)
    bias = _standardized_smoothing_bias(0.5, 1.0, 12, 2.0 ** (-0.2 * 12), sigma2)
    assert bias == pytest.approx(-0.3527, abs=1e-4)
    centred = summarize_stats(np.array([r.stat for r in report_obj.rows]) - bias)
    mean, ks = centred["mean"], centred["ks_distance"]
    elapsed = time.time() - t0
    checks = {
        "variance in [0.75, 1.25]*sigma2": 0.75 * sigma2 <= raw_variance <= 1.25 * sigma2,
        "|mean - bias| <= 0.3": abs(mean) <= 0.3,
        "KS(z - bias) <= 0.08": ks <= 0.08,
        "runtime < 600s": elapsed < 600,
    }
    detail = (
        f"var={raw_variance:.5f} vs sigma2={sigma2:.5f}, bias={bias:+.4f}, "
        f"mean={s['mean']:+.3f} (centred {mean:+.3f}), KS={s['ks_distance']:.3f} "
        f"(centred {ks:.3f}) ({elapsed:.1f}s)"
    )
    ok = report("3", all(checks.values()), detail)
    assert ok, [name for name, passed in checks.items() if not passed]


def test_criterion_4_clt_mu_tri_both_populations():
    t0 = time.time()
    variances = {}
    for population in (Population.GEN_N, Population.TREE_N):
        rep = run_clt_mu_tri(_clt_spec(population))
        variances[population.value] = rep.summaries[0]["variance"]
    elapsed = time.time() - t0
    ok_flags = {k: 0.75 <= v <= 1.25 for k, v in variances.items()}
    detail = ", ".join(f"{k}: var={v:.3f}" for k, v in variances.items()) + f" ({elapsed:.1f}s)"
    ok = report("4", all(ok_flags.values()) and elapsed < 600, detail)
    assert ok, variances


def test_criterion_5_cv_internals():
    t0 = time.time()
    failures = []
    # brute-force agreement at N = 64 leaves / 32 triangles
    s64 = simulate(CASE1, 6, InitSpec.dirac(0.0), derive_seed(MASTER_SEED, 1))
    part = make_folds(6, 5, 2)
    vals = s64.level(6)
    for k, h in ((0, 0.25), (2, 0.7)):
        held = vals[part.assignment == k]
        rest = vals[part.assignment != k]
        m = rest.size
        integral = sum(
            math.exp(-(((x - y) / h) ** 2) / 4) for x in rest for y in rest
        ) / (2 * math.sqrt(math.pi) * m * m * h)
        lo = sum(
            math.exp(-(((w - y) / h) ** 2) / 2) for w in held for y in rest
        ) / (math.sqrt(2 * math.pi) * held.size * m * h)
        if abs(j_hat_den(s64, part, k, h) - (integral - 2 * lo)) > 1e-10:
            failures.append(f"den brute force k={k} h={h}")
    s32 = simulate(CASE1, 5, InitSpec.dirac(0.0), derive_seed(MASTER_SEED, 2))
    part32 = make_folds(5, 4, 3)
    tri = np.column_stack(s32.triangle_arrays(Population.GEN_N))
    for k, h in ((1, 0.4),):
        held = tri[part32.assignment == k]
        rest = tri[part32.assignment != k]
        m = rest.shape[0]
        integral = sum(
            math.exp(-float(np.sum((u - v) ** 2)) / (4 * h * h)) for u in rest for v in rest
        ) / ((2 * math.sqrt(math.pi)) ** 3 * m * m * h**3)
        lo = sum(
            math.exp(-float(np.sum((w - v) ** 2)) / (2 * h * h)) for w in held for v in rest
        ) / (math.sqrt(2 * math.pi) ** 3 * held.shape[0] * m * h**3)
        if abs(j_hat_num(s32, part32, k, h) - (integral - 2 * lo)) > 1e-10:
            failures.append(f"num brute force k={k} h={h}")

    # closed-form squared-integral vs quadrature: 16 values to 1e-8
    from scipy.integrate import quad

    s16 = simulate(SYM, 4, InitSpec.dirac(0.0), derive_seed(MASTER_SEED, 3))
    part16 = make_folds(4, 4, 5)
    rest = s16.level(4)[part16.assignment != 0]
    m, h = rest.size, 0.5
    diff = (rest[:, None] - rest[None, :]) / h
    closed = float(np.sum(np.exp(-0.25 * diff**2))) / (2 * math.sqrt(math.pi) * m * m * h)
    quad_val, _ = quad(
        lambda x: (np.sum(np.exp(-0.5 * ((x - rest) / h) ** 2)) / (math.sqrt(2 * math.pi) * m * h))
        ** 2,
        -30, 30, epsabs=1e-12, limit=400,
    )
    if abs(closed - quad_val) > 1e-8:
        failures.append("1-d quadrature")

    # 8 triangles to 1e-5 in 3-d (tensor Simpson of the squared estimator)
    from scipy.integrate import simpson

    s8 = simulate(SYM, 3, InitSpec.dirac(0.0), derive_seed(MASTER_SEED, 4))
    part8 = make_folds(3, 4, 7)
    tri8 = np.column_stack(s8.triangle_arrays(Population.GEN_N))
    rest8 = tri8[part8.assignment != 0]
    m8, h8 = rest8.shape[0], 0.55
    d2 = np.sum((rest8[:, None, :] - rest8[None, :, :]) ** 2, axis=-1)
    closed3 = float(np.sum(np.exp(-0.25 * d2 / h8**2))) / (
        (2 * math.sqrt(math.pi)) ** 3 * m8 * m8 * h8**3
    )
    ax = np.linspace(rest8.min() - 8 * h8, rest8.max() + 8 * h8, 385)
    kp = np.exp(-0.5 * ((ax[:, None] - rest8[None, :, 0]) / h8) ** 2) / math.sqrt(2 * math.pi)
    k0 = np.exp(-0.5 * ((ax[:, None] - rest8[None, :, 1]) / h8) ** 2) / math.sqrt(2 * math.pi)
    k1 = np.exp(-0.5 * ((ax[:, None] - rest8[None, :, 2]) / h8) ** 2) / math.sqrt(2 * math.pi)
    total = np.empty(ax.size)
    for i in range(ax.size):
        plane = ((kp[i] * k0) @ k1.T) / (m8 * h8**3)
        total[i] = simpson(simpson(plane**2, x=ax, axis=1), x=ax, axis=0)
    if abs(closed3 - simpson(total, x=ax)) > 1e-5:
        failures.append("3-d quadrature")

    # fast path equals per-fold recomputation
    grid = np.geomspace(0.15, 1.0, 5)
    res = cv_select(s64, K=5, grid=grid, seed=2)
    ref = np.mean([[j_hat_den(s64, part, k, hh) for hh in grid] for k in range(5)], axis=0)
    if np.max(np.abs(res.scores_den - ref)) > 1e-10:
        failures.append("fast path recomputation")

    elapsed = time.time() - t0
    ok = report("5", not failures and elapsed < 30, f"CV internals ({elapsed:.1f}s)")
    assert ok, failures


def test_criterion_6_rot_constants():
    t0 = time.time()
    failures = []
    c = rot_constants(0.5, 1.0)
    if abs(c.c1 - 2 / math.sqrt(math.pi)) > 1e-14:
        failures.append("c1")
    if abs(c.b1 - 32 / 3) > 1e-14:
        failures.append("b1")
    for a in np.arange(0.05, 0.96, 0.05):
        for s in (0.5, 1.0, 2.0):
            cc = rot_constants(float(a), s)
            sa = cc.sigma_a
            pairs = [
                (cc.c1 / cc.c2, cc.b1 * sa**5),
                (cc.c1 / cc.M_a_sigma, cc.b2 * sa**2),
                (cc.c2_tri / (4 * cc.c_tri), cc.b3 * sa**7),
                (cc.c2_tri / (4 * cc.c0_tri), cc.b4 * sa**7),
                (cc.c2_tri / cc.M_tri_a_sigma, cc.b5 * sa**4),
            ]
            for i, (lhs, rhs) in enumerate(pairs):
                if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
                    failures.append(f"identity {i + 1} at a={a:.2f} sigma={s}")
    hs = np.linspace(0.005, 1.0, 400001)
    hstar = hs[np.argmin(score_G(hs, 12, c))]
    if abs(exact_h_d(c, 12) - hstar) > hs[1] - hs[0]:
        failures.append("h_D grid search")
    elapsed = time.time() - t0
    ok = report("6", not failures and elapsed < 5, f"constants + identities + h_D ({elapsed:.1f}s)")
    assert ok, failures


def test_criterion_7_ergodic_rate_estimator():
    t0 = time.time()
    estimates = [
        a_hat(simulate(SYM, 14, InitSpec.stationary(), derive_seed(MASTER_SEED, s)))
        for s in range(20)
    ]
    err = abs(float(np.mean(estimates)) - 0.5)
    elapsed = time.time() - t0
    ok = report(
        "7",
        err <= 0.05 and elapsed < 120,
        f"mean a_hat={np.mean(estimates):.4f}, |err|={err:.4f} (gate 0.05) ({elapsed:.1f}s)",
    )
    assert ok, f"|mean a_hat - 0.5| = {err:.4f} > 0.05"


@pytest.mark.parametrize(
    "case,selector,label",
    [
        ("1", CvSelector(K=5, grid_size=8), "case1 cv"),
        ("2", CvSelector(K=5, grid_size=8), "case2 cv"),
        ("1", RotSelector(), "case1 rot"),
        ("2", RotSelector(), "case2 rot"),
    ],
)
def test_criterion_8_figure_consistency(case, selector, label):
    t0 = time.time()
    runs = run_figure_reproduction(
        case, selector, [10, 12, 14], n_seeds=3, seed=MASTER_SEED, grid=FigureGrid()
    )
    errs = mean_sup_errors(runs)
    elapsed = time.time() - t0
    ok = report(
        f"8 ({label})",
        errs[14] < errs[10],
        f"mean sup errors n10={errs[10]:.4f} n12={errs[12]:.4f} n14={errs[14]:.4f} ({elapsed:.0f}s)",
    )
    assert ok, errs


def test_criterion_9_thread_count_reproducibility(tmp_path):
    import json

    from bmckde.cli import main

    t0 = time.time()
    cfg = {
        "model": {"a0": 0.5, "a1": 0.5, "sigma": 1.0},
        "statistic": "p_hat",
        "n_list": [8],
        "replications": 24,
        "selector": {"kind": "fixed", "gamma": 0.2},
        "seed": 5,
    }
    outputs = []
    for threads in (1, 4, 16):
        cpath = str(tmp_path / f"clt{threads}.json")
        with open(cpath, "w") as fh:
            json.dump({**cfg, "threads": threads}, fh)
        out = str(tmp_path / f"rows{threads}.csv")
        assert main(["clt-check", "--config", cpath, "--out", out]) == 0
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    identical = outputs[0] == outputs[1] == outputs[2]
    elapsed = time.time() - t0
    ok = report("9", identical, f"byte-identical rows for threads 1/4/16 ({elapsed:.1f}s)")
    assert ok
