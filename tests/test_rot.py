import math

import numpy as np
import pytest

from bmckde.bar import BarParams, InitSpec, simulate
from bmckde.rng import derive_seed
from bmckde.rot import (
    DEN_THRESHOLD,
    NUM_THRESHOLD,
    a_hat,
    exact_h_d,
    exact_h_n,
    rot_constants,
    rot_select,
    score_G,
    score_G_tri,
    sigma_hat_a,
)
from bmckde.tree import TreeSample

SQRT_PI = math.sqrt(math.pi)


def test_constants_pinned_values():
    c = rot_constants(0.5, 1.0)
    assert c.c1 == pytest.approx(2 / SQRT_PI, rel=1e-15)
    assert c.c1 == pytest.approx(1.128379, abs=1e-6)
    assert c.b1 == pytest.approx(32 / 3, rel=1e-15)
    assert c.c2 == pytest.approx(3 / (16 * SQRT_PI) * c.sigma_a**-5, rel=1e-14)
    assert c.c2_tri == pytest.approx(6 / (8 * math.pi * SQRT_PI), rel=1e-14)


def test_constants_domain():
    with pytest.raises(ValueError):
        rot_constants(0.0, 1.0)
    with pytest.raises(ValueError):
        rot_constants(1.0, 1.0)
    with pytest.raises(ValueError):
        rot_constants(0.5, 0.0)


def test_ratio_identities_across_grid():
    # the bounded-constant reductions behind the practical bandwidth rules
    for a in np.arange(0.05, 0.96, 0.05):
        for s in (0.5, 1.0, 2.0):
            c = rot_constants(float(a), s)
            sa = c.sigma_a
            assert c.c1 / c.c2 == pytest.approx(c.b1 * sa**5, rel=1e-12)
            assert c.c1 / c.M_a_sigma == pytest.approx(c.b2 * sa**2, rel=1e-12)
            assert c.c2_tri / (4 * c.c_tri) == pytest.approx(c.b3 * sa**7, rel=1e-12)
            assert c.c2_tri / (4 * c.c0_tri) == pytest.approx(c.b4 * sa**7, rel=1e-12)
            assert c.c2_tri / (4 * c.c1_tri) == pytest.approx(c.b4 * sa**7, rel=1e-12)
            assert c.c2_tri / c.M_tri_a_sigma == pytest.approx(c.b5 * sa**4, rel=1e-12)


def test_denominator_constants_match_density_functional():
    # c2 is half the squared-curvature integral of the invariant density
    from scipy.integrate import quad

    for a, s in [(0.3, 1.0), (0.6, 0.8)]:
        c = rot_constants(a, s)
        sym = BarParams(a, a, sigma=s)
        sa = sym.sigma_a

        def mu_pp(x):
            mu = math.exp(-0.5 * (x / sa) ** 2) / (sa * math.sqrt(2 * math.pi))
            return mu * (x * x / sa**4 - 1 / sa**2)

        integral, _ = quad(lambda x: mu_pp(x) ** 2, -12 * sa, 12 * sa, epsabs=1e-13)
        assert c.c2 == pytest.approx(0.5 * integral, rel=1e-9)


def test_numerator_constants_match_hessian_quadrature():
    # closed-form curvature constants of the triangle density against a dense
    # Simpson rule.  Work in shifted child coordinates (u, v) = (y - ax, z - ax),
    # where the density factorizes; the parent-coordinate second derivative
    # picks up chain-rule terms in the shifted frame.
    from scipy.integrate import simpson

    a, s = 0.5, 1.0
    c = rot_constants(a, s)
    sa = BarParams(a, a, sigma=s).sigma_a
    ax = np.linspace(-9, 9, 301)
    X, U, V = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)

    mu = np.exp(-0.5 * (X / sa) ** 2) / (sa * math.sqrt(2 * math.pi))
    mu1 = mu * (-X / sa**2)
    mu2 = mu * (X**2 / sa**4 - 1 / sa**2)
    qu = np.exp(-0.5 * (U / s) ** 2) / (s * math.sqrt(2 * math.pi))
    qu1 = qu * (-U / s**2)
    qu2 = qu * (U**2 / s**4 - 1 / s**2)
    qv = np.exp(-0.5 * (V / s) ** 2) / (s * math.sqrt(2 * math.pi))
    qv1 = qv * (-V / s**2)
    qv2 = qv * (V**2 / s**4 - 1 / s**2)

    h00 = mu2 * qu * qv - 2 * a * mu1 * (qu1 * qv + qu * qv1) + a * a * mu * (
        qu2 * qv + 2 * qu1 * qv1 + qu * qv2
    )
    h11 = mu * qu2 * qv
    h22 = mu * qu * qv2

    def tint(f):
        return simpson(simpson(simpson(f, x=ax, axis=2), x=ax, axis=1), x=ax, axis=0)

    assert 0.5 * tint(h00**2) == pytest.approx(c.c_tri, rel=1e-6)
    assert 0.5 * tint(h11**2) == pytest.approx(c.c0_tri, rel=1e-6)
    assert 0.5 * tint(h22**2) == pytest.approx(c.c1_tri, rel=1e-6)
    assert tint(h00 * h11) == pytest.approx(c.cross_parent_child, rel=1e-6)
    assert tint(h11 * h22) == pytest.approx(c.cross_child_child, rel=1e-6)


def test_score_G_shape_and_convexity():
    c = rot_constants(0.5, 1.0)
    n = 12
    hstar = exact_h_d(c, n)
    assert score_G(hstar, n, c) <= score_G(hstar * 1.1, n, c)
    assert score_G(hstar, n, c) <= score_G(hstar / 1.1, n, c)
    # subcritical: no ergodic penalty; score is pure bias + variance
    assert score_G(0.3, n, c) == pytest.approx(c.c2 * 0.3**4 + c.c1 / (2**n * 0.3), rel=1e-14)


def test_score_G_supercritical_term():
    c = rot_constants(0.8, 1.0)  # 2a^2 = 1.28 > 1
    n = 10
    base = c.c2 * 0.3**4 + c.c1 / (2**n * 0.3)
    assert score_G(0.3, n, c) == pytest.approx(base + c.M_a_sigma * 0.8 ** (2 * n), rel=1e-13)


def test_exact_h_d_matches_grid_search():
    c = rot_constants(0.5, 1.0)
    n = 12
    hs = np.linspace(0.01, 1.0, 200001)
    hstar = hs[np.argmin(score_G(hs, n, c))]
    assert exact_h_d(c, n) == pytest.approx(hstar, abs=hs[1] - hs[0])


def test_exact_h_n_defining_identities():
    # each numerator coordinate solves 4 c_i h^7 |G_n| = c2_tri
    c = rot_constants(0.5, 1.0)
    n = 12
    h, h0, h1 = exact_h_n(c, n)
    for hi, ci in ((h, c.c_tri), (h0, c.c0_tri), (h1, c.c1_tri)):
        assert 4 * ci * hi**7 * 2**n == pytest.approx(c.c2_tri, rel=1e-12)
    # the closed form is a per-coordinate heuristic, not the exact joint
    # argmin of the score; it should still land within 10% of the joint
    # minimum over a coarse search box
    g0 = score_G_tri(h, h0, h1, n, c)
    factors = np.linspace(0.6, 1.6, 21)
    best = min(
        score_G_tri(h * f, h0 * f0, h1 * f1, n, c)
        for f in factors
        for f0 in factors
        for f1 in factors
    )
    assert g0 <= 1.10 * best


def test_exact_forms_invalid_in_mid_window():
    c = rot_constants(0.7, 1.0)  # 2a^2 = 0.98: above both thresholds, below 1
    with pytest.raises(ValueError):
        exact_h_d(c, 8)
    with pytest.raises(ValueError):
        exact_h_n(c, 8)


def test_sigma_hat_values():
    assert sigma_hat_a(np.full(8, 3.3)) == 0.0
    assert sigma_hat_a(np.array([-1.0, 1.0])) == pytest.approx(math.sqrt(2), rel=1e-15)
    with pytest.raises(ValueError):
        sigma_hat_a(np.array([1.0]))


def test_sigma_hat_recovers_invariant_sd():
    sym = BarParams(0.5, 0.5, sigma=1.0)
    ests = []
    for seed in range(10):
        s = simulate(sym, 14, InitSpec.stationary(), derive_seed(4, seed))
        ests.append(sigma_hat_a(s.level(14)))
    assert np.mean(ests) == pytest.approx(sym.sigma_a, rel=0.05)


def test_a_hat_m1_returns_cap():
    # from generation 3 on every value repeats its parent's, so the lag-1
    # covariance ratio is exactly 1 before the root
    levels = [np.array([0.0]), np.array([1.0, -1.0]), np.array([3.0, -1.0, 2.0, -4.0])]
    while len(levels) < 8:
        levels.append(np.repeat(levels[-1], 2))
    assert a_hat(TreeSample(np.concatenate(levels)), m=1) == 0.999


def test_a_hat_translation_invariance():
    s = simulate(BarParams(0.5, 0.5), 8, InitSpec.dirac(0.0), 5)
    shifted = TreeSample(np.concatenate([lv + 7.5 for lv in (s.level(k) for k in range(10))]))
    assert a_hat(s, m=4) == pytest.approx(a_hat(shifted, m=4), rel=1e-10)


def test_a_hat_constant_tree_rejected():
    s = TreeSample(np.concatenate([np.full(1 << k, 2.0) for k in range(6)]))
    with pytest.raises(ValueError):
        a_hat(s, m=2)


def test_a_hat_lag_range():
    s = simulate(BarParams(0.5, 0.5), 6, InitSpec.dirac(0.0), 3)
    for m in (0, 6):  # lag 6 would leave the root as the only ancestor
        with pytest.raises(ValueError):
            a_hat(s, m=m)
    assert 0.0 < a_hat(s, m=5) <= 0.999


def test_a_hat_short_lag_is_tight():
    # with a short lag the covariance signal is strong; the estimator should
    # land near its estimand a with little spread
    sym = BarParams(0.5, 0.5, sigma=1.0)
    m = 3
    vals = [
        a_hat(simulate(sym, 12, InitSpec.stationary(), derive_seed(8, s)), m=m)
        for s in range(10)
    ]
    assert np.mean(vals) == pytest.approx(0.5, abs=0.03)


def test_a_hat_iid_tree_stays_low():
    # without autoregression the lag-1 covariance ratio is pure noise of
    # order 2^(-n/2), so the estimate stays far below the autoregressive
    # regime (negative ratios are clamped to RATE_FLOOR)
    iid = BarParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    vals = [
        a_hat(simulate(iid, 14, InitSpec.dirac(0.0), derive_seed(55, s))) for s in range(20)
    ]
    assert np.mean(vals) <= 0.35


def test_rot_select_forced_branches():
    # subcritical: 2*0.3^2 = 0.18 <= 2^(-1/5) -> |G_n|^(-1/5) scaling
    n = 10
    assert 2 * 0.3**2 <= DEN_THRESHOLD
    assert (2**n) ** (-1 / 5) == pytest.approx(0.25, abs=1e-12)
    # supercritical: 2*0.8^2 = 1.28 -> (2 a^2)^(-n)
    assert 2 * 0.8**2 > DEN_THRESHOLD
    assert 1.28**-10 == pytest.approx(0.084703, abs=5e-6)
    # threshold is inclusive on the subcritical side
    a_edge = math.sqrt(DEN_THRESHOLD / 2)
    assert 2 * a_edge**2 <= DEN_THRESHOLD


def test_rot_select_uses_per_sample_sigma_and_branches():
    sym = BarParams(0.5, 0.5, sigma=1.0)
    s = simulate(sym, 10, InitSpec.stationary(), 40)
    sel = rot_select(s)
    n = 10
    t = 2 * sel.a_hat**2
    s_par, s_c0, s_c1 = sel.sigma_hats
    assert s_par == sigma_hat_a(s.level(10))
    assert s_c0 == sigma_hat_a(s.level(11)[0::2])
    assert s_c1 == sigma_hat_a(s.level(11)[1::2])
    if t <= DEN_THRESHOLD:
        assert sel.h_d_hat == pytest.approx(2 ** (-n / 5) * s_par, rel=1e-14)
    else:
        assert sel.h_d_hat == pytest.approx(t**-n * s_par, rel=1e-14)
    if t <= NUM_THRESHOLD:
        assert sel.h_n_hat == pytest.approx(2 ** (-n / 7) * s_par, rel=1e-14)
        assert sel.h_0n_hat == pytest.approx(2 ** (-n / 7) * s_c0, rel=1e-14)
        assert sel.h_1n_hat == pytest.approx(2 ** (-n / 7) * s_c1, rel=1e-14)


def test_rot_select_sibling_swap_swaps_child_bandwidths():
    sym = BarParams(0.5, 0.5, sigma=1.0)
    s = simulate(sym, 8, InitSpec.stationary(), 21)
    levels = [s.level(k).copy() for k in range(10)]
    swapped = levels[:-1] + [levels[-1].copy()]
    swapped[-1][0::2], swapped[-1][1::2] = levels[-1][1::2].copy(), levels[-1][0::2].copy()
    sel = rot_select(s)
    sel_sw = rot_select(TreeSample(np.concatenate(swapped)))
    assert sel_sw.h_0n_hat == pytest.approx(sel.h_1n_hat, rel=1e-14)
    assert sel_sw.h_1n_hat == pytest.approx(sel.h_0n_hat, rel=1e-14)
    assert sel_sw.h_d_hat == pytest.approx(sel.h_d_hat, rel=1e-14)


def test_rot_select_depth_guard():
    s = simulate(BarParams(0.5, 0.5), 1, InitSpec.dirac(0.0), 0)
    with pytest.raises(ValueError):
        rot_select(s)
