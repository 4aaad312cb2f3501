import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from bmckde.bar import BarParams, InitSpec, simulate
from bmckde.cv import cv_select, default_grid, j_hat_den, j_hat_num, make_folds
from bmckde.tree import Population, TreeSample

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2 * math.pi)


@given(st.integers(2, 7), st.integers(2, 16), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_partition_invariants(n, K, seed):
    K = min(K, 1 << n)
    part = make_folds(n, K, seed)
    counts = part.sizes()
    assert counts.sum() == 1 << n
    assert counts.max() - counts.min() <= 1
    assert set(part.assignment) == set(range(K))


def test_make_folds_edges():
    part = make_folds(3, 8, 0)  # singleton folds
    assert list(part.sizes()) == [1] * 8
    part = make_folds(3, 4, 1)
    assert list(part.sizes()) == [2, 2, 2, 2]
    assert np.array_equal(make_folds(5, 3, 9).assignment, make_folds(5, 3, 9).assignment)
    with pytest.raises(ValueError):
        make_folds(3, 1, 0)
    with pytest.raises(ValueError):
        make_folds(3, 9, 0)


def constant_tree(c: float, n: int) -> TreeSample:
    return TreeSample([np.full(1 << k, c) for k in range(n + 2)])


def test_j_hat_den_collapsed_hand_value():
    # complement and fold each hold one value, both equal c
    s = constant_tree(0.3, 1)
    part = make_folds(1, 2, 0)
    h = 0.45
    expected = 1 / (2 * h * SQRT_PI) - 2 / (h * SQRT_2PI)
    assert j_hat_den(s, part, 0, h) == pytest.approx(expected, rel=1e-13)


def test_j_hat_num_collapsed_hand_value():
    s = constant_tree(-0.7, 1)
    part = make_folds(1, 2, 3)
    h = 0.6
    expected = (1 / (2 * SQRT_PI * h)) ** 3 - 2 * (1 / (SQRT_2PI * h)) ** 3
    assert j_hat_num(s, part, 0, h) == pytest.approx(expected, rel=1e-13)


def test_squared_integral_closed_form_vs_quadrature():
    # 16-point sample: closed form for the integral of mu_hat^2 vs adaptive quadrature
    s = simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 21)
    part = make_folds(4, 4, 5)
    h = 0.5
    vals = s.level(4)
    rest = vals[part.assignment != 0]
    m = rest.size
    diff = (rest[:, None] - rest[None, :]) / h
    closed = float(np.sum(np.exp(-0.25 * diff**2))) / (2 * SQRT_PI * m * m * h)

    def mu_rest(x):
        return float(np.sum(np.exp(-0.5 * ((x - rest) / h) ** 2)) / (SQRT_2PI * m * h))

    quad_val, _ = quad(lambda x: mu_rest(x) ** 2, -30, 30, epsabs=1e-12, limit=400)
    assert closed == pytest.approx(quad_val, abs=1e-8)


def test_j_hat_den_brute_force_n64():
    s = simulate(BarParams(0.7, 0.5), 6, InitSpec.dirac(0.0), 13)  # 64 leaves
    part = make_folds(6, 5, 2)
    for h in (0.2, 0.8):
        for k in (0, 3):
            vals = s.level(6)
            held = vals[part.assignment == k]
            rest = vals[part.assignment != k]
            m = rest.size
            integral = sum(
                math.exp(-((x - y) / h) ** 2 / 4) for x in rest for y in rest
            ) / (2 * SQRT_PI * m * m * h)
            lo = sum(
                math.exp(-(((w - y) / h) ** 2) / 2) for w in held for y in rest
            ) / (SQRT_2PI * held.size * m * h)
            assert j_hat_den(s, part, k, h) == pytest.approx(integral - 2 * lo, abs=1e-10)


def test_j_hat_num_brute_force_n32():
    s = simulate(BarParams(0.7, 0.5), 5, InitSpec.dirac(0.0), 17)  # 32 triangles
    part = make_folds(5, 4, 11)
    tri = np.column_stack(s.triangle_arrays(Population.GEN_N))
    for h in (0.3, 0.9):
        k = 1
        held = tri[part.assignment == k]
        rest = tri[part.assignment != k]
        m = rest.shape[0]
        integral = sum(
            math.exp(-float(np.sum((u - v) ** 2)) / (4 * h * h)) for u in rest for v in rest
        ) / ((2 * SQRT_PI) ** 3 * m * m * h**3)
        lo = sum(
            math.exp(-float(np.sum((w - v) ** 2)) / (2 * h * h)) for w in held for v in rest
        ) / (SQRT_2PI**3 * held.shape[0] * m * h**3)
        assert j_hat_num(s, part, k, h) == pytest.approx(integral - 2 * lo, abs=1e-10)


def test_j_hat_num_closed_form_vs_3d_quadrature():
    # 8 triangles: integral of mu_tri_hat^2 in closed form vs tensor Simpson rule
    s = simulate(BarParams(0.5, 0.5), 3, InitSpec.dirac(0.0), 31)
    part = make_folds(3, 4, 7)
    h = 0.55
    tri = np.column_stack(s.triangle_arrays(Population.GEN_N))
    rest = tri[part.assignment != 0]
    m = rest.shape[0]
    d2 = np.sum((rest[:, None, :] - rest[None, :, :]) ** 2, axis=-1)
    closed = float(np.sum(np.exp(-0.25 * d2 / h**2))) / ((2 * SQRT_PI) ** 3 * m * m * h**3)

    lo_b, hi_b = rest.min() - 8 * h, rest.max() + 8 * h
    ax = np.linspace(lo_b, hi_b, 385)
    # evaluate the complement estimator over the product grid via direct kernels
    kp = np.exp(-0.5 * ((ax[:, None] - rest[None, :, 0]) / h) ** 2) / SQRT_2PI
    k0 = np.exp(-0.5 * ((ax[:, None] - rest[None, :, 1]) / h) ** 2) / SQRT_2PI
    k1 = np.exp(-0.5 * ((ax[:, None] - rest[None, :, 2]) / h) ** 2) / SQRT_2PI
    total = np.empty(ax.size)
    for i in range(ax.size):
        w = kp[i] * k0  # (G, m) parent-child0 products against kernel rows
        plane = (w @ k1.T) / (m * h**3)
        total[i] = simpson(simpson(plane**2, x=ax, axis=1), x=ax, axis=0)
    quad_val = simpson(total, x=ax)
    assert closed == pytest.approx(quad_val, abs=1e-5)


def test_scores_invariant_under_fold_relabeling():
    s = simulate(BarParams(0.5, 0.5), 5, InitSpec.dirac(0.0), 3)
    part = make_folds(5, 4, 9)
    perm = np.array([2, 0, 3, 1])
    relabeled = type(part)(part.n, part.K, perm[part.assignment])
    h = 0.4
    mine = sorted(j_hat_den(s, part, k, h) for k in range(4))
    theirs = sorted(j_hat_den(s, relabeled, k, h) for k in range(4))
    assert mine == pytest.approx(theirs, rel=1e-13)


def test_cv_select_single_candidate():
    s = simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 6)
    res = cv_select(s, K=4, grid=np.array([0.37]), seed=0)
    assert res.h_d_hat == 0.37 and res.h_n_hat == 0.37


def test_cv_select_equals_per_fold_recomputation():
    s = simulate(BarParams(0.7, 0.5), 6, InitSpec.dirac(0.0), 12)
    grid = np.geomspace(0.1, 1.0, 6)
    res = cv_select(s, K=2, grid=grid, seed=8)
    part = make_folds(6, 2, 8)
    for t, h in enumerate(grid):
        den = 0.5 * (j_hat_den(s, part, 0, h) + j_hat_den(s, part, 1, h))
        num = 0.5 * (j_hat_num(s, part, 0, h) + j_hat_num(s, part, 1, h))
        assert res.scores_den[t] == pytest.approx(den, abs=1e-10)
        assert res.scores_num[t] == pytest.approx(num, abs=1e-10)


def test_cv_select_argmin_contract():
    s = simulate(BarParams(0.5, 0.5), 7, InitSpec.dirac(0.0), 4)
    grid = default_grid(7, 12)
    res = cv_select(s, K=5, grid=grid, seed=2)
    assert res.h_d_hat == grid[np.argmin(res.scores_den)]
    assert res.h_n_hat == grid[np.argmin(res.scores_num)]
    assert res.h_d_hat in grid and res.h_n_hat in grid


def test_cv_select_grid_validation():
    s = simulate(BarParams(0.5, 0.5), 3, InitSpec.dirac(0.0), 1)
    with pytest.raises(ValueError):
        cv_select(s, K=2, grid=np.array([0.5, 0.2]), seed=0)
    with pytest.raises(ValueError):
        cv_select(s, K=2, grid=np.array([0.0, 0.5]), seed=0)
    with pytest.raises(ValueError):
        cv_select(s, K=2, grid=np.array([]), seed=0)
    with pytest.raises(ValueError):
        cv_select(s, K=2, grid=np.array([np.nan]), seed=0)


def test_cv_interior_selection_on_reference_model():
    # at moderate depth the selected denominator bandwidth should not be
    # pinned at either end of a wide grid for most seeds
    interior = 0
    grid = np.geomspace(0.05, 1.0, 20)
    for seed in range(10):
        s = simulate(BarParams(0.5, 0.5), 10, InitSpec.stationary(), 100 + seed)
        res = cv_select(s, K=5, grid=grid, seed=seed)
        if grid[0] < res.h_d_hat < grid[-1]:
            interior += 1
    assert interior >= 8
