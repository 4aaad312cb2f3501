import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from bmckde import cv, estimators
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
    return TreeSample(np.concatenate([np.full(1 << k, c) for k in range(n + 2)]))


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


_depth_and_folds = st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.just(1 << n) | st.integers(2, 1 << n)))


@given(
    depth_folds=_depth_and_folds,
    seed=st.integers(0, 2**32 - 1),
    grid=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4, unique=True).map(sorted),
    block=st.sampled_from([1, 3, 16, cv._BLOCK]),
)
@settings(max_examples=40, deadline=None)
def test_cv_scores_equal_fold_mean_of_j_hat(depth_folds, seed, grid, block):
    # small chunks cut long folds into pieces and group short folds whole, so
    # chunk pairs on the diagonal, within one fold, across two folds and
    # across groups of folds all occur; K = 2^n gives folds of one row
    n, K = depth_folds
    s = simulate(BarParams(0.7, 0.5), n, InitSpec.dirac(0.0), seed)
    with mock.patch.object(cv, "_BLOCK", block):
        res = cv_select(s, K=K, grid=np.array(grid), seed=seed)
    part = make_folds(n, K, seed)
    for t, h in enumerate(grid):
        assert res.scores_den[t] == pytest.approx(np.mean([j_hat_den(s, part, k, h) for k in range(K)]), abs=1e-10)
        assert res.scores_num[t] == pytest.approx(np.mean([j_hat_num(s, part, k, h) for k in range(K)]), abs=1e-10)


def test_leave_one_out_sweep_work_and_memory_do_not_grow_with_K():
    # K = 2^n folds of one row are grouped whole into chunks, so the sweep forms
    # the chunk pairs of K = 5 and keeps per-fold sums only (a K x K matrix of
    # fold-pair sums would be 4 * 32 * 1024^2 doubles, 1 GiB, at this depth)
    n = 10
    N = 1 << n
    grid = default_grid(n)
    s = simulate(BarParams(0.7, 0.5), n, InitSpec.dirac(0.0), 5)
    part = make_folds(n, N, 3)
    chunks = 2 * N // cv._BLOCK + 1
    limit = 2 * grid.size * chunks * (chunks + 1) // 2  # two exp calls per chunk pair and bandwidth
    calls = elements = 0
    real_exp = np.exp

    def counting_exp(x, *args, **kwargs):
        nonlocal calls, elements
        calls += 1
        elements += x.size
        assert calls <= limit, "more chunk pairs than chunks of _BLOCK rows give"
        return real_exp(x, *args, **kwargs)

    tracemalloc.start()
    try:
        with mock.patch.object(np, "exp", counting_exp):
            j_den, j_num = cv._fold_scores(s, part, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elements <= grid.size * (N * N + N * cv._BLOCK)  # the upper block triangle, twice per bandwidth
    assert peak < 16 * 2**20
    for k in (0, N // 2, N - 1):
        for t in (0, grid.size - 1):
            assert j_den[k, t] == pytest.approx(j_hat_den(s, part, k, grid[t]), abs=1e-10)
            assert j_num[k, t] == pytest.approx(j_hat_num(s, part, k, grid[t]), abs=1e-10)


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


def _sweep_cases():
    # (depth, K, rows per chunk): K = 2, 5, 64 and leave-one-out on depths
    # 3-9; chunks of 1 and 3 rows on the smaller trees, so that diagonal,
    # one-fold, split-column and grouped-fold pairs all occur in many runs
    cases = []
    for n in range(3, 10):
        for K in sorted({2, 5, 64, 1 << n}):
            for block in (1, 3, cv._BLOCK):
                if K <= 1 << n and (block == cv._BLOCK or (block == 3 and n <= 6) or n <= 4):
                    cases.append((n, K, block))
    return cases


def _sweep(n, K, block):
    s = simulate(BarParams(0.7, 0.5), n, InitSpec.dirac(0.0), 40 + n)
    with mock.patch.object(cv, "_BLOCK", block):
        j_den, j_num = cv._fold_scores(s, make_folds(n, K, K + n), np.array([0.15, 0.6]))
    return j_den.tobytes(), j_num.tobytes()


def test_fold_scores_do_not_depend_on_thread_count():
    cases = _sweep_cases()
    results = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 2, 3, 8):
            with mock.patch.object(estimators, "_THREADS", threads):
                for case in cases:
                    results[threads, case] = _sweep(*case)
    finally:
        sys.setswitchinterval(interval)
    for (threads, case), scores in results.items():
        assert scores == results[1, case], (threads, case)


class _NoExecutor:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was built")


def test_one_chunk_pair_sweep_builds_no_pool():
    s = simulate(BarParams(0.7, 0.5), 6, InitSpec.dirac(0.0), 2)  # 64 rows: one chunk
    with mock.patch.object(estimators, "_THREADS", 8), mock.patch.object(estimators, "ThreadPoolExecutor", _NoExecutor):
        res = cv_select(s, K=5, grid=default_grid(6, 4), seed=1)
    with mock.patch.object(estimators, "_THREADS", 1):
        assert res.scores_den.tobytes() == cv_select(s, K=5, grid=default_grid(6, 4), seed=1).scores_den.tobytes()


def _sweep_in_child(n, K, block):
    with mock.patch.object(estimators, "_THREADS", 8), mock.patch.object(estimators, "ThreadPoolExecutor", _NoExecutor):
        return _sweep(n, K, block)


def test_sweep_in_a_multiprocessing_child_runs_on_the_calling_thread():
    case = (6, 5, 3)  # chunks of 3 rows: hundreds of chunk pairs
    with mock.patch.object(estimators, "_THREADS", 1):
        expected = _sweep(*case)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(_sweep_in_child, *case).result(timeout=120) == expected


def test_threaded_sweep_leaves_no_thread_and_no_pinning_behind():
    s = simulate(BarParams(0.7, 0.5), 9, InitSpec.dirac(0.0), 8)
    built = []

    class Spy(estimators.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    threads, mask = threading.active_count(), os.sched_getaffinity(0)
    with mock.patch.object(estimators, "_THREADS", 4), mock.patch.object(estimators, "ThreadPoolExecutor", Spy):
        cv_select(s, K=5, grid=default_grid(9, 4), seed=3)
    assert built == [(4,)]
    assert threading.active_count() == threads
    assert os.sched_getaffinity(0) == mask


def test_fold_scores_equal_when_workers_cannot_be_pinned():
    def refuse(*args):
        raise OSError("not allowed")

    case = (7, 64, 3)
    with mock.patch.object(estimators, "_THREADS", 1):
        expected = _sweep(*case)
    with mock.patch.object(estimators, "_THREADS", 2), mock.patch.object(os, "sched_setaffinity", refuse):
        assert _sweep(*case) == expected


def test_leave_one_out_sweep_bounds_hold_on_four_threads():
    with mock.patch.object(estimators, "_THREADS", 4):
        test_leave_one_out_sweep_work_and_memory_do_not_grow_with_K()
