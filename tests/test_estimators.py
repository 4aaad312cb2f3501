import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bmckde import estimators
from bmckde.bar import BarParams, InitSpec, simulate, simulate_trees
from bmckde.estimators import (
    DENOMINATOR_FLOOR,
    EstimatorSpec,
    evaluate_on_grid,
    mu_hat,
    mu_tri_hat,
    p_hat,
    product_points,
)
from bmckde.kernels import L2_NORM_SQ, BandwidthTriple, gaussian
from bmckde.tree import Population, TreeSample, triangle_columns

SQRT_2PI = math.sqrt(2 * math.pi)


def bits(v):
    # byte-level equality: unlike ==, tells -0.0 from 0.0 and NaN payloads apart
    return np.float64(v).tobytes()


def tiny_sample(values3):
    """TreeSample of depth 0 holding one triangle (root, c0, c1)."""
    p, c0, c1 = values3
    return TreeSample(np.concatenate([np.array([p]), np.array([c0, c1])]))


def test_kernel_constants():
    assert gaussian(0.0) == pytest.approx(1 / SQRT_2PI, rel=1e-15)
    assert L2_NORM_SQ == pytest.approx(quad(lambda t: gaussian(t) ** 2, -10, 10)[0], abs=1e-12)
    # the self-convolution in the form the CV scores use: l2_norm_sq * exp(-t^2/4)
    for t in (-1.5, 0.0, 2.0):
        conv, _ = quad(lambda s: gaussian(s) * gaussian(t - s), -12, 12)
        assert L2_NORM_SQ * math.exp(-0.25 * t * t) == pytest.approx(conv, abs=1e-12)


def test_bandwidth_triple_validation():
    # a triple is the tuple kernel_sums takes, and kernel_sums is its one check:
    # every estimator refuses a zero, negative or NaN member with one message
    assert BandwidthTriple.scalar(0.3) == (0.3, 0.3, 0.3)
    s = simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 2)
    axes = (np.zeros(1), np.zeros(1), np.zeros(1))
    for bad in (0.0, -0.3, math.nan):
        for member in range(3):
            bw = BandwidthTriple(*(bad if j == member else 0.3 for j in range(3)))
            calls = [
                lambda: mu_tri_hat(s, Population.GEN_N, bw, 0.0, 0.0, 0.0),
                lambda: p_hat(s, Population.GEN_N, bw, 0.3, 0.0, 0.0, 0.0),
                lambda: evaluate_on_grid(s, EstimatorSpec("mu_tri", bw=bw), axes),
                lambda: evaluate_on_grid(s, EstimatorSpec("p", h=0.3, bw=bw), axes),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="^bandwidth must be positive and finite$"):
                    call()


def test_mu_hat_single_point_kernel_center():
    s = tiny_sample((0.7, 0.0, 0.0))
    h = 0.25
    assert mu_hat(s, Population.GEN_N, h, 0.7) == pytest.approx(1 / (h * SQRT_2PI), rel=1e-14)


def test_mu_hat_integrates_to_one():
    s = simulate(BarParams(0.5, 0.5), 5, InitSpec.dirac(0.0), 4)
    for population in Population:
        mass, _ = quad(lambda x: mu_hat(s, population, 0.4, x), -25, 25, epsabs=1e-11, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_mu_hat_normalization_equivalence():
    # the h^(d/2)-split normalization composes to the same 1/(N h) factor
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(32)
    s = TreeSample(
        np.concatenate([np.zeros(1 << k) for k in range(5)] + [vals, np.zeros(64)])
    )  # depth 5: generation-5 values are `vals`
    for h, x in [(0.2, 0.3), (0.7, -1.0), (1.3, 0.0)]:
        split = np.sum(h ** (-0.5) * gaussian((x - vals) / h)) / (vals.size * h**0.5)
        assert mu_hat(s, Population.GEN_N, h, x) == pytest.approx(split, rel=1e-14)


def test_mu_hat_linearity_in_sample():
    # estimator over the union of two equal-size index sets is the average
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    base = [np.array([0.0]), np.zeros(2), np.zeros(4)]
    sa = TreeSample(np.concatenate(base + [a, np.zeros(16)]))
    sb = TreeSample(np.concatenate(base + [b, np.zeros(16)]))
    merged = TreeSample(np.concatenate(base + [np.zeros(8), np.concatenate([a, b]), np.zeros(32)]))
    x, h = 0.4, 0.6
    avg = 0.5 * (mu_hat(sa, Population.GEN_N, h, x) + mu_hat(sb, Population.GEN_N, h, x))
    assert mu_hat(merged, Population.GEN_N, h, x) == pytest.approx(avg, rel=1e-13)


def test_mu_tri_hat_single_triangle_center():
    s = tiny_sample((0.0, 0.0, 0.0))
    v = mu_tri_hat(s, Population.GEN_N, BandwidthTriple.scalar(1.0), 0.0, 0.0, 0.0)
    assert v == pytest.approx((2 * math.pi) ** -1.5, rel=1e-14)


def test_mu_tri_hat_matches_scalar_bandwidth_form():
    s = simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 8)
    xp, c0, c1 = s.triangle_arrays(Population.GEN_N)
    h = 0.45
    x, x0, x1 = 0.2, -0.4, 0.9
    direct = np.sum(
        gaussian((x - xp) / h) * gaussian((x0 - c0) / h) * gaussian((x1 - c1) / h)
    ) / (xp.size * h**3)
    assert mu_tri_hat(s, Population.GEN_N, BandwidthTriple.scalar(h), x, x0, x1) == pytest.approx(
        direct, rel=1e-14
    )


def test_mu_tri_hat_integrates_to_one():
    s = simulate(BarParams(0.5, 0.5), 3, InitSpec.dirac(0.0), 2)
    bw = BandwidthTriple(0.5, 0.7, 0.4)
    ax = np.linspace(-9, 9, 181)
    est = evaluate_on_grid(
        s, EstimatorSpec(kind="mu_tri", population=Population.GEN_N, bw=bw), (ax, ax, ax)
    )
    from scipy.integrate import simpson

    vals = est.values.reshape(181, 181, 181)
    mass = simpson(simpson(simpson(vals, x=ax, axis=2), x=ax, axis=1), x=ax, axis=0)
    assert mass == pytest.approx(1.0, abs=1e-5)


def test_p_hat_quotient_and_degeneracy():
    s = tiny_sample((0.0, 0.5, -0.5))
    bw = BandwidthTriple.scalar(0.5)
    num = mu_tri_hat(s, Population.GEN_N, bw, 0.1, 0.2, 0.3)
    den = mu_hat(s, Population.GEN_N, 0.4, 0.1)
    assert p_hat(s, Population.GEN_N, bw, 0.4, 0.1, 0.2, 0.3) == pytest.approx(num / den, rel=1e-15)
    # far enough out that the strictly positive kernel underflows to zero
    assert mu_hat(s, Population.GEN_N, 0.01, 1e6) < DENOMINATOR_FLOOR
    assert p_hat(s, Population.GEN_N, bw, 0.01, 1e6, 0.0, 0.0) == 0.0


def test_p_hat_identical_triangles_hand_value():
    # N = 2 identical triangles (c, c, c): generation-1 population of a constant tree
    c = 0.8
    s = TreeSample(np.concatenate([np.array([c]), np.array([c, c]), np.array([c, c, c, c])]))
    bw = BandwidthTriple.scalar(0.3)
    h_den = 0.5
    k0_at_zero = 1 / SQRT_2PI
    num = 2 * k0_at_zero**3 / (2 * 0.3**3)
    den = 2 * k0_at_zero / (2 * h_den)
    assert p_hat(s, Population.GEN_N, bw, h_den, c, c, c) == pytest.approx(num / den, rel=1e-12)


def test_p_hat_invariant_under_common_kernel_scaling():
    # quotient structure: scaling numerator and denominator cancels
    s = simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 5)
    bw = BandwidthTriple.scalar(0.4)
    num = mu_tri_hat(s, Population.GEN_N, bw, 0.0, 0.1, -0.1)
    den = mu_hat(s, Population.GEN_N, 0.3, 0.0)
    for c in (1e-6, 3.7, 1e6):
        assert (c * num) / (c * den) == pytest.approx(num / den, rel=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_estimates_nonnegative(seed):
    s = simulate(BarParams(0.7, 0.5), 3, InitSpec.dirac(0.0), seed)
    assert mu_hat(s, Population.GEN_N, 0.3, 0.7) >= 0
    assert mu_tri_hat(s, Population.TREE_N, BandwidthTriple.scalar(0.3), 0.1, 0.2, 0.3) >= 0


def test_p_hat_near_truth_with_rot_bandwidths():
    # plug-in estimate at the central point, bandwidths from the sample: the
    # 10-seed median lands within 15% of the true transition density at
    # depth 14.  The median, not the mean: the rate estimate's sampling noise
    # occasionally crosses the selector's regime threshold and blows up the
    # numerator bandwidth (growing-branch window), collapsing those few
    # estimates toward zero.
    from bmckde.bar import transition_density_p as tdp
    from bmckde.rng import derive_seed
    from bmckde.rot import rot_select

    sym = BarParams(0.5, 0.5, sigma=1.0)
    truth = float(tdp(sym, 0, 0, 0))
    ests = []
    for seed in range(10):
        s = simulate(sym, 14, InitSpec.stationary(), derive_seed(77, seed))
        sel = rot_select(s)
        bw = BandwidthTriple(sel.h_n_hat, sel.h_0n_hat, sel.h_1n_hat)
        ests.append(p_hat(s, Population.GEN_N, bw, sel.h_d_hat, 0.0, 0.0, 0.0))
    assert abs(np.median(ests) - truth) <= 0.15 * truth


def test_grid_single_point_equals_scalar_call():
    s = simulate(BarParams(0.7, 0.5), 4, InitSpec.dirac(0.0), 6)
    est = evaluate_on_grid(s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=0.3), np.array([0.4]))
    assert bits(est.values[0]) == bits(mu_hat(s, Population.GEN_N, 0.3, 0.4))


def test_grid_order_preserved():
    s = simulate(BarParams(0.7, 0.5), 4, InitSpec.dirac(0.0), 6)
    xs = np.array([0.5, -1.0, 2.0])
    est = evaluate_on_grid(s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=0.3), xs)
    assert np.array_equal(est.points, xs)
    for x, v in zip(xs, est.values):
        assert bits(v) == bits(mu_hat(s, Population.GEN_N, 0.3, float(x)))


def test_product_grid_matches_pointwise_exactly():
    s = simulate(BarParams(0.7, 0.5), 8, InitSpec.dirac(0.0), 10)
    bw = BandwidthTriple(0.3, 0.35, 0.4)
    ax = np.linspace(-2, 2, 9)
    spec = EstimatorSpec(kind="p", population=Population.GEN_N, h=0.25, bw=bw)
    est = evaluate_on_grid(s, spec, (ax, ax, ax))
    rng = np.random.default_rng(0)
    for idx in rng.choice(est.points.shape[0], size=10, replace=False):
        x, x0, x1 = est.points[idx]
        assert bits(est.values[idx]) == bits(p_hat(s, Population.GEN_N, bw, 0.25, x, x0, x1))


def test_large_product_grid_completes_and_matches_spot_checks():
    # 51^3 slice of the quotient estimator at depth 12; the tensor fast path
    # must agree bitwise with scalar calls at random points
    s = simulate(BarParams(0.7, 0.5), 12, InitSpec.dirac(0.0), 3)
    bw = BandwidthTriple.scalar(0.3)
    ax = np.linspace(-3, 3, 51)
    est = evaluate_on_grid(
        s, EstimatorSpec(kind="p", population=Population.GEN_N, h=0.25, bw=bw), (ax, ax, ax)
    )
    assert est.values.shape == (51**3,)
    rng = np.random.default_rng(0)
    for idx in rng.choice(est.points.shape[0], size=10, replace=False):
        x, x0, x1 = est.points[idx]
        assert bits(est.values[idx]) == bits(p_hat(s, Population.GEN_N, bw, 0.25, x, x0, x1))


def test_mu_hat_grid_error_shrinks_with_depth():
    # smoothing at h = 2^(-0.2 n): the sup distance to the invariant density
    # over a grid drops from depth 10 to depth 14, averaged over 5 seeds
    from bmckde.bar import stationary_mu
    from bmckde.rng import derive_seed

    sym = BarParams(0.5, 0.5, sigma=1.0)
    xs = np.linspace(-3, 3, 61)
    truth = stationary_mu(sym, xs)
    sup = {}
    for n in (10, 14):
        errs = []
        for seed in range(5):
            s = simulate(sym, n, InitSpec.stationary(), derive_seed(31, seed))
            est = evaluate_on_grid(
                s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=2.0 ** (-0.2 * n)), xs
            )
            errs.append(np.max(np.abs(est.values - truth)))
        sup[n] = np.mean(errs)
    assert sup[14] < sup[10]


def test_product_points_layout():
    pts = product_points(np.array([0.0, 1.0]), np.array([2.0]), np.array([3.0, 4.0]))
    assert pts.tolist() == [[0, 2, 3], [0, 2, 4], [1, 2, 3], [1, 2, 4]]


def test_density_estimate_csv(tmp_path):
    s = simulate(BarParams(0.7, 0.5), 3, InitSpec.dirac(0.0), 6)
    est = evaluate_on_grid(s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=0.3), np.linspace(-1, 1, 5))
    path = str(tmp_path / "est.csv")
    est.to_csv(path)
    rows = Path(path).read_text().strip().split("\n")
    assert rows[0] == "x,value"
    assert len(rows) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv"]


def test_empty_grid_rejected():
    # an empty axis is refused alike by grid calls and by the one-point
    # calls under the scalar estimators
    s = simulate(BarParams(0.7, 0.5), 2, InitSpec.dirac(0.0), 1)
    bw = BandwidthTriple.scalar(0.3)
    empty, ax = np.array([]), np.array([0.0, 0.5])
    columns = tuple(col[None] for col in s.triangle_arrays(Population.GEN_N))
    with pytest.raises(ValueError, match="^empty grid$"):
        evaluate_on_grid(s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=0.3), empty)
    with pytest.raises(ValueError, match="^empty grid$"):
        estimators.kernel_sums(columns[:1], (0.3,), (empty,))
    for axis in range(3):
        axes, point = [ax] * 3, [np.array([0.0])] * 3
        axes[axis] = point[axis] = empty
        with pytest.raises(ValueError, match="^empty grid$"):
            evaluate_on_grid(s, EstimatorSpec(kind="mu_tri", bw=bw), tuple(axes))
        with pytest.raises(ValueError, match="^empty grid$"):
            evaluate_on_grid(s, EstimatorSpec(kind="p", h=0.3, bw=bw), tuple(axes))
        with pytest.raises(ValueError, match="^empty grid$"):
            estimators.kernel_sums(columns, (0.3, 0.3, 0.3), tuple(point))
        with pytest.raises(ValueError, match="^empty grid$"):
            estimators.p_at(columns, (0.3, 0.3, 0.3), 0.3, tuple(point))


def test_point_list_grid_rejected():
    s = simulate(BarParams(0.7, 0.5), 2, InitSpec.dirac(0.0), 1)
    spec = EstimatorSpec(kind="mu_tri", bw=BandwidthTriple.scalar(0.3))
    with pytest.raises(ValueError):
        evaluate_on_grid(s, spec, np.zeros((4, 3)))


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_bad_bandwidth_rejected_by_grid_and_scalar_calls(h):
    s = simulate(BarParams(0.7, 0.5), 3, InitSpec.dirac(0.0), 2)
    bw = BandwidthTriple.scalar(0.3)
    ax = np.array([0.0, 0.5])
    with pytest.raises(ValueError):
        mu_hat(s, Population.GEN_N, h, 0.0)
    with pytest.raises(ValueError):
        p_hat(s, Population.GEN_N, bw, h, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        evaluate_on_grid(s, EstimatorSpec(kind="mu", h=h), ax)
    with pytest.raises(ValueError):
        evaluate_on_grid(s, EstimatorSpec(kind="p", h=h, bw=bw), (ax, ax, ax))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_nonfinite_grid_point_rejected_by_grid_and_scalar_calls(axis, bad):
    s = simulate(BarParams(0.7, 0.5), 3, InitSpec.dirac(0.0), 2)
    bw = BandwidthTriple.scalar(0.3)
    point = [0.0, 0.0, 0.0]
    point[axis] = bad
    axes = [np.array([0.0, 0.5])] * 3
    axes[axis] = np.array([bad, 0.0])
    with pytest.raises(ValueError, match="finite"):
        mu_tri_hat(s, Population.GEN_N, bw, *point)
    with pytest.raises(ValueError, match="finite"):
        p_hat(s, Population.GEN_N, bw, 0.3, *point)
    with pytest.raises(ValueError, match="finite"):
        evaluate_on_grid(s, EstimatorSpec(kind="mu_tri", bw=bw), tuple(axes))
    with pytest.raises(ValueError, match="finite"):
        evaluate_on_grid(s, EstimatorSpec(kind="p", h=0.3, bw=bw), tuple(axes))
    if axis == 0:
        with pytest.raises(ValueError, match="finite"):
            mu_hat(s, Population.GEN_N, 0.3, bad)
        with pytest.raises(ValueError, match="finite"):
            evaluate_on_grid(s, EstimatorSpec(kind="mu", h=0.3), axes[0])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_two_dimensional_axis_rejected(axis):
    s = simulate(BarParams(0.7, 0.5), 3, InitSpec.dirac(0.0), 2)
    bw = BandwidthTriple.scalar(0.3)
    axes = [np.array([0.0, 0.5])] * 3
    axes[axis] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="1-D"):
        evaluate_on_grid(s, EstimatorSpec(kind="p", h=0.3, bw=bw), tuple(axes))
    if axis == 0:
        with pytest.raises(ValueError, match="1-D"):
            evaluate_on_grid(s, EstimatorSpec(kind="mu", h=0.3), axes[0])


_axis_values = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.4, 2.0]) | st.floats(-4, 4), min_size=1, max_size=4)
_bandwidth = st.floats(0.05, 2.0)


@given(
    depth=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    population=st.sampled_from(list(Population)),
    hs=st.tuples(_bandwidth, _bandwidth, _bandwidth, _bandwidth),
    axes=st.tuples(_axis_values, _axis_values, _axis_values),
    block=st.sampled_from([1, 100, 400, 2000, estimators._BLOCK_ENTRIES]),
)
# x = 1e6: the denominator underflows below DENOMINATOR_FLOOR and p is 0
@example(depth=3, seed=1, population=Population.GEN_N, hs=(0.3, 0.3, 0.3, 0.3), axes=([0.0, 1e6], [0.0], [0.0]), block=1)
@settings(max_examples=40, deadline=None)
def test_grid_values_equal_scalar_calls_bitwise(depth, seed, population, hs, axes, block):
    # small scratch caps split the grid into many blocks of one or a few rows:
    # ragged x1 chunks, several x0 rows per block, several x rows per block
    s = simulate(BarParams(0.7, 0.5), depth, InitSpec.dirac(0.0), seed)
    h_den, bw = hs[0], BandwidthTriple(*hs[1:])
    axes = tuple(np.array(a) for a in axes)
    with mock.patch.object(estimators, "_BLOCK_ENTRIES", block):
        mu = evaluate_on_grid(s, EstimatorSpec("mu", population, h=h_den), axes[0])
        tri = evaluate_on_grid(s, EstimatorSpec("mu_tri", population, bw=bw), axes)
        p = evaluate_on_grid(s, EstimatorSpec("p", population, h=h_den, bw=bw), axes)
    scalar_mu = [mu_hat(s, population, h_den, x) for x in mu.points]
    scalar_tri = [mu_tri_hat(s, population, bw, *pt) for pt in tri.points]
    scalar_p = [p_hat(s, population, bw, h_den, *pt) for pt in p.points]
    assert mu.values.tobytes() == np.array(scalar_mu).tobytes()
    assert tri.values.tobytes() == np.array(scalar_tri).tobytes()
    assert p.values.tobytes() == np.array(scalar_p).tobytes()


@pytest.mark.parametrize("population", list(Population))
@pytest.mark.parametrize("rows", [1, 3, 12, None])
def test_grid_values_equal_naive_formula_bitwise(population, rows):
    # pins the values themselves, not only grid == scalar.  `rows` kernel rows
    # per buffer on 4 x 3 x 5 axes: 3 leaves a ragged x1 chunk and puts
    # several x rows in a block; 12 takes the whole x1 axis for two x0 rows;
    # None is the default cap, one block for the whole grid
    s = simulate(BarParams(0.7, 0.5), 5, InitSpec.dirac(0.0), 11)
    X, C0, C1 = s.triangle_arrays(population)
    N = X.size
    h, h0, h1, h_den = 0.3, 0.25, 0.4, 0.35
    axes = (np.linspace(-2, 2, 4), np.array([-0.5, 0.0, 1.2]), np.linspace(-3, 3, 5))
    cap = estimators._BLOCK_ENTRIES if rows is None else rows * N
    with mock.patch.object(estimators, "_BLOCK_ENTRIES", cap):
        mu = evaluate_on_grid(s, EstimatorSpec("mu", population, h=h_den), axes[0])
        tri = evaluate_on_grid(s, EstimatorSpec("mu_tri", population, bw=BandwidthTriple(h, h0, h1)), axes)
        p = evaluate_on_grid(s, EstimatorSpec("p", population, h=h_den, bw=BandwidthTriple(h, h0, h1)), axes)
    den = {x: np.sum(gaussian((x - X) / h_den)) / (N * h_den) for x in axes[0]}
    num = [
        np.sum(gaussian((x - X) / h) * (gaussian((x0 - C0) / h0) * gaussian((x1 - C1) / h1))) / (((N * h) * h0) * h1)
        for x, x0, x1 in product_points(*axes)
    ]
    quotient = [v / den[x] if den[x] >= DENOMINATOR_FLOOR else 0.0 for v, x in zip(num, p.points[:, 0])]
    assert mu.values.tobytes() == np.array([den[x] for x in axes[0]]).tobytes()
    assert tri.values.tobytes() == np.array(num).tobytes()
    assert p.values.tobytes() == np.array(quotient).tobytes()


@given(
    depth=st.integers(0, 6),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    population=st.sampled_from(list(Population)),
    rows=st.lists(st.tuples(_bandwidth, _bandwidth, _bandwidth, _bandwidth), min_size=4, max_size=4),
    shared=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    axes=st.tuples(_axis_values, _axis_values, _axis_values),
    block=st.sampled_from([1, 100, 400, 2000, estimators._BLOCK_ENTRIES]),
)
# depths 1 and 2: samples shorter than numpy's 8-wide pairwise unroll; the
# whole tree has 2^(n+1) - 1 members, not a power of two
@example(
    depth=1, seeds=[1, 2, 3], population=Population.TREE_N, rows=[(0.3, 0.2, 0.4, 0.5)] * 4,
    shared=(False,) * 4, axes=([0.0], [0.0], [0.0]), block=1 << 16,
)
@example(
    depth=2, seeds=[4, 5], population=Population.GEN_N, rows=[(0.3, 0.2, 0.4, 0.5), (0.6, 0.1, 0.3, 0.2)] * 2,
    shared=(False, True, False, False), axes=([0.0, 1.0], [0.5], [0.0, -1.0]), block=1,
)
@settings(max_examples=40, deadline=None)
def test_stacked_values_equal_per_tree_calls_bitwise(depth, seeds, population, rows, shared, axes, block):
    # a stack of trees with a bandwidth per tree (or one for all) gives each
    # tree the bits of its own one-tree call, on grids and at single points
    trees = len(seeds)
    hs = tuple(rows[0][j] if shared[j] else np.array([row[j] for row in rows[:trees]]) for j in range(4))
    stack = simulate_trees(BarParams(0.7, 0.5), depth, InitSpec.dirac(0.0), seeds)
    columns = triangle_columns(stack, population)
    axes = tuple(np.array(a) for a in axes)
    at = tuple(a[:1] for a in axes)  # the first point of the grid
    with mock.patch.object(estimators, "_BLOCK_ENTRIES", block):
        tri = estimators.kernel_sums(columns, hs[1:], axes)
        mu = estimators.kernel_sums(columns[:1], hs[:1], axes[:1])
        p_values = estimators.p_at(columns, hs[1:], hs[0], axes)
        tri_at = estimators.kernel_sums(columns, hs[1:], at)
        p_values_at = estimators.p_at(columns, hs[1:], hs[0], at)
        size = math.prod(a.size for a in axes)
        assert tri.shape == p_values.shape == (trees, size) and mu.shape == (trees, axes[0].size)
        assert tri_at.shape == p_values_at.shape == (trees, 1)
        for r in range(trees):
            sample = TreeSample(stack[r])
            one = [h if shared[j] else float(h[r]) for j, h in enumerate(hs)]
            bw = BandwidthTriple(*one[1:])
            alone = {
                kind: evaluate_on_grid(sample, EstimatorSpec(kind, population, h=one[0], bw=bw), grid).values
                for kind, grid in (("mu", axes[0]), ("mu_tri", axes), ("p", axes))
            }
            assert mu[r].tobytes() == alone["mu"].tobytes()
            assert tri[r].tobytes() == alone["mu_tri"].tobytes()
            assert p_values[r].tobytes() == alone["p"].tobytes()
            point = tuple(float(a[0]) for a in at)
            assert bits(tri_at[r, 0]) == bits(mu_tri_hat(sample, population, bw, *point))
            assert bits(p_values_at[r, 0]) == bits(p_hat(sample, population, bw, one[0], *point))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_stacked_call_rejects_a_bad_bandwidth_in_any_one_tree(bad):
    columns = triangle_columns(simulate_trees(BarParams(0.7, 0.5), 3, InitSpec.dirac(0.0), [1, 2, 3]), Population.GEN_N)
    point = (np.array([0.0]),) * 3
    for j in range(3):
        for r in range(3):
            hs = np.full((3, 3), 0.3)
            hs[j, r] = bad
            with pytest.raises(ValueError, match="^bandwidth must be positive and finite$"):
                estimators.kernel_sums(columns, tuple(hs), point)
            with pytest.raises(ValueError, match="^bandwidth must be positive and finite$"):
                estimators.p_at(columns, (0.3, 0.3, 0.3), hs[j], point)


def test_stacked_call_rejects_an_empty_index_set_and_a_bandwidth_per_missing_tree():
    point = (np.array([0.0]),) * 3
    for empty in (np.empty((1, 0)), np.empty((3, 0))):
        with pytest.raises(ValueError, match="empty index set"):
            estimators.kernel_sums((empty,) * 3, (0.3, 0.3, 0.3), point)
        with pytest.raises(ValueError, match="empty index set"):
            estimators.p_at((empty,) * 3, (0.3, 0.3, 0.3), 0.3, point)
    columns = triangle_columns(simulate_trees(BarParams(0.7, 0.5), 3, InitSpec.dirac(0.0), [1, 2, 3]), Population.GEN_N)
    for hs in [(np.full(2, 0.3), 0.3, 0.3), (0.3, np.full((3, 1), 0.3), 0.3)]:
        with pytest.raises(ValueError, match="^one bandwidth per tree of the stack$"):
            estimators.kernel_sums(columns, hs, point)
    with pytest.raises(ValueError, match="^one bandwidth per tree of the stack$"):
        estimators.p_at(columns, (0.3, 0.3, 0.3), np.full(2, 0.3), point)
    with pytest.raises(ValueError, match="^one bandwidth per tree of the stack$"):  # one tree, two bandwidths
        estimators.kernel_sums((columns[0][:1],), (np.full(2, 0.3),), point[:1])


def _grids(population, block):
    # mu, mu_tri and p values on 6 x 3 x 5 axes over a depth-6 tree, with at
    # most `block` entries per scratch buffer
    s = simulate(BarParams(0.7, 0.5), 6, InitSpec.dirac(0.0), 13)
    axes = (np.linspace(-2, 2, 6), np.array([-0.5, 0.0, 1.2]), np.linspace(-3, 3, 5))
    bw = BandwidthTriple(0.3, 0.25, 0.4)
    with mock.patch.object(estimators, "_BLOCK_ENTRIES", block):
        mu = evaluate_on_grid(s, EstimatorSpec("mu", population, h=0.35), axes[0])
        tri = evaluate_on_grid(s, EstimatorSpec("mu_tri", population, bw=bw), axes)
        p = evaluate_on_grid(s, EstimatorSpec("p", population, h=0.35, bw=bw), axes)
    return mu.values.tobytes(), tri.values.tobytes(), p.values.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 12])
def test_grid_values_do_not_depend_on_thread_count(rows):
    # 64 triangles in generation 6: with 1, 3 and 12 kernel rows per buffer
    # there are 18, 6 and 2 product units, so runs of 2, 3 and 8 threads come
    # out ragged and cross x-block boundaries; 8 threads is more than the cores
    results = {}
    interval = sys.getswitchinterval()
    start = time.perf_counter()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (1, 2, 3, 8):
            with mock.patch.object(estimators, "_THREADS", threads):
                for population in Population:
                    results[threads, population] = _grids(population, rows * 64)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - start < 60
    for (threads, population), values in results.items():
        assert values == results[1, population], (threads, population)


class _NoExecutor:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was built")


def test_one_block_calls_run_on_the_calling_thread():
    s = simulate(BarParams(0.7, 0.5), 8, InitSpec.dirac(0.0), 4)
    bw = BandwidthTriple(0.3, 0.25, 0.4)
    with mock.patch.object(estimators, "_THREADS", 8), mock.patch.object(estimators, "ThreadPoolExecutor", _NoExecutor):
        for population in Population:
            mu_hat(s, population, 0.3, 0.1)
            mu_tri_hat(s, population, bw, 0.1, -0.2, 0.3)
            p_hat(s, population, bw, 0.3, 0.1, -0.2, 0.3)


def _grids_in_child(block):
    with mock.patch.object(estimators, "_THREADS", 8), mock.patch.object(estimators, "ThreadPoolExecutor", _NoExecutor):
        return _grids(Population.TREE_N, block)


def test_calls_in_a_multiprocessing_child_run_on_the_calling_thread():
    block = 3 * 127  # 3 kernel rows of the whole depth-6 tree: 12 product blocks
    with mock.patch.object(estimators, "_THREADS", 1):
        expected = _grids(Population.TREE_N, block)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(_grids_in_child, block).result(timeout=120) == expected


def test_threaded_call_leaves_no_thread_running():
    s = simulate(BarParams(0.7, 0.5), 6, InitSpec.dirac(0.0), 13)
    ax = np.linspace(-2, 2, 7)
    built = []

    class Spy(estimators.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    before = threading.active_count()
    with (
        mock.patch.object(estimators, "_THREADS", 4),
        mock.patch.object(estimators, "_BLOCK_ENTRIES", 64),
        mock.patch.object(estimators, "ThreadPoolExecutor", Spy),
    ):
        evaluate_on_grid(s, EstimatorSpec("mu_tri", bw=BandwidthTriple.scalar(0.3)), (ax, ax, ax))
    assert built == [(4,)]
    assert threading.active_count() == before


def test_grid_scratch_memory_is_two_kernel_row_matrices():
    # depth-14 41x41 slice on two threads: the x0 and x1 kernel rows (41 x 2^14
    # doubles, 5.1 MiB each) are kept whole, every other buffer holds at most
    # _BLOCK_ENTRIES doubles, so blocks of tens of MiB break the bound
    n = 14
    s = simulate(BarParams(1.2, 0.7), n, InitSpec.dirac(0.0), 7)
    ax = np.linspace(-3, 3, 41)
    spec = EstimatorSpec("p", Population.GEN_N, h=0.3, bw=BandwidthTriple(0.3, 0.2, 0.2))
    kernel_rows = ax.size * (1 << n) * 8
    tracemalloc.start()
    try:
        with mock.patch.object(estimators, "_THREADS", 2):
            est = evaluate_on_grid(s, spec, (np.array([0.0]), ax, ax))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * kernel_rows + 4 * 2**20
    assert bits(est.values[900]) == bits(p_hat(s, Population.GEN_N, spec.bw, 0.3, *est.points[900]))


def test_tail_density_near_1e_200_is_kept_exactly():
    # kernel exponents are not floored: about 30 bandwidths past the largest
    # daughter value, the nearest member's x1 factor is about 1e-200 and the
    # others underflow (exponents below -708), yet the density is a normal
    # number; it must stay nonzero and equal the direct sum and scalar calls
    s = simulate(BarParams(0.7, 0.5), 4, InitSpec.dirac(0.0), 3)
    X, C0, C1 = s.triangle_arrays(Population.GEN_N)
    u = int(np.argmax(C1))
    bw = BandwidthTriple(0.3, 0.3, 0.1)
    far = float(C1[u]) + 3.03
    exponents = np.sort(-0.5 * ((far - C1) / bw.h1) ** 2)
    assert -470 < exponents[-1] < -450 and exponents[-2] < -708
    axes = (np.array([X[u], 0.0]), np.array([0.5, C0[u]]), np.array([0.0, far]))
    tri = evaluate_on_grid(s, EstimatorSpec("mu_tri", bw=bw), axes)
    p = evaluate_on_grid(s, EstimatorSpec("p", h=0.3, bw=bw), axes)
    pt = tuple(tri.points[3])
    assert pt == (X[u], C0[u], far)
    direct = np.sum(gaussian((pt[0] - X) / 0.3) * (gaussian((pt[1] - C0) / 0.3) * gaussian((far - C1) / 0.1)))
    assert np.finfo(float).tiny < tri.values[3] < 1e-195
    assert np.finfo(float).tiny < p.values[3] < 1e-195
    assert bits(tri.values[3]) == bits(direct / (((X.size * 0.3) * 0.3) * 0.1))
    assert bits(tri.values[3]) == bits(mu_tri_hat(s, Population.GEN_N, bw, *pt))
    assert bits(p.values[3]) == bits(p_hat(s, Population.GEN_N, bw, 0.3, *pt))


def _square(u):
    return u * u


def test_worker_pool_returns_results_in_unit_order_at_any_thread_count():
    # earlier units sleep longer, so later ones finish first
    def slow_first(u):
        time.sleep(0.002 * (37 - u) / 37)
        return u, -u

    units = list(range(37))
    for threads in (1, 2, 3, 8):
        with mock.patch.object(estimators, "_THREADS", threads):
            with estimators._worker_pool(len(units)) as pmap:
                assert list(pmap(slow_first, units)) == [(u, -u) for u in units]
                assert list(pmap(_square, units[:5])) == [0, 1, 4, 9, 16]  # a second map on the same pool


def test_worker_pool_hands_out_units_as_threads_free_up():
    # two threads: unit 0 waits for unit 3 to start, which only the other
    # thread can reach, by taking units 1, 2 and 3 in turn
    third_started = threading.Event()

    def work(u):
        if u == 0:
            assert third_started.wait(timeout=30), "unit 3 never started"
        if u == 3:
            third_started.set()
        return u

    with mock.patch.object(estimators, "_THREADS", 2), estimators._worker_pool(8) as pmap:
        assert list(pmap(work, list(range(8)))) == list(range(8))


def test_worker_pool_holds_a_bounded_number_of_results():
    # a slow caller: at most 4 units per thread are queued or wait for it;
    # each thread may still be computing one more
    started = []

    def work(u):
        started.append(u)
        return u

    units = list(range(64))
    with mock.patch.object(estimators, "_THREADS", 2), estimators._worker_pool(len(units)) as pmap:
        for taken, u in enumerate(pmap(work, units)):
            assert u == taken
            time.sleep(0.0005)
            assert len(started) <= taken + 4 * 2 + 2 * 2, (taken, len(started))


def test_worker_pool_raises_a_worker_error_and_stops():
    started = []

    def work(u):
        started.append(u)
        if u == 5:
            raise ZeroDivisionError(u)
        return u

    before = threading.active_count()
    with mock.patch.object(estimators, "_THREADS", 2):
        with pytest.raises(ZeroDivisionError):
            with estimators._worker_pool(40) as pmap:
                list(pmap(work, list(range(40))))
    assert 5 in started and len(started) < 40
    assert threading.active_count() == before


def test_worker_threads_are_pinned_and_the_calling_thread_is_not():
    mask = os.sched_getaffinity(0)
    seen = {}

    def where(u):
        time.sleep(0.002)
        seen.setdefault(threading.get_ident(), set()).add(frozenset(os.sched_getaffinity(0)))
        return u

    before = threading.active_count()
    with mock.patch.object(estimators, "_THREADS", 2), estimators._worker_pool(16) as pmap:
        list(pmap(where, list(range(16))))
    assert threading.get_ident() not in seen
    for masks in seen.values():
        assert len(masks) == 1 and len(next(iter(masks))) == 1 and next(iter(masks)) <= mask
    if len(mask) > 1 and len(seen) == 2:
        assert len(set.union(*seen.values())) == 2  # one CPU each
    assert os.sched_getaffinity(0) == mask
    assert threading.active_count() == before


def test_calls_of_at_most_one_unit_map_inline():
    with mock.patch.object(estimators, "_THREADS", 8), mock.patch.object(estimators, "ThreadPoolExecutor", _NoExecutor):
        with estimators._worker_pool(1) as pmap:
            assert list(pmap(_square, [3])) == [9]
        with estimators._worker_pool(0) as pmap:
            assert list(pmap(_square, [])) == []


def test_grid_values_equal_when_workers_cannot_be_pinned():
    def refuse(*args):
        raise OSError("not allowed")

    built = []

    class Spy(estimators.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    with mock.patch.object(estimators, "_THREADS", 1):
        expected = _grids(Population.TREE_N, 3 * 127)
    before = os.sched_getaffinity(0)
    with (
        mock.patch.object(estimators, "_THREADS", 2),
        mock.patch.object(estimators, "ThreadPoolExecutor", Spy),
        mock.patch.object(os, "sched_setaffinity", refuse),
    ):
        assert _grids(Population.TREE_N, 3 * 127) == expected
    assert built and os.sched_getaffinity(0) == before
