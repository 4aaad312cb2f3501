import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bmckde import estimators
from bmckde.bar import BarParams, InitSpec, simulate
from bmckde.estimators import (
    DENOMINATOR_FLOOR,
    EstimatorSpec,
    evaluate_on_grid,
    mu_hat,
    mu_tri_hat,
    p_hat,
    product_points,
)
from bmckde.kernels import GAUSSIAN, BandwidthTriple
from bmckde.tree import Population, TreeSample

SQRT_2PI = math.sqrt(2 * math.pi)


def tiny_sample(values3):
    """TreeSample of depth 0 holding one triangle (root, c0, c1)."""
    p, c0, c1 = values3
    return TreeSample([np.array([p]), np.array([c0, c1])])


def test_kernel_constants():
    assert GAUSSIAN(0.0) == pytest.approx(1 / SQRT_2PI, rel=1e-15)
    assert GAUSSIAN.l2_norm_sq == pytest.approx(quad(lambda t: GAUSSIAN(t) ** 2, -10, 10)[0], abs=1e-12)
    assert GAUSSIAN.second_moment == pytest.approx(
        quad(lambda t: t * t * GAUSSIAN(t), -12, 12)[0], abs=1e-10
    )
    # self-convolution is the N(0, 2) density
    for t in (-1.5, 0.0, 2.0):
        conv, _ = quad(lambda s: GAUSSIAN(s) * GAUSSIAN(t - s), -12, 12)
        assert GAUSSIAN.self_convolution(t) == pytest.approx(conv, abs=1e-12)


def test_bandwidth_triple_validation():
    with pytest.raises(ValueError):
        BandwidthTriple(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BandwidthTriple(1.0, -1.0, 1.0)
    assert BandwidthTriple.scalar(0.3) == BandwidthTriple(0.3, 0.3, 0.3)


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
        [np.zeros(1 << k) for k in range(5)] + [vals, np.zeros(64)]
    )  # depth 5: generation-5 values are `vals`
    for h, x in [(0.2, 0.3), (0.7, -1.0), (1.3, 0.0)]:
        split = np.sum(h ** (-0.5) * GAUSSIAN((x - vals) / h)) / (vals.size * h**0.5)
        assert mu_hat(s, Population.GEN_N, h, x) == pytest.approx(split, rel=1e-14)


def test_mu_hat_linearity_in_sample():
    # estimator over the union of two equal-size index sets is the average
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    base = [np.array([0.0]), np.zeros(2), np.zeros(4)]
    sa = TreeSample(base + [a, np.zeros(16)])
    sb = TreeSample(base + [b, np.zeros(16)])
    merged = TreeSample(base + [np.zeros(8), np.concatenate([a, b]), np.zeros(32)])
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
        GAUSSIAN((x - xp) / h) * GAUSSIAN((x0 - c0) / h) * GAUSSIAN((x1 - c1) / h)
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
    s = TreeSample([np.array([c]), np.array([c, c]), np.array([c, c, c, c])])
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
    from bmckde.bar import SymmetricBarParams
    from bmckde.bar import transition_density_p as tdp
    from bmckde.rng import derive_seed
    from bmckde.rot import rot_select

    sym = SymmetricBarParams(0.5, 1.0)
    truth = float(tdp(sym.to_bar_params(), 0, 0, 0))
    ests = []
    for seed in range(10):
        s = simulate(sym.to_bar_params(), 14, InitSpec.stationary(), derive_seed(77, seed))
        sel = rot_select(s)
        bw = BandwidthTriple(sel.h_n_hat, sel.h_0n_hat, sel.h_1n_hat)
        ests.append(p_hat(s, Population.GEN_N, bw, sel.h_d_hat, 0.0, 0.0, 0.0))
    assert abs(np.median(ests) - truth) <= 0.15 * truth


def test_grid_single_point_equals_scalar_call():
    s = simulate(BarParams(0.7, 0.5), 4, InitSpec.dirac(0.0), 6)
    est = evaluate_on_grid(s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=0.3), np.array([0.4]))
    assert est.values[0] == mu_hat(s, Population.GEN_N, 0.3, 0.4)


def test_grid_order_preserved():
    s = simulate(BarParams(0.7, 0.5), 4, InitSpec.dirac(0.0), 6)
    xs = np.array([0.5, -1.0, 2.0])
    est = evaluate_on_grid(s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=0.3), xs)
    assert np.array_equal(est.points, xs)
    for x, v in zip(xs, est.values):
        assert v == mu_hat(s, Population.GEN_N, 0.3, float(x))


def test_product_grid_matches_pointwise_exactly():
    s = simulate(BarParams(0.7, 0.5), 8, InitSpec.dirac(0.0), 10)
    bw = BandwidthTriple(0.3, 0.35, 0.4)
    ax = np.linspace(-2, 2, 9)
    spec = EstimatorSpec(kind="p", population=Population.GEN_N, h=0.25, bw=bw)
    est = evaluate_on_grid(s, spec, (ax, ax, ax))
    rng = np.random.default_rng(0)
    for idx in rng.choice(est.points.shape[0], size=10, replace=False):
        x, x0, x1 = est.points[idx]
        assert est.values[idx] == p_hat(s, Population.GEN_N, bw, 0.25, x, x0, x1)


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
        assert est.values[idx] == p_hat(s, Population.GEN_N, bw, 0.25, x, x0, x1)


def test_mu_hat_grid_error_shrinks_with_depth():
    # smoothing at h = 2^(-0.2 n): the sup distance to the invariant density
    # over a grid drops from depth 10 to depth 14, averaged over 5 seeds
    from bmckde.bar import SymmetricBarParams, stationary_mu
    from bmckde.rng import derive_seed

    sym = SymmetricBarParams(0.5, 1.0)
    xs = np.linspace(-3, 3, 61)
    truth = stationary_mu(sym, xs)
    sup = {}
    for n in (10, 14):
        errs = []
        for seed in range(5):
            s = simulate(sym.to_bar_params(), n, InitSpec.stationary(), derive_seed(31, seed))
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
    rows = open(path).read().strip().split("\n")
    assert rows[0] == "x,value"
    assert len(rows) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv"]


def test_empty_grid_rejected():
    s = simulate(BarParams(0.7, 0.5), 2, InitSpec.dirac(0.0), 1)
    with pytest.raises(ValueError):
        evaluate_on_grid(s, EstimatorSpec(kind="mu", population=Population.GEN_N, h=0.3), np.array([]))


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


_axis_values = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.4, 2.0]) | st.floats(-4, 4), min_size=1, max_size=4)
_bandwidth = st.floats(0.05, 2.0)


@given(
    depth=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    population=st.sampled_from(list(Population)),
    hs=st.tuples(_bandwidth, _bandwidth, _bandwidth, _bandwidth),
    axes=st.tuples(_axis_values, _axis_values, _axis_values),
    block=st.sampled_from([1, 100, estimators._BLOCK_ENTRIES]),
)
@settings(max_examples=40, deadline=None)
def test_grid_values_equal_scalar_calls_bitwise(depth, seed, population, hs, axes, block):
    # small scratch caps split the grid into many blocks of one or a few rows
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
