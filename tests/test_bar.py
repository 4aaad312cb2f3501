import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bmckde.bar import (
    BarParams,
    InitSpec,
    mu_triangle,
    q_density,
    simulate,
    simulate_trees,
    stationary_mu,
    transition_density_p,
)
from bmckde.rng import derive_seed, philox_stream
from bmckde.tree import TreeSample, level_slice

CASE1 = BarParams(0.7, 0.5, 0.0, 0.0, 1.0, 0.0)
CASE2 = BarParams(1.2, 0.7, 0.0, 0.0, 1.0, 0.0)


def normal_pdf(x, mean, var):
    return math.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def test_params_validation():
    with pytest.raises(ValueError):
        BarParams(0.5, 0.5, sigma=0.0)
    with pytest.raises(ValueError):
        BarParams(0.5, 0.5, sigma=1.0, rho=1.0)  # |rho| < sigma^2 required
    with pytest.raises(ValueError):
        BarParams(1.0, 1.0).sigma_a
    BarParams(1.2, 0.7)  # coefficients beyond [-1, 1] are allowed


def test_sigma_a():
    sym = BarParams(0.5, 0.5, sigma=1.0)
    assert sym.sigma_a == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-12)


@pytest.mark.parametrize("params", [BarParams(1.0, 1.0), BarParams(0.5, 0.4)])
def test_sigma_a_only_in_the_stationary_symmetric_sub_case(params):
    with pytest.raises(ValueError, match="symmetric sub-case"):
        params.sigma_a


def test_simulate_rejects_a_model_that_overflows():
    # 1e200 * 1e200 is infinite by generation 2, and a tree must be finite;
    # the finiteness check says so, not a numpy warning on the way there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            simulate(BarParams(1e200, 1e200), 3, InitSpec.dirac(0.0), 0)


def test_simulate_is_seed_deterministic():
    s1 = simulate(CASE1, 5, InitSpec.dirac(0.0), 123)
    s2 = simulate(CASE1, 5, InitSpec.dirac(0.0), 123)
    assert s1 == s2
    s3 = simulate(CASE1, 5, InitSpec.dirac(0.0), 124)
    assert s1 != s3


def test_simulate_depth_and_levels():
    s = simulate(CASE1, 3, InitSpec.dirac(0.5), 0)
    assert s.depth == 3
    assert s.level(0)[0] == 0.5
    assert len(s.level(4)) == 16


def test_simulate_builds_the_tree_in_place(monkeypatch):
    # the sample keeps the array the recursion wrote, read-only; the
    # constructor adopts it, not a copy of it
    written = []
    adopt = TreeSample.__init__

    def spy(self, values):
        written.append(values)
        adopt(self, values)

    reference = simulate(CASE1, 5, InitSpec.dirac(0.5), 9)
    monkeypatch.setattr(TreeSample, "__init__", spy)
    s = simulate(CASE1, 5, InitSpec.dirac(0.5), 9)
    assert s == reference
    levels = [s.level(k) for k in range(7)]
    assert all(np.shares_memory(lv, written[0]) for lv in levels)
    assert not any(lv.flags.writeable for lv in levels)
    with pytest.raises(ValueError):
        levels[6][0] = 1.0


def test_stationary_init_requires_symmetric():
    with pytest.raises(ValueError):
        simulate(CASE1, 2, InitSpec.stationary(), 0)


def test_degenerate_recursion_gives_iid_normals():
    params = BarParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    s = simulate(params, 12, InitSpec.dirac(0.0), 42)
    vals = np.concatenate([s.level(k) for k in range(1, 14)])
    assert abs(np.mean(vals)) < 4.0 / math.sqrt(vals.size)
    assert np.var(vals) == pytest.approx(1.0, abs=4.0 * math.sqrt(2.0 / vals.size))
    assert abs(np.mean(vals**3)) < 0.1 and np.mean(vals**4) == pytest.approx(3.0, abs=0.3)


def test_tiny_noise_follows_recursion():
    params = BarParams(0.7, 0.7, 0.0, 0.0, 1e-8, 0.0)
    s = simulate(params, 6, InitSpec.dirac(1.0), 3)
    for k in range(7):
        parents = s.level(k)
        children = s.level(k + 1)
        assert np.max(np.abs(children[0::2] - 0.7 * parents)) <= 1e-6
        assert np.max(np.abs(children[1::2] - 0.7 * parents)) <= 1e-6


def reference_levels(params, n, init, seed):
    """Tree levels drawn the documented way: generation k's noise from stream k + 1."""
    if init.x0 is not None:
        root = np.array([init.x0])
    else:
        sigma_a = BarParams(params.a0, params.a0, sigma=params.sigma).sigma_a
        root = sigma_a * philox_stream(seed, 0).standard_normal(1)
    c10 = params.rho / params.sigma
    c11 = math.sqrt(params.sigma**2 - params.rho**2 / params.sigma**2)
    levels = [root]
    for k in range(n + 1):
        z = philox_stream(seed, k + 1).standard_normal((2**k, 2))
        children = np.empty(2 ** (k + 1))
        children[0::2] = params.a0 * levels[k] + params.b0 + params.sigma * z[:, 0]
        children[1::2] = params.a1 * levels[k] + params.b1 + (c10 * z[:, 0] + c11 * z[:, 1])
        levels.append(children)
    return levels


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1, (1 << 63) + 5, derive_seed(271828, 3)])
@pytest.mark.parametrize(
    "params,init",
    [
        (BarParams(0.5, 0.5), InitSpec.stationary()),
        (BarParams(0.5, 0.5), InitSpec.dirac(0.5)),
        (BarParams(0.7, 0.4, 0.3, -0.2, 1.3, 0.4), InitSpec.dirac(-1.0)),
    ],
)
def test_simulate_levels_equal_per_stream_reference_bitwise(params, init, seed):
    for n in (0, 1, 3, 9):
        tree = simulate(params, n, init, seed)
        for k, expected in enumerate(reference_levels(params, n, init, seed)):
            assert tree.level(k).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "params,init",
    [
        (BarParams(0.5, 0.5), InitSpec.stationary()),
        (BarParams(0.5, 0.5), InitSpec.dirac(0.75)),
        (BarParams(0.7, 0.4, 0.3, -0.2, 1.3, 0.4), InitSpec.dirac(-1.0)),
    ],
)
@pytest.mark.parametrize(
    "seeds",
    [
        [derive_seed(5, 2), 3, (1 << 64) - 1, 0, derive_seed(5, 0)],  # out of order
        [7, 12, 7, 7],  # repeated
        [(1 << 63) + 5],  # single
    ],
)
def test_simulate_levels_rows_equal_per_seed_simulate_bitwise(params, init, seeds):
    for n in (0, 1, 5):
        stack = simulate_trees(params, n, init, seeds)
        assert stack.shape == (len(seeds), (1 << (n + 2)) - 1)
        levels = [stack[:, level_slice(k)] for k in range(n + 2)]
        trees = [simulate(params, n, init, s) for s in seeds]
        for k, lv in enumerate(levels):
            assert lv.shape == (len(seeds), 1 << k)
            for r, tree in enumerate(trees):
                assert lv[r].tobytes() == tree.level(k).tobytes()


def test_simulate_levels_rejects_no_seeds():
    with pytest.raises(ValueError, match="at least one seed"):
        simulate_trees(CASE1, 3, InitSpec.dirac(0.0), [])


def test_simulate_levels_validates_before_drawing(monkeypatch):
    import bmckde.bar

    def no_draws(*args):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(bmckde.bar, "philox_stream", no_draws)
    monkeypatch.setattr(bmckde.bar, "rekey", no_draws)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        simulate_trees(CASE1, -1, InitSpec.dirac(0.0), [1, 2])
    with pytest.raises(OverflowError):
        simulate_trees(CASE1, 63, InitSpec.dirac(0.0), [1, 2])
    with pytest.raises(ValueError, match="symmetric sub-case"):
        simulate_trees(CASE1, 2, InitSpec.stationary(), [1, 2])


@pytest.mark.parametrize("init", [InitSpec.dirac(0.0), InitSpec.stationary()])
def test_float_seed_raises_type_error(init):
    params = BarParams(0.5, 0.5)
    with pytest.raises(TypeError):
        simulate(params, 2, init, 2.0)
    with pytest.raises(TypeError):
        simulate_trees(params, 2, init, [1, 2.0])


def test_correlated_noise_covariance():
    params = BarParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.6)
    s = simulate(params, 13, InitSpec.dirac(0.0), 9)
    c0 = s.level(14)[0::2]
    c1 = s.level(14)[1::2]
    assert np.corrcoef(c0, c1)[0, 1] == pytest.approx(0.6, abs=0.02)


def test_transition_density_standard_point():
    params = BarParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert transition_density_p(params, 0, 0, 0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)


def test_transition_density_factorizes_when_uncorrelated():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y, z = rng.uniform(-2, 2, 3)
        p = transition_density_p(CASE1, x, y, z)
        expected = normal_pdf(y, 0.7 * x, 1.0) * normal_pdf(z, 0.5 * x, 1.0)
        assert p == pytest.approx(expected, abs=1e-12)


def test_transition_density_symmetric_in_children():
    sym = BarParams(0.5, 0.5, 0.0, 0.0, 1.0, 0.3)
    for x, y, z in [(-1, 0.2, 0.8), (0, 1, -1), (2, 0.3, 0.1)]:
        assert transition_density_p(sym, x, y, z) == pytest.approx(
            transition_density_p(sym, x, z, y), rel=1e-14
        )


def test_q_density_values_and_mass():
    params = BarParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert q_density(params, 0.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-14)
    for x in (-2.0, 0.0, 2.0):
        mass, _ = quad(lambda y: q_density(CASE2, x, y), -40, 40, epsabs=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_q_density_symmetric_case_single_gaussian():
    params = BarParams(0.5, 0.5, sigma=1.0)
    for x, y in [(-1, 0.3), (0.5, 0.5), (2, -1)]:
        assert q_density(params, x, y) == pytest.approx(normal_pdf(y, 0.5 * x, 1.0), rel=1e-14)


def test_stationary_mu_values():
    assert stationary_mu(BarParams(0.0, 0.0, sigma=1.0), 0.0) == pytest.approx(
        1 / math.sqrt(2 * math.pi), rel=1e-14
    )
    sym = BarParams(0.5, 0.5, sigma=1.0)
    sa = 1.0 / math.sqrt(0.75)
    assert stationary_mu(sym, 0.0) == pytest.approx(normal_pdf(0.0, 0.0, sa * sa), rel=1e-12)
    mass, _ = quad(lambda x: stationary_mu(sym, x), -20, 20, epsabs=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_mu_triangle_is_product_and_symmetric():
    params = BarParams(0.5, 0.5, sigma=1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y, z = rng.uniform(-2, 2, 3)
        expected = stationary_mu(params, x) * q_density(params, x, y) * q_density(params, x, z)
        assert mu_triangle(params, x, y, z) == pytest.approx(expected, rel=1e-12)
        assert mu_triangle(params, x, y, z) == pytest.approx(mu_triangle(params, x, z, y), rel=1e-14)


def test_mu_triangle_total_mass():
    sym = BarParams(0.5, 0.5, sigma=1.0)
    # product-Gaussian structure: integrate with a tensor Simpson rule
    ax = np.linspace(-8, 8, 161)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    vals = mu_triangle(sym, gx, gy, gz)
    from scipy.integrate import simpson

    mass = simpson(simpson(simpson(vals, x=ax, axis=2), x=ax, axis=1), x=ax, axis=0)
    assert mass == pytest.approx(1.0, abs=1e-5)


def test_stationarity_of_level_variance():
    # level variances fluctuate a lot through shared ancestry: pool seeds
    sym = BarParams(0.5, 0.5, sigma=1.0)
    samples = [simulate(sym, 12, InitSpec.stationary(), 70 + s) for s in range(20)]
    target = sym.sigma_a**2
    for k in (6, 9, 12):
        pooled = np.concatenate([s.level(k) for s in samples])
        assert np.var(pooled) == pytest.approx(target, rel=0.2)


def test_level_mean_concentration():
    sym = BarParams(0.5, 0.5, sigma=1.0)
    means = []
    for seed in range(5):
        s = simulate(sym, 10, InitSpec.stationary(), seed)
        means.append(np.mean(s.level(10)))
    bound = 4.0 * sym.sigma_a / math.sqrt(2**10)
    assert all(abs(m) <= bound for m in means)
