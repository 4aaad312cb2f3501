import math
import re
import tracemalloc

import numpy as np
import pytest

from bmckde import oracle
from bmckde.bar import BarParams, InitSpec, mu_triangle, simulate, transition_density_p
from bmckde.kernels import L2_NORM_SQ
from bmckde.oracle import (
    GridFunction,
    _apply_p_outer,
    _hermgauss,
    apply_q,
    default_grid,
    expected_generation_sum,
    gaussian_bump,
    grid_function,
    mixed_moment,
    moment_check_table,
    second_moment_generation_sum,
    true_variance_clt,
)
from bmckde.rng import derive_seed

SYM = BarParams(0.5, 0.5, 0.0, 0.0, 1.0, 0.0)
CORRELATED = BarParams(0.7, 0.4, 0.3, -0.2, 1.0, 0.4)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0]), np.zeros(3))


def test_apply_q_preserves_constants():
    one = grid_function(default_grid(SYM), np.ones_like)
    q1 = apply_q(SYM, one)
    assert np.max(np.abs(q1.values - 1.0)) < 1e-10
    assert not q1.tail_warning


def test_apply_q_linear_contraction():
    ident = grid_function(default_grid(SYM), lambda y: y)
    g = ident
    for step in range(1, 4):
        g = apply_q(SYM, g)
        for x in (-2.0, 0.5, 2.0):
            assert g(x) == pytest.approx(0.5**step * x, abs=1e-8)


def test_apply_q_second_moment_identity():
    sq = grid_function(default_grid(SYM), np.square)
    q = apply_q(SYM, sq)
    for x in (-1.0, 0.0, 2.0):
        assert q(x) == pytest.approx(0.25 * x * x + 1.0, abs=1e-8)
    # cross-check by dense trapezoid quadrature of the mixture kernel
    ys = np.linspace(-15, 15, 20001)
    from bmckde.bar import q_density

    val = np.trapezoid(ys**2 * q_density(SYM, 2.0, ys), ys)
    assert q(2.0) == pytest.approx(val, abs=1e-8)


def test_apply_q_positivity():
    bump = grid_function(default_grid(SYM), gaussian_bump(1.0, 0.5))
    q = apply_q(SYM, bump)
    assert np.all(q.values >= 0)


def test_apply_q_node_doubling_invariance(monkeypatch):
    # dense function grid so interpolation error cannot mask the quadrature
    grid = np.linspace(-14, 14, 8193)
    bump = GridFunction(grid, gaussian_bump(0.5, 0.8)(grid))
    q64 = apply_q(SYM, bump)
    monkeypatch.setattr(oracle, "GH_NODES", 128)  # _hermgauss is cached per node count
    q128 = apply_q(SYM, bump)
    assert np.max(np.abs(q64.values - q128.values)) < 1e-9


def test_apply_q_asymmetric_mixture():
    params = BarParams(0.7, 0.5, 0.3, -0.2, 1.0, 0.0)
    ident = grid_function(default_grid(params), lambda y: y)
    q = apply_q(params, ident)
    for x in (-1.0, 0.0, 1.5):
        assert q(x) == pytest.approx(0.6 * x + 0.05, abs=1e-8)


def test_narrow_support_sets_warning():
    grid = np.linspace(-2, 2, 128)
    one = GridFunction(grid, np.ones(128))
    assert apply_q(SYM, one).tail_warning


def test_hermgauss_is_cached_read_only():
    t, w = _hermgauss(64)
    assert _hermgauss(64)[0] is t
    assert not t.flags.writeable and not w.flags.writeable
    t_ref, w_ref = np.polynomial.hermite.hermgauss(64)
    assert t.tobytes() == t_ref.tobytes() and w.tobytes() == w_ref.tobytes()


@pytest.mark.parametrize("params", [SYM, BarParams(0.7, 0.5, 0.3, -0.2, 1.0, 0.0)])
def test_apply_q_equals_two_component_formula_bitwise(params):
    grid = default_grid(params)
    bump = grid_function(grid, gaussian_bump(0.5, 0.8))
    t, w = np.polynomial.hermite.hermgauss(64)
    acc = np.zeros_like(grid)
    for a, b in ((params.a0, params.b0), (params.a1, params.b1)):
        y = (a * grid + b)[:, None] + math.sqrt(2) * params.sigma * t[None, :]
        acc += (bump(y) @ w) / math.sqrt(math.pi)
    assert apply_q(params, bump).values.tobytes() == (0.5 * acc).tobytes()


def full_p_outer(params, g1, g2):
    """E[g1(child0) g2(child1) | x] with g2 evaluated on the whole (G, gh, gh) node array."""
    t, w = np.polynomial.hermite.hermgauss(64)
    x, s2 = g1.nodes, math.sqrt(2)
    c10 = params.rho / params.sigma
    c11 = math.sqrt(params.sigma**2 - params.rho**2 / params.sigma**2)
    y = params.a0 * x[:, None] + params.b0 + s2 * params.sigma * t[None, :]
    z = params.a1 * x[:, None, None] + params.b1 + s2 * c10 * t[None, :, None] + s2 * c11 * t[None, None, :]
    return ((g1(y) * (g2(z) @ w)) @ w) / math.pi


@pytest.mark.parametrize("params", [SYM, BarParams(0.7, 0.5, 0.3, -0.2, 1.3, 0.0), CORRELATED])
def test_apply_p_outer_equals_full_formula_bitwise(params):
    grid = default_grid(params)
    g1 = grid_function(grid, lambda y: y)
    g2 = grid_function(grid, gaussian_bump(0.5, 0.8))
    assert _apply_p_outer(params, g1, g2).values.tobytes() == full_p_outer(params, g1, g2).tobytes()


def test_apply_p_outer_uncorrelated_scratch_is_one_node_array():
    # at rho = 0 g2 is evaluated once per (grid node, second-child node) and
    # integrated in blocks of grid rows: no (G, 64, 64) array is ever built
    grid = default_grid(SYM)
    g1 = grid_function(grid, lambda y: y)
    g2 = grid_function(grid, gaussian_bump())
    _apply_p_outer(SYM, g1, g2)
    tracemalloc.start()
    try:
        _apply_p_outer(SYM, g1, g2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_array = grid.size * 64 * 64 * 8
    assert peak <= 0.25 * node_array


def test_expected_generation_sum():
    grid = default_grid(SYM)
    one = grid_function(grid, np.ones_like)
    ident = grid_function(grid, lambda y: y)
    assert expected_generation_sum(SYM, one, 0.3, 5) == pytest.approx(32.0, abs=1e-8)
    assert expected_generation_sum(SYM, ident, 1.0, 3) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        expected_generation_sum(SYM, one, 0.0, 9)


def test_second_moment_edge_cases():
    grid = default_grid(SYM)
    one = grid_function(grid, np.ones_like)
    ident = grid_function(grid, lambda y: y)
    assert second_moment_generation_sum(SYM, one, 0.7, 3) == pytest.approx(64.0, abs=1e-7)
    assert second_moment_generation_sum(SYM, ident, 2.0, 0) == pytest.approx(4.0, abs=1e-9)


def test_mixed_moment_reduces_to_q2():
    grid = default_grid(SYM)
    ident = grid_function(grid, lambda y: y)
    q2 = second_moment_generation_sum(SYM, ident, 0.4, 3)
    q2bis = mixed_moment(SYM, ident, ident, 0.4, 3, 3)
    assert q2bis == pytest.approx(q2, rel=1e-10)


def test_mixed_moment_counting_factor():
    grid = default_grid(SYM)
    one = grid_function(grid, np.ones_like)
    ident = grid_function(grid, lambda y: y)
    # g = 1: the mixed moment is 2^m times the generation-n expectation
    val = mixed_moment(SYM, ident, one, 0.8, 4, 2)
    exp_n = expected_generation_sum(SYM, ident, 0.8, 4)
    assert val == pytest.approx(4 * exp_n, rel=1e-8)


def test_moments_match_monte_carlo():
    # generation sums over simulated trees against the quadrature identities
    grid = default_grid(SYM)
    ident = grid_function(grid, lambda y: y)
    x, n = 0.5, 3
    reps = 4000
    sums = []
    for r in range(reps):
        tree = simulate(SYM, n - 1, InitSpec.dirac(x), derive_seed(2024, r))
        sums.append(float(np.sum(tree.level(n))))
    sums = np.array(sums)
    q1 = expected_generation_sum(SYM, ident, x, n)
    q2 = second_moment_generation_sum(SYM, ident, x, n)
    se1 = np.std(sums, ddof=1) / math.sqrt(reps)
    se2 = np.std(sums**2, ddof=1) / math.sqrt(reps)
    assert abs(np.mean(sums) - q1) <= 3 * se1
    assert abs(np.mean(sums**2) - q2) <= 3 * se2


def test_moment_check_table_runs_and_passes():
    rows = moment_check_table(SYM, x=0.5, n=3, m=2, replications=1500, seed=7)
    assert len(rows) == 5
    assert all(abs(r.z_score) <= 3 for r in rows)
    labels = [r.formula for r in rows]
    assert any("Q2bis" in s for s in labels)


def per_tree_rows(params, x, n, m, replications, seed):
    """moment_check_table's rows, summing each tree's levels one tree at a time."""
    grid = default_grid(params)
    f_id = grid_function(grid, lambda y: y)
    f_bump = grid_function(grid, gaussian_bump())
    sums = {"id_n": [], "bump_n": [], "id_m": [], "bump_m": []}
    for r in range(replications):
        tree = simulate(params, max(n - 1, 0), InitSpec.dirac(x), derive_seed(seed, r))
        for key, level in (("n", tree.level(n)), ("m", tree.level(m))):
            sums["id_" + key].append(float(np.sum(level)))
            sums["bump_" + key].append(float(np.sum(gaussian_bump()(level))))
    arr = {k: np.asarray(v) for k, v in sums.items()}
    cases = []
    for label, fn, key in (("f=y", f_id, "id_n"), ("f=bump", f_bump, "bump_n")):
        cases.append((f"Q1[{label}, n={n}]", arr[key], expected_generation_sum(params, fn, x, n)))
        cases.append((f"Q2[{label}, n={n}]", arr[key] ** 2, second_moment_generation_sum(params, fn, x, n)))
    cases.append(
        (
            f"Q2bis[f=y,g=bump, n={n}, m={m}]",
            arr["id_n"] * arr["bump_m"],
            mixed_moment(params, f_id, f_bump, x, n, m),
        )
    )
    rows = []
    for name, samples, target in cases:
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
        rows.append((name, mean, se, target, 0.0 if se == 0 else (mean - target) / se))
    return rows


@pytest.mark.parametrize("params", [SYM, CORRELATED])
@pytest.mark.parametrize("n,m", [(4, 2), (0, 0)])
def test_moment_check_table_equals_per_tree_sums_bitwise(params, n, m):
    rows = moment_check_table(params, x=0.5, n=n, m=m, replications=300, seed=11)
    got = [(r.formula, r.mc_estimate, r.mc_se, r.quadrature, r.z_score) for r in rows]
    assert got == per_tree_rows(params, 0.5, n, m, 300, 11)


def _no_simulation(monkeypatch, message):
    # stub the name oracle calls, and check that valid arguments do reach it
    import bmckde.oracle

    def no_simulation(*args):
        raise AssertionError(message)

    monkeypatch.setattr(bmckde.oracle, "simulate_trees", no_simulation)
    with pytest.raises(AssertionError, match=message):
        moment_check_table(SYM, x=0.5, n=2, m=1, replications=10, seed=0)


@pytest.mark.parametrize("n,m", [(2, 4), (6, 1), (3, -1)])
def test_moment_check_table_rejects_levels_before_simulating(monkeypatch, n, m):
    _no_simulation(monkeypatch, "simulated before checking the levels")
    with pytest.raises(ValueError, match="0 <= m <= n <= 5"):
        moment_check_table(SYM, x=0.5, n=n, m=m, replications=10, seed=0)


@pytest.mark.parametrize("replications", [1, 0, -3])
def test_moment_check_table_rejects_too_few_replications(monkeypatch, replications):
    _no_simulation(monkeypatch, "simulated before checking the replication count")
    with pytest.raises(ValueError, match="at least 2 replications"):
        moment_check_table(SYM, x=0.5, n=3, m=2, replications=replications, seed=0)


def test_true_variance_constants():
    sym = BarParams(0.5, 0.5, sigma=1.0)
    k6 = L2_NORM_SQ**3
    assert k6 == pytest.approx(1 / (8 * math.pi**1.5), rel=1e-14)
    assert k6 == pytest.approx(0.0224484, abs=1e-6)
    p0 = float(transition_density_p(SYM, 0, 0, 0))
    mu0 = 1 / (math.sqrt(2 * math.pi) * sym.sigma_a)
    assert true_variance_clt(sym, 0, 0, 0, "p_hat") == pytest.approx(k6 * p0 / mu0, rel=1e-12)
    assert true_variance_clt(sym, 0, 0, 0, "p_hat") == pytest.approx(0.010341, abs=2e-6)
    mt = float(mu_triangle(sym, 0, 0, 0))
    assert true_variance_clt(sym, 0, 0, 0, "mu_tri") == pytest.approx(k6 * mt, rel=1e-12)
    with pytest.raises(ValueError):
        true_variance_clt(sym, 0, 0, 0, "nope")


@pytest.mark.parametrize(
    "statistic, point, message",
    [
        # at (0, 40, 0) the child density underflows to 0; at (50, 25, 25)
        # the stationary density of x does, so P / mu(x) is infinite
        ("p_hat", (0.0, 40.0, 0.0), "p_hat limit variance at (0, 40, 0) is 0,"),
        ("mu_tri", (0.0, 40.0, 0.0), "mu_tri limit variance at (0, 40, 0) is 0,"),
        ("p_hat", (50.0, 25.0, 25.0), "p_hat limit variance at (50, 25, 25) is inf,"),
        ("mu_tri", (50.0, 25.0, 25.0), "mu_tri limit variance at (50, 25, 25) is 0,"),
    ],
)
@pytest.mark.filterwarnings("error")  # and no numpy warning on the way
def test_true_variance_rejects_a_point_of_underflowing_densities(statistic, point, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        true_variance_clt(BarParams(0.5, 0.5, sigma=1.0), *point, statistic)


@pytest.mark.parametrize("a1", [1.0, -1.0])
def test_default_grid_of_a_critical_model(a1):
    # (a0^2 + a1^2) / 2 = 1: the spread is 4 sigma, the unstable branch's
    # without its 1/sqrt|1 - m2| factor, and the half-width 12 spreads
    grid = default_grid(BarParams(1.0, a1, sigma=0.5))
    assert grid[0] == -24.0 and grid[-1] == 24.0 and grid.size == oracle.GRID_NODES
