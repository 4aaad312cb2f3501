import math

import numpy as np
import pytest

from bmckde.bar import BarParams, InitSpec, SymmetricBarParams, mu_triangle, simulate, transition_density_p
from bmckde.kernels import GAUSSIAN
from bmckde.oracle import (
    GridFunction,
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
from bmckde.tree import Population

SYM = BarParams(0.5, 0.5, 0.0, 0.0, 1.0, 0.0)


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


def test_apply_q_node_doubling_invariance():
    # dense function grid so interpolation error cannot mask the quadrature
    grid = np.linspace(-14, 14, 8193)
    bump = GridFunction(grid, gaussian_bump(0.5, 0.8)(grid))
    q64 = apply_q(SYM, bump, gh_nodes=64)
    q128 = apply_q(SYM, bump, gh_nodes=128)
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


@pytest.mark.parametrize("n,m", [(2, 4), (6, 1), (3, -1)])
def test_moment_check_table_rejects_levels_before_simulating(monkeypatch, n, m):
    import bmckde.bar

    def no_simulation(*args):
        raise AssertionError("simulated before checking the levels")

    monkeypatch.setattr(bmckde.bar, "simulate", no_simulation)
    with pytest.raises(ValueError, match="0 <= m <= n <= 5"):
        moment_check_table(SYM, x=0.5, n=n, m=m, replications=10, seed=0)


def test_true_variance_constants():
    sym = SymmetricBarParams(0.5, 1.0)
    k6 = GAUSSIAN.l2_norm_sq**3
    assert k6 == pytest.approx(1 / (8 * math.pi**1.5), rel=1e-14)
    assert k6 == pytest.approx(0.0224484, abs=1e-6)
    p0 = float(transition_density_p(SYM, 0, 0, 0))
    mu0 = 1 / (math.sqrt(2 * math.pi) * sym.sigma_a)
    assert true_variance_clt(sym, 0, 0, 0, "p_hat") == pytest.approx(k6 * p0 / mu0, rel=1e-12)
    assert true_variance_clt(sym, 0, 0, 0, "p_hat") == pytest.approx(0.010341, abs=2e-6)
    mt = float(mu_triangle(sym, 0, 0, 0))
    assert true_variance_clt(sym, 0, 0, 0, "mu_tri") == pytest.approx(k6 * mt, rel=1e-12)
    # whole-tree index set doubles the generation-normalized numerator variance
    v_gen = true_variance_clt(sym, 0, 0, 0, "num_raw", Population.GEN_N)
    v_tree = true_variance_clt(sym, 0, 0, 0, "num_raw", Population.TREE_N)
    assert v_tree == pytest.approx(2 * v_gen, rel=1e-14)
    with pytest.raises(ValueError):
        true_variance_clt(sym, 0, 0, 0, "nope")
