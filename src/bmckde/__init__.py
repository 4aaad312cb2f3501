"""Kernel estimation of transition densities for bifurcating Markov chains."""

from .bar import (
    BarParams,
    InitKind,
    InitSpec,
    SymmetricBarParams,
    mu_triangle,
    q_density,
    simulate,
    stationary_mu,
    transition_density_p,
)
from .cv import CvResult, FoldPartition, cv_select, j_hat_den, j_hat_num, make_folds
from .estimators import (
    DensityEstimate,
    EstimatorSpec,
    evaluate_on_grid,
    mu_hat,
    mu_tri_hat,
    p_hat,
)
from .kernels import GAUSSIAN, BandwidthTriple
from .oracle import (
    GridFunction,
    apply_q,
    expected_generation_sum,
    grid_function,
    mixed_moment,
    second_moment_generation_sum,
    true_variance_clt,
)
from .rot import (
    RotConstants,
    RotSelection,
    a_hat,
    exact_h_d,
    exact_h_n,
    rot_constants,
    rot_select,
    score_G,
    score_G_tri,
    sigma_hat_a,
)
from .tree import Population, TreeSample, tree_size

__all__ = [name for name in dir() if not name.startswith("_")]
