"""Rule-of-thumb bandwidth selection against the symmetric Gaussian reference model.

The scores are asymptotic mean-squared-error upper bounds for the
denominator and numerator estimators; their constants are closed-form
functionals of the reference model's invariant density (sd sigma_a).  One
regime rule splits t = 2a^2 into "sub", "window" and "super", and one closed
form gives every bandwidth.  The practical selector drops the bounded
constants: the sample's sigma_a estimate stands for both, t comes from an
estimate of the ergodicity rate a, and the window, where the exact forms
raise, gets the supercritical formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SQRT_PI
from .tree import TreeSample

_PI_SQRT_PI = math.pi * SQRT_PI

# regime thresholds for 2*a^2 in the closed-form bandwidths
DEN_THRESHOLD = 2.0 ** (-1.0 / 5.0)
NUM_THRESHOLD = 2.0 ** (-3.0 / 7.0)

RATE_FLOOR = 1e-12  # covariance ratio clamp before the 1/m root
RATE_CAP = 0.999  # keeps (2*a^2)^(-n) finite in the supercritical branch
DEFAULT_LAG = 1  # ancestor-descendant lag of the rate estimate


@dataclass(frozen=True)
class RotConstants:
    """Score-function constants for the reference model with parameters (a, sigma).

    c1, c2, M_a_sigma drive the denominator score; c_tri, c0_tri, c2_tri,
    M_tri_a_sigma the numerator score (cross_parent_child and
    cross_child_child complete its squared quadratic form); b1..b5 are the
    bounded ratios that justify dropping the constants in the practical rule.
    c0_tri serves both child coordinates, as the children are exchangeable.
    """

    a: float
    sigma: float
    sigma_a: float
    c1: float
    c2: float
    M_a_sigma: float
    c_tri: float
    c0_tri: float
    c2_tri: float
    M_tri_a_sigma: float
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    cross_parent_child: float
    cross_child_child: float


def rot_constants(a: float, sigma: float) -> RotConstants:
    """All score constants for the reference model; a must lie in (0, 1)."""
    if not 0.0 < a < 1.0:
        raise ValueError("rate a must lie in (0, 1)")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    sa = sigma / math.sqrt(1.0 - a * a)
    one_m = 1.0 - a * a

    c1 = 2.0 / SQRT_PI
    c2 = 3.0 / (16.0 * SQRT_PI) * sa**-5
    m_as = 2.0 / (math.pi * sigma**2 * a**2 * (1.0 + a) * (1.0 - a) ** 2 * (2.0 * a**2 - 1.0))

    c2_tri = 6.0 / (8.0 * _PI_SQRT_PI)
    c_tri = 3.0 * (1.0 + a * a) ** 2 / (64.0 * _PI_SQRT_PI * one_m**3) * sa**-7
    c0_tri = 3.0 / (64.0 * _PI_SQRT_PI * one_m**3) * sa**-7
    c_big = 4.0 / (math.e * math.pi * sigma**2 * a**2 * (1.0 - a) ** 2 * (1.0 + a))
    m_tri = c_big / (4.0 * math.pi * sigma**2 * (2.0 * a**2 - 1.0))

    # second-derivative cross moments of the reference triangle density
    cross_pc = 1.0 / (32.0 * _PI_SQRT_PI * sa**3 * sigma**4) + a**2 / (
        8.0 * _PI_SQRT_PI * sa * sigma**6
    )
    cross_cc = 1.0 / (32.0 * _PI_SQRT_PI * sa * sigma**6)

    b1 = 32.0 / 3.0
    b2 = SQRT_PI * a**2 * one_m * (1.0 + a) * (1.0 - a) ** 2 * (2.0 * a**2 - 1.0)
    b3 = 4.0 * one_m**3 / (1.0 + a * a) ** 2
    b4 = 4.0 * one_m**3
    # chosen so c2_tri / M_tri_a_sigma == b5 * sigma_a^4 holds exactly
    b5 = (3.0 * math.e * SQRT_PI / 4.0) * a**2 * (1.0 - a) ** 2 * (1.0 + a) * (
        2.0 * a**2 - 1.0
    ) * one_m**2

    return RotConstants(
        a=a,
        sigma=sigma,
        sigma_a=sa,
        c1=c1,
        c2=c2,
        M_a_sigma=m_as,
        c_tri=c_tri,
        c0_tri=c0_tri,
        c2_tri=c2_tri,
        M_tri_a_sigma=m_tri,
        b1=b1,
        b2=b2,
        b3=b3,
        b4=b4,
        b5=b5,
        cross_parent_child=cross_pc,
        cross_child_child=cross_cc,
    )


def _regime(t: float, threshold: float) -> str:
    """The branch at t = 2a^2: "sub" up to threshold, "window" up to 1, "super" above."""
    return "sub" if t <= threshold else "window" if t <= 1.0 else "super"


def _closed_form(regime: str, t: float, n: int, p: int, q: int, sub: float, sup: float) -> float:
    """sub * 2^(-n/p) in "sub", else sup * t^(-n/q); (p, q) = (5, 1) for h_D, (7, 3) for h_N."""
    return sub * 2.0 ** (-n / p) if regime == "sub" else sup * t ** (-n / q)


def score_G(h, n: int, consts: RotConstants):
    """Denominator AMSE bound as a function of the bandwidth."""
    a = consts.a
    ergodic = consts.M_a_sigma * a ** (2 * n) if _regime(2.0 * a * a, DEN_THRESHOLD) == "super" else 0.0
    return consts.c2 * h**4 + consts.c1 / (2.0**n * h) + ergodic


def score_G_tri(h, h0, h1, n: int, consts: RotConstants):
    """Numerator AMSE bound: squared Hessian quadratic form plus variance and
    ergodic terms."""
    a = consts.a
    bias = (
        consts.c_tri * h**4
        + consts.c0_tri * h0**4
        + consts.c0_tri * h1**4
        + consts.cross_parent_child * (h * h * h0 * h0 + h * h * h1 * h1)
        + consts.cross_child_child * h0 * h0 * h1 * h1
    )
    ergodic = consts.M_tri_a_sigma * a ** (2 * n) if _regime(2.0 * a * a, NUM_THRESHOLD) == "super" else 0.0
    return bias + consts.c2_tri / (2.0**n * h * h0 * h1) + ergodic


def exact_h_d(consts: RotConstants, n: int) -> float:
    """Closed-form denominator bandwidth with exact constants."""
    t = 2.0 * consts.a**2
    regime = _regime(t, DEN_THRESHOLD)
    if regime == "window":
        raise ValueError("exact constants are not defined for 2a^2 in (2^(-1/5), 1]")
    sub = (consts.c1 / (4.0 * consts.c2)) ** 0.2
    return _closed_form(regime, t, n, 5, 1, sub, consts.c1 / consts.M_a_sigma)


def exact_h_n(consts: RotConstants, n: int) -> tuple[float, float, float]:
    """Closed-form numerator bandwidth triple with exact constants."""
    t = 2.0 * consts.a**2
    regime = _regime(t, NUM_THRESHOLD)
    if regime == "window":
        raise ValueError("exact constants are not defined for 2a^2 in (2^(-3/7), 1]")
    # M_tri_a_sigma < 0 below the window, where its cube root is not real
    sup = (consts.c2_tri / consts.M_tri_a_sigma) ** (1.0 / 3.0) if regime == "super" else math.nan
    return tuple(
        _closed_form(regime, t, n, 7, 3, (consts.c2_tri / (4.0 * c)) ** (1.0 / 7.0), sup)
        for c in (consts.c_tri, consts.c0_tri, consts.c0_tri)
    )


def sigma_hat_a(values: np.ndarray) -> float:
    """Sample standard deviation (N-1 denominator) of the invariant-law sample."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two values")
    return float(np.std(values, ddof=1))


def a_hat(sample: TreeSample, m: int = DEFAULT_LAG) -> float:
    """Ergodicity-rate estimate from ancestor-descendant covariances at lag m.

    Ratio of the summed lag-m covariances (1 <= m < n) between generation
    n-m ancestors and their generation-n descendants to the generation-n sum
    of squares, taken to the 1/m power.  In the stationary symmetric model the
    covariance at lag m is a^m sigma_a^2, so every lag has the limit a; the
    default lag 1 has the smallest variance.  The ratio is clamped to
    [RATE_FLOOR, 1] before the root (negative values are sampling noise; even
    m would leave the root undefined) and the result capped at RATE_CAP.
    """
    n = sample.depth
    if not 1 <= m < n:  # a lone root ancestor has zero centred covariance
        raise ValueError(f"need 1 <= m < depth, got m={m}, depth={n}")
    level_n = sample.level(n)
    xbar = float(np.mean(level_n))
    centered_n = level_n - xbar
    denom = float(np.sum(centered_n**2))
    if denom == 0.0:
        raise ValueError("all generation-n values are equal")
    ancestors = sample.level(n - m) - xbar
    block_sums = centered_n.reshape(ancestors.size, -1).sum(axis=1)
    ratio = float(np.sum(ancestors * block_sums)) / denom
    ratio = min(max(ratio, RATE_FLOOR), 1.0)
    return min(ratio ** (1.0 / m), RATE_CAP)


@dataclass(frozen=True)
class RotSelection:
    """Selected bandwidths with the estimates they were built from."""

    h_d_hat: float
    h_n_hat: float
    h_0n_hat: float
    h_1n_hat: float
    a_hat: float
    sigma_hats: tuple[float, float, float]  # from parents, child0s, child1s
    n: int
    m: int  # lag of the a_hat estimate


def rot_select(sample: TreeSample, m: int = DEFAULT_LAG) -> RotSelection:
    """Practical rule-of-thumb bandwidths from one tree sample: the exact closed
    forms with a sigma_a estimate in place of both constants.

    The sigma_a estimates differ per coordinate: the parent sample drives the
    denominator and the numerator parent coordinate, and the two child
    samples drive their own coordinates.  The regime switch uses a_hat at lag
    m (generation n-m ancestors, 1/m root).
    """
    n = sample.depth
    if n < 2:
        raise ValueError("need depth >= 2")
    a = a_hat(sample, m)
    s_par = sigma_hat_a(sample.level(n))
    s_c0 = sigma_hat_a(sample.level(n + 1)[0::2])
    s_c1 = sigma_hat_a(sample.level(n + 1)[1::2])

    t = 2.0 * a * a
    h_d = _closed_form(_regime(t, DEN_THRESHOLD), t, n, 5, 1, s_par, s_par)
    num = _regime(t, NUM_THRESHOLD)
    h_num = (_closed_form(num, t, n, 7, 3, s, s) for s in (s_par, s_c0, s_c1))
    return RotSelection(h_d, *h_num, a_hat=a, sigma_hats=(s_par, s_c0, s_c1), n=n, m=m)
