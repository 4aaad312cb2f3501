"""Smoothing kernel and bandwidth containers.

Only the Gaussian kernel is implemented; everything downstream reaches it
through this type so other kernels can slot in later.  Strict positivity of
the Gaussian guarantees the density estimators never vanish, which keeps the
quotient estimator well defined away from underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gaussian normalising constants, shared with the model densities and the selector
SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


class GaussianKernel:
    """Standard Gaussian density as smoothing kernel.

    Closed-form constants used by the selection rules and the variance
    formulas: L2 norm squared 1/(2*sqrt(pi)) and sup norm 1/sqrt(2*pi).  The
    self-convolution, the N(0, 2) density, is l2_norm_sq * exp(-t^2/4).
    """

    l2_norm_sq = 1.0 / (2.0 * SQRT_PI)
    sup_norm = 1.0 / SQRT_2PI

    def __call__(self, t):
        return np.exp(-0.5 * np.square(t)) / SQRT_2PI


GAUSSIAN = GaussianKernel()

# (integral of K0^2)^3, the constant in all three limit variances
L2_NORM_SQ_CUBED = GAUSSIAN.l2_norm_sq**3


@dataclass(frozen=True)
class BandwidthTriple:
    """Per-coordinate bandwidths (parent, child0, child1) for the numerator estimator."""

    h: float
    h0: float
    h1: float

    def __post_init__(self) -> None:
        for name in ("h", "h0", "h1"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"bandwidth {name} must be positive and finite")

    @classmethod
    def scalar(cls, h: float) -> "BandwidthTriple":
        return cls(h, h, h)
