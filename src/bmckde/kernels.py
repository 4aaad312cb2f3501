"""Gaussian smoothing kernel, its constants, and bandwidth containers.

Every estimator and both bandwidth selectors use the Gaussian kernel, and
the CV sweep and the rule-of-thumb constants are written for it, so it is a
function and module constants rather than a type.  Strict positivity of the
Gaussian guarantees the density estimators never vanish, which keeps the
quotient estimator well defined away from underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gaussian normalising constants, shared with the model densities and the selector
SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# integral of K0^2, 1/(2*sqrt(pi)); the self-convolution, the N(0, 2)
# density, is L2_NORM_SQ * exp(-t^2/4)
L2_NORM_SQ = 1.0 / (2.0 * SQRT_PI)
SUP_NORM = 1.0 / SQRT_2PI  # K0(0), 1/sqrt(2*pi)
# (integral of K0^2)^3, the constant in all three limit variances
L2_NORM_SQ_CUBED = L2_NORM_SQ**3


def gaussian(t):
    """Standard Gaussian density, the smoothing kernel K0."""
    return np.exp(-0.5 * np.square(t)) / SQRT_2PI


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
