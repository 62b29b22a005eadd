"""Stationary Gaussian light-source models.

The central object is a :class:`CorrelationKernel` holding the two-time
correlations ``<a(t) a(t+tau)>`` and ``<a+(t) a(t+tau)>`` of the source
field, with operators normalised to delta-correlated commutators.  The
below-threshold optical parametric oscillator (OPO) is the physical source
of interest; a two-mode squeezed vacuum covariance is provided as an
exactly solvable source for tests, bypassing the mode-moment stage.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .covariance import CovarianceMatrix4
from .errors import ThresholdError

# a rate below this squares to a finite float; opo_kernel squares rate_fast,
# and the mode moments meet every rate, a filter's and an envelope's too
MAX_RATE = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold OPO: mirror leakage rates and nonlinear gain.

    All rates are expressed in units of ``gamma1`` (and times in units of
    ``1/gamma1``), so ``gamma1`` is conventionally 1.0.  The sum and
    difference rates ``rate_fast = (gamma1+gamma2)/2 + epsilon`` and
    ``rate_slow = (gamma1+gamma2)/2 - epsilon`` govern the decay of the
    anti-squeezed and squeezed output correlations; ``rate_slow > 0`` is
    the below-threshold condition.
    """

    gamma1: float = 1.0
    gamma2: float = 0.0
    epsilon: float = 0.0
    kind: ClassVar[str] = "opo"  # its [source] kind in a config

    def __post_init__(self):
        if not (self.gamma1 > 0):
            raise ValueError(f"gamma1 must be positive, got {self.gamma1}")
        if self.gamma2 < 0:
            raise ValueError(f"gamma2 must be nonnegative, got {self.gamma2}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not self.rate_fast < MAX_RATE:
            raise ValueError(
                f"(gamma1 + gamma2)/2 + epsilon = {self.rate_fast:g} is too large: "
                "the kernel squares it"
            )
        if self.rate_slow <= 0:
            raise ThresholdError(
                "at or above threshold: (gamma1 + gamma2)/2 - epsilon = "
                f"{self.rate_slow:g} <= 0 for gamma1={self.gamma1:g}, "
                f"gamma2={self.gamma2:g}, epsilon={self.epsilon:g}"
            )

    @property
    def rate_fast(self) -> float:
        return 0.5 * (self.gamma1 + self.gamma2) + self.epsilon

    @property
    def rate_slow(self) -> float:
        return 0.5 * (self.gamma1 + self.gamma2) - self.epsilon


@dataclass(frozen=True)
class CorrelationKernel:
    """Two-time source correlations, both even functions of the time lag.

    ``c_aa(tau)`` is the anomalous correlation ``<a(t) a(t+tau)>`` and
    ``c_ada(tau)`` the occupation correlation ``<a+(t) a(t+tau)>``, per
    unit time; both callables accept numpy arrays.  ``terms`` lists the
    same correlations as ``(rate, weight_aa, weight_ada)`` with
    ``c_aa(tau) = sum weight_aa exp(-rate |tau|)`` and likewise ``c_ada``,
    which makes mode moments closed form.  ``decay_rate`` is the slowest
    rate in ``terms`` and ``fast_rate`` the fastest, which sets the
    narrow-window rule of the filtered trigger mode.
    """

    c_aa: Callable[[np.ndarray], np.ndarray]
    c_ada: Callable[[np.ndarray], np.ndarray]
    terms: tuple[tuple[float, float, float], ...]

    @property
    def decay_rate(self) -> float:
        return min(rate for rate, _, _ in self.terms)

    @property
    def fast_rate(self) -> float:
        return max(rate for rate, _, _ in self.terms)


def opo_kernel(p: OpoParams) -> CorrelationKernel:
    """Correlation kernel of the below-threshold OPO output field.

    Both correlations are sums of two exponentials decaying at
    ``rate_slow`` and ``rate_fast``, with overall scale
    ``gamma1/(gamma1+gamma2) * (rate_fast^2 - rate_slow^2)/4``.
    At ``epsilon = 0`` both kernels vanish identically.
    """
    lam = p.rate_fast
    mu = p.rate_slow
    scale = p.gamma1 / (p.gamma1 + p.gamma2) * (lam**2 - mu**2) / 4.0

    def c_aa(tau):
        s = np.abs(tau)
        return scale * (np.exp(-mu * s) / (2.0 * mu) + np.exp(-lam * s) / (2.0 * lam))

    def c_ada(tau):
        s = np.abs(tau)
        return scale * (np.exp(-mu * s) / (2.0 * mu) - np.exp(-lam * s) / (2.0 * lam))

    terms = (
        (mu, scale / (2.0 * mu), scale / (2.0 * mu)),
        (lam, scale / (2.0 * lam), -scale / (2.0 * lam)),
    )
    return CorrelationKernel(c_aa=c_aa, c_ada=c_ada, terms=terms)


def tmsv_covariance(r: float) -> CovarianceMatrix4:
    """Two-mode squeezed vacuum covariance for squeezing parameter ``r``.

    Excess blocks ``sinh(r)^2 I`` on the diagonal and ``sinh(r) cosh(r) diag(1, -1)``
    off it: ``V`` has blocks ``cosh(2r) I`` and ``sinh(2r) diag(1, -1)``.
    """
    s, c, z = np.sinh(r), np.cosh(r), np.diag([1.0, -1.0])
    n = np.block([[s * s * np.eye(2), s * c * z], [s * c * z, s * s * np.eye(2)]])
    return CovarianceMatrix4.from_excess(n)
