"""Closed-form references the benchmark checks the program against.

Kept apart from the program and from its test suite on purpose: the
benchmark must stay valid while either of them changes.  Everything here
is exact algebra on the OPO kernel, which is a sum of two ``e^{-r|tau|}``
terms, and on zero-mean Gaussian states.

Conventions follow the program: quadrature covariance ``V`` with vacuum
equal to the identity, ordering ``(x1, p1, x2, p2)``, mode 1 the trigger,
mode 2 the output; moments ``A_ij = <a_i a_j>`` and ``B_ij = <a_i+ a_j>``.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Random physical covariances (symplectic map on vacuum plus classical noise)


def _rot2(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]])


def _squeeze2(r, phi):
    rot = _rot2(phi)
    return rot.T @ np.diag([math.exp(r), math.exp(-r)]) @ rot


def _beamsplit4(theta):
    c, s = math.cos(theta), math.sin(theta)
    eye = np.eye(2)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def random_physical_covariance(rng, squeeze_max=0.7, noise=0.2) -> np.ndarray:
    """Random physical 4x4 covariance as a plain array.

    ``S S^T`` is the covariance of a pure Gaussian state for a symplectic
    ``S`` (two local squeezers and a beam splitter); adding a positive
    semidefinite ``W W^T`` keeps ``V + i Omega >= 0``.
    """
    s1 = _squeeze2(rng.uniform(-squeeze_max, squeeze_max), rng.uniform(0, math.pi))
    s2 = _squeeze2(rng.uniform(-squeeze_max, squeeze_max), rng.uniform(0, math.pi))
    zero = np.zeros((2, 2))
    sym = _beamsplit4(rng.uniform(0, 2 * math.pi)) @ np.block([[s1, zero], [zero, s2]])
    v = sym @ sym.T
    w = rng.normal(size=(4, 2)) * noise
    return v + w @ w.T


# ---------------------------------------------------------------------------
# Double integrals  K_r(f, g) = Int Int f(t) g(t') exp(-r |t - t'|) dt dt'
# for unit-amplitude mode shapes sharing one centre.


def causal_causal(g, r):
    """Both shapes ``e^{g t}`` on ``t < 0``."""
    return 1.0 / (g * (g + r))


def causal_symmetric(g, b, r):
    """``e^{g t}`` on ``t < 0`` against ``e^{-b |t'|}``."""
    return 2.0 * (b + g + r) / ((b + g) * (b + r) * (g + r))


def symmetric_pair(a, r):
    """Both shapes ``e^{-a |t|}``."""
    return 2.0 * (2.0 * a + r) / (a * (a + r) ** 2)


def _x_plus_expm1_neg(x):
    """``x - 1 + e^{-x}`` without cancellation for small ``x``."""
    if x > 0.1:
        return x + math.expm1(-x)
    term, total, k = x * x / 2.0, 0.0, 2
    while abs(term) > 1e-18 * abs(total) or total == 0.0:
        total += term
        k += 1
        term *= -x / k
    return total


def rect_rect(d, r):
    """Both shapes the unit box of width ``d``."""
    return 2.0 * _x_plus_expm1_neg(r * d) / (r * r)


def rect_symmetric(d, a, r):
    """Unit box of width ``d`` against ``e^{-a |t'|}``, same centre."""
    half = d / 2.0

    def ramp(k):  # Int_0^half e^{-k t} dt
        return -math.expm1(-k * half) / k

    return 2.0 * (
        (ramp(r) + ramp(a)) / (a + r) + (ramp(a) - ramp(r)) / (r - a)
    )


def opo_kernel_moments(eps, shapes):
    """``(A, B)`` for the OPO kernel with ``gamma1 = 1, gamma2 = 0``.

    ``shapes`` maps ``"11"``, ``"12"``, ``"22"`` to ``K_r`` as a function
    of the decay rate ``r`` (amplitudes included).
    """
    lam, mu = 0.5 + eps, 0.5 - eps
    scale = (lam * lam - mu * mu) / 4.0
    a = np.zeros((2, 2))
    b = np.zeros((2, 2))
    for key, k in shapes.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        slow, fast = k(mu) / (2.0 * mu), k(lam) / (2.0 * lam)
        a[i, j] = a[j, i] = scale * (slow + fast)
        b[i, j] = b[j, i] = scale * (slow - fast)
    return a, b


def collapsed_filter_moments(eps, gamma, alpha, c1, c2):
    """Moments of the collapsed filtered trigger against the exponential output.

    Trigger ``c1 e^{gamma (t - tc)}`` for ``t <= tc``; output
    ``c2 sqrt(alpha) e^{-alpha |t - tc|}``.
    """
    return opo_kernel_moments(
        eps,
        {
            "11": lambda r: c1 * c1 * causal_causal(gamma, r),
            "12": lambda r: c1 * c2 * math.sqrt(alpha) * causal_symmetric(gamma, alpha, r),
            "22": lambda r: c2 * c2 * alpha * symmetric_pair(alpha, r),
        },
    )


def window_moments(eps, tap, width, alpha):
    """Moments of the bare rectangular trigger window against the exponential output.

    Trigger height ``tap / sqrt(width)`` on a window of that width; output
    ``sqrt(1 - tap^2) sqrt(alpha) e^{-alpha |t|}``: the shipped fixture
    reading with unit detector efficiency.
    """
    h = tap / math.sqrt(width)
    c2 = math.sqrt(1.0 - tap * tap)
    return opo_kernel_moments(
        eps,
        {
            "11": lambda r: h * h * rect_rect(width, r),
            "12": lambda r: h * c2 * math.sqrt(alpha) * rect_symmetric(width, alpha, r),
            "22": lambda r: c2 * c2 * alpha * symmetric_pair(alpha, r),
        },
    )


def click_origin_value(a, b):
    """Exact W(0, 0) of the click-conditioned output state, from the moments.

    Written in the moments themselves, so nothing cancels at low trigger
    flux: the result is invariant under scaling the trigger (``A_12, B_12``
    by ``s``, ``A_11, B_11`` by ``s^2``), as the click state is.
    """
    vx = 1.0 + 2.0 * (a[1, 1] + b[1, 1])
    vp = 1.0 + 2.0 * (b[1, 1] - a[1, 1])
    cross = (a[0, 1] + b[0, 1]) ** 2 / vx + (b[0, 1] - a[0, 1]) ** 2 / vp
    return (1.0 - cross / b[0, 0]) / (math.pi * math.sqrt(vx * vp))
