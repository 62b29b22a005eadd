"""Trigger-mode measurement back-actions and the conditioned output state.

Three detector models act on the two-mode Gaussian state: projection onto
a photon number (0, 1 or 2), the binary on/off detector (removal of the
vacuum component), and the absorptive click detector whose back-action is
the annihilation operator, rho -> a rho a+ / Tr(a+ a rho).  Each returns
the normalised conditioned state of the output mode together with the
outcome probability (the click case reports the trigger-mode occupation).

Given the output quadratures ``y2``, the trigger's P function is the
Gaussian ``z ~ N(2 G y2, E)`` of :attr:`CovarianceMatrix4.trigger_given_output`,
and an outcome of normally ordered weight ``w(z)`` leaves the output in
``W_V22(y2) E[w(z)]``, unnormalised: ``|z|^2/2`` for a click and
``exp(-|z|^2/2) (|z|^2/2)^n / n!`` for n photons.  No vacuum is subtracted.
The number outcomes' ``exp(-|z|^2/2)`` folds into the Gaussians
(:attr:`CovarianceMatrix4.number_core`), which leaves every outcome the
expectation of ``(|z|^2/2)^n / n!``, n <= 2, over some ``z ~ N(L y, C)``.  With
``Q = L^T L`` and ``R = L^T C L`` it is, in closed form
(:func:`_occupation_expectation`),

* n = 0: ``1`` (vacuum projection, and the vacuum term of on/off);
* n = 1: ``(y^T Q y + tr C)/2`` (one photon; the click, with L = 2G, C = E);
* n = 2: ``[(y^T Q y + tr C)^2 + 2 tr C^2 + 4 y^T R y]/8`` (two photons).

The generic Isserlis expansion of :mod:`cwherald.polynomials` is the
tests' oracle for these forms.

Each conditioner also takes a family of covariances (``v.n`` of shape
(K, 4, 4)) and conditions all members in one pass; its result holds the K
states as stacked terms and one probability per member, each equal to the
member conditioned alone.  A check that fails on any member raises the
error that the first such member raises alone.

Every Gaussian reduction a conditioner needs is a cached property of
:class:`~cwherald.covariance.CovarianceMatrix4`, computed once per covariance,
when first read, and kept on it (its ``n`` is read-only): the physicality
margin, the trigger given the output and the n-independent number core.
Conditioning one covariance six ways reduces it once, and the resulting states
share two exactly symmetric Gaussian cores with read-only ``sigma`` (``V22``
and the number core), each with one inverse and one product with each core it
is measured on, all by :func:`~cwherald.polynomials.inv2`.  The program's own
paths condition each covariance once; the sharing serves a caller that
compares several outcomes on one state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceMatrix4
from .errors import ImpossibleOutcomeError, UnphysicalCovarianceError
from .polynomials import any_member, det2, entries, per_member
from .wigner import GaussPolyState, gaussian_state

PROBABILITY_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class ConditionResult:
    """Normalised conditioned output state plus the trigger outcome probability.

    For number and on/off detection ``probability`` is the outcome
    probability of the discrete trigger mode; for click detection it is
    the trigger-mode occupation <a1+ a1> (per-window click rate).  For a
    family it is an array, one value per member.
    """

    state: GaussPolyState
    probability: float | np.ndarray


def _first_failing(values, failing):
    """The value of the first member that fails a check, or None if none does."""
    if not any_member(failing):
        return None
    return values[np.argmax(failing)] if np.ndim(failing) else values


def _require_physical(v: CovarianceMatrix4) -> None:
    min_eig, _, physical = v.margin
    min_eig = _first_failing(min_eig, np.logical_not(physical))
    if min_eig is not None:
        raise UnphysicalCovarianceError(
            "cannot condition on an unphysical covariance: min eigenvalue of "
            f"V + i*Omega = {min_eig:g}"
        )


def _occupation_expectation(n: int, lin: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``E[(|z|^2/2)^n / n!]`` for ``z ~ N(lin y, cov)``: a table in y = (x, p), n in {0, 1, 2}.

    In ``Q = lin^T lin``, ``R = lin^T cov lin`` and ``t = tr cov`` it is
    1, ``(y^T Q y + t)/2`` and ``[(y^T Q y + t)^2 + 2 tr cov^2 + 4 y^T R y]/8``.
    Only even total degrees occur, and a diagonal ``lin`` gives no odd
    power of x unless ``cov`` has a cross term.  A stack of ``lin`` and
    ``cov`` gives one table per member.
    """
    out = np.zeros(lin.shape[:-2] + (2 * n + 1, 2 * n + 1))
    if n == 0:
        out[..., 0, 0] = 1.0
        return out
    l00, l01, l10, l11 = entries(lin)
    c00, c01, c10, c11 = entries(cov)
    t = c00 + c11
    # y^T Q y = qxx x^2 + qxp x p + qpp p^2
    qxx = l00 * l00 + l10 * l10
    qxp = 2.0 * (l00 * l01 + l10 * l11)
    qpp = l01 * l01 + l11 * l11
    if n == 1:
        out[..., 0, 0], out[..., 2, 0], out[..., 1, 1], out[..., 0, 2] = (
            0.5 * t, 0.5 * qxx, 0.5 * qxp, 0.5 * qpp
        )
        return out
    # y^T R y = rxx x^2 + rxp x p + rpp p^2, through cov lin = [[a00, a01], [a10, a11]]
    a00, a01 = c00 * l00 + c01 * l10, c00 * l01 + c01 * l11
    a10, a11 = c10 * l00 + c11 * l10, c10 * l01 + c11 * l11
    rxx = l00 * a00 + l10 * a10
    rxp = l00 * a01 + l10 * a11 + l01 * a00 + l11 * a10
    rpp = l01 * a01 + l11 * a11
    tr_cov2 = c00 * c00 + 2.0 * (c01 * c10) + c11 * c11
    out[..., 4, 0] = 0.125 * (qxx * qxx)
    out[..., 3, 1] = 0.25 * (qxx * qxp)
    out[..., 2, 2] = 0.125 * (qxp * qxp + 2.0 * (qxx * qpp))
    out[..., 1, 3] = 0.25 * (qxp * qpp)
    out[..., 0, 4] = 0.125 * (qpp * qpp)
    out[..., 2, 0] = 0.25 * (t * qxx + 2.0 * rxx)
    out[..., 1, 1] = 0.25 * (t * qxp + 2.0 * rxp)
    out[..., 0, 2] = 0.25 * (t * qpp + 2.0 * rpp)
    out[..., 0, 0] = 0.125 * (t * t + 2.0 * tr_cov2)
    return out


def _number_state(v: CovarianceMatrix4, n: int) -> GaussPolyState:
    """The unnormalised n-photon-conditioned output, whose integral is P_n."""
    lin, cov, core, det_core = v.number_core
    return gaussian_state(_occupation_expectation(n, lin, cov), core, det_core)


def condition_on_number(v: CovarianceMatrix4, n: int) -> ConditionResult:
    """Project the trigger mode onto the n-photon state, n in {0, 1, 2}.

    The probability is the integral of the unnormalised output.
    Impossible outcomes (zero probability) raise.
    """
    if n not in (0, 1, 2):
        raise ValueError(f"number detection supports n in {{0, 1, 2}}, got {n}")
    _require_physical(v)
    state_u = _number_state(v, n)
    mass = state_u.total_integral()
    low = _first_failing(mass, mass < PROBABILITY_FLOOR)
    if low is not None:
        raise ImpossibleOutcomeError(
            f"outcome n={n} has zero probability on this state (P={low:g})"
        )
    return ConditionResult(state=state_u.scaled(1.0 / mass), probability=mass)


def vacuum_projection(v: CovarianceMatrix4) -> ConditionResult:
    """No-click conditioning: projection of the trigger mode on vacuum."""
    return condition_on_number(v, 0)


def condition_on_on(v: CovarianceMatrix4) -> ConditionResult:
    """The "on" outcome of an on/off detector: vacuum component removed.

    Built from the mixture identity
    marginal = P0 * state_0 + (1 - P0) * state_on, so the result is a
    difference of two Gaussians.  The probability
    ``1 - P0 = 1 - det(I + N11)^(-1/2)`` goes through ``log1p`` and
    ``expm1``, so it keeps its digits however weak the trigger.
    """
    _require_physical(v)
    n11 = v.n[..., :2, :2]
    p_on = per_member(-np.expm1(-0.5 * np.log1p(np.trace(n11, axis1=-2, axis2=-1) + det2(n11))))
    if any_member(p_on < PROBABILITY_FLOOR):
        raise ImpossibleOutcomeError(
            "trigger mode is exact vacuum; the on outcome never fires"
        )
    v22 = v.trigger_given_output[0]
    marginal = gaussian_state(np.ones((1, 1)), v22, det2(v22.sigma))
    vacuum = _number_state(v, 0)
    terms = marginal.scaled(1.0 / p_on).terms + vacuum.scaled(-1.0 / p_on).terms
    return ConditionResult(state=GaussPolyState(terms=terms), probability=p_on)


def _click(v: CovarianceMatrix4) -> ConditionResult:
    """:func:`condition_on_click` without its physicality check."""
    occupation = per_member(0.5 * np.trace(v.n[..., :2, :2], axis1=-2, axis2=-1))
    low = _first_failing(occupation, occupation < PROBABILITY_FLOOR)
    if low is not None:
        raise ImpossibleOutcomeError(
            f"trigger mode occupation is zero (<a+a> = {low:g}); "
            "no photon available to subtract"
        )
    v22, g, e = v.trigger_given_output
    state = gaussian_state(_occupation_expectation(1, 2.0 * g, e), v22, det2(v22.sigma))
    return ConditionResult(state=state.scaled(1.0 / occupation), probability=occupation)


def condition_on_click(v: CovarianceMatrix4) -> ConditionResult:
    """Click-detector back-action rho -> a1 rho a1+ / <a1+ a1>.

    The trigger weight is the occupation ``|z|^2/2``, and the normalisation
    is the trigger occupation ``tr(N11)/2``.  The equivalent differential
    form is available as :func:`click_wigner_direct` for cross-checks.
    """
    _require_physical(v)
    return _click(v)


def click_integrand_direct(v: CovarianceMatrix4, y: np.ndarray) -> np.ndarray:
    """Differential-operator form of the click back-action on a single covariance.

    Evaluates
    ``[ (x1^2+p1^2)/2 + 1/2 + (x1 d/dx1 + p1 d/dp1)/2 + (d^2/dx1^2 + d^2/dp1^2)/8 ] W_V``
    at phase-space points ``y`` of shape (..., 4), using the closed-form
    derivatives of the Gaussian.
    """
    m = np.linalg.inv(v.m)
    det = float(np.linalg.det(v.m))
    my = np.einsum("ij,...j->...i", m, y)
    w = np.exp(-np.einsum("...i,...i", y, my)) / (np.pi**2 * np.sqrt(det))
    x1 = y[..., 0]
    p1 = y[..., 1]
    # first derivatives: dW/dy_i = -2 (M y)_i W; second: (4 (My)_i^2 - 2 M_ii) W
    drift = -(x1 * my[..., 0] + p1 * my[..., 1])
    laplace = (
        4.0 * my[..., 0] ** 2
        - 2.0 * m[0, 0]
        + 4.0 * my[..., 1] ** 2
        - 2.0 * m[1, 1]
    )
    return ((x1**2 + p1**2) / 2.0 + 0.5 + drift + laplace / 8.0) * w


def click_wigner_direct(
    v: CovarianceMatrix4,
    x2: float,
    p2: float,
    half_width: float | None = None,
    order: int = 80,
) -> float:
    """Unnormalised click-conditioned Wigner value by explicit trigger quadrature.

    Integrates the differential-operator form over the trigger phase plane
    on a Gauss-Legendre stencil; serves as the independent cross-check of
    the reduced moment form used by :func:`condition_on_click`.
    """
    if half_width is None:
        half_width = 7.0 * np.sqrt(max(v.m[0, 0], v.m[1, 1]) / 2.0)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = half_width * nodes
    wts = half_width * weights
    xx, pp = np.meshgrid(t, t, indexing="ij")
    y = np.stack(
        [xx, pp, np.full_like(xx, float(x2)), np.full_like(xx, float(p2))], axis=-1
    )
    vals = click_integrand_direct(v, y)
    return float(wts @ vals @ wts)
