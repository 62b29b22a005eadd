"""Click-conditioned second-order coherence of the source field.

``G(t, t') = <a+(tc) a+(t) a(t') a(tc)>`` describes the field correlations
conditioned on a click at time tc.  For the zero-mean Gaussian source it
reduces by the Wick expansion to products of the two-time kernels.  At low
flux G factors into u(t) u(t'), exposing the dominant temporal mode of the
heralded photon; the factorisation degrades as the flux grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sources import CorrelationKernel
from .wigner import write_table_csv


@dataclass(frozen=True)
class CoherenceKernel:
    """Sampled conditioned coherence G(t_i, t_j) on a time grid around tc."""

    grid: np.ndarray
    g: np.ndarray
    t_c: float

    def __post_init__(self):
        if self.g.shape != (len(self.grid), len(self.grid)):
            raise ValueError("coherence matrix shape does not match the grid")


def conditional_coherence(
    k: CorrelationKernel,
    t_c: float = 0.0,
    half_width: float = 10.0,
    points: int = 201,
) -> CoherenceKernel:
    """Conditioned coherence from the Gaussian fourth-moment (Wick) expansion.

    ``G(t, t') = c_aa(t - tc) c_aa(t' - tc) + c_ada(t - tc) c_ada(t' - tc)
    + c_ada(0) c_ada(t - t')`` for the real stationary kernels.
    """
    if points < 3:
        raise ValueError("coherence grid needs at least 3 points")
    if not half_width > 0.0:
        raise ValueError(f"coherence half-width must be positive, got {half_width}")
    ts = t_c + np.linspace(-half_width, half_width, points)
    rel = ts - t_c
    aa = k.c_aa(rel)
    ada = k.c_ada(rel)
    g = (
        np.outer(aa, aa)
        + np.outer(ada, ada)
        + float(k.c_ada(0.0)) * k.c_ada(rel[:, None] - rel[None, :])
    )
    return CoherenceKernel(grid=ts, g=g, t_c=t_c)


@dataclass(frozen=True)
class DominantMode:
    """Leading temporal mode of the coherence kernel and its weight share."""

    times: np.ndarray
    samples: np.ndarray
    dominance: float


def dominant_mode(ck: CoherenceKernel) -> DominantMode:
    """Leading eigenvector of G, unit L2 norm on the grid, sign-fixed at tc.

    The dominance ratio is the leading eigenvalue over the trace; a value
    near one signals that the conditioned field occupies one temporal mode.
    """
    evals, evecs = np.linalg.eigh(ck.g)
    trace = float(np.sum(evals))
    if trace <= 0.0:
        raise ValueError("coherence kernel is zero; no dominant mode")
    u = evecs[:, -1]
    dt = float(ck.grid[1] - ck.grid[0])
    u = u / np.sqrt(np.sum(u**2) * dt)
    centre = int(np.argmin(np.abs(ck.grid - ck.t_c)))
    if u[centre] < 0.0:
        u = -u
    return DominantMode(
        times=ck.grid.copy(), samples=u, dominance=float(evals[-1] / trace)
    )


def fit_exponential_decay(mode: DominantMode, t_c: float) -> float:
    """Least-squares decay rate of A exp(-alpha |t - tc|) fitted to the mode.

    The amplitude is linear, so it is profiled out: for each alpha the best
    A is the projection of the samples on e = exp(-alpha |t - tc|), and the
    residual left is minimised over alpha alone by Gauss-Newton (variable
    projection) from alpha = 0.5.  Each step is halved until it lowers the
    residual; the fit stops when a full step moves alpha by at most 1e-10
    relative, or when no fraction of it lowers the residual any more.
    """
    rel = np.abs(mode.times - t_c)
    y = mode.samples
    if not (np.isfinite(rel).all() and np.isfinite(y).all()):
        raise ValueError("mode times and samples must be finite to fit a decay")

    def profile(alpha):
        e = np.exp(-alpha * rel)
        amp = (e @ y) / (e @ e)
        return e, amp, y - amp * e

    alpha = 0.5
    e, amp, res = profile(alpha)
    for _ in range(100):
        slope = -amp * rel * e
        jac = slope - e * ((e @ slope) / (e @ e))
        step = (jac @ res) / (jac @ jac)
        if abs(step) <= 1e-10 * abs(alpha):
            return float(alpha + step)
        for _ in range(40):
            trial = profile(alpha + step)
            if trial[2] @ trial[2] < res @ res:
                break
            step /= 2.0
        else:
            return float(alpha)
        alpha += step
        e, amp, res = trial
    raise RuntimeError("decay fit did not converge in 100 Gauss-Newton steps")


def write_coherence_csv(path, ck: CoherenceKernel) -> None:
    """Serialise the coherence kernel as CSV rows t,tp,g; tp sweeps inside t.

    Every number is :func:`~cwherald.wigner.fmt9` text, as in the grid
    file, so ``-0.0`` prints as ``0``.
    """
    write_table_csv(path, "t,tp,g", "{row},{col}", ck.grid, ck.grid, ck.g)


def write_mode_csv(path, mode: DominantMode) -> None:
    """Serialise the dominant mode as CSV rows t,u."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,u\n")
        for t, u in zip(mode.times, mode.samples):
            fh.write(f"{t:.9g},{u:.9g}\n")
