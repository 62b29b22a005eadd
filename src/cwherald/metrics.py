"""Scalar diagnostics of conditioned single-mode states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import gaussian_poly_integral, poly_mul
from .wigner import GaussPolyState, GridSpec, evaluate_grid, fock_wigner_poly


def wigner_at_origin(s: GaussPolyState):
    """Exact Wigner value at the origin; never grid-sampled.  One per member of a family."""
    return s.at_origin()


def fock_fidelity(s: GaussPolyState, n: int):
    """Overlap with the n-photon Fock state, 2*pi*Int(W_s W_n), by Gaussian-moment reduction.

    Each term integrates against the Fock-moment table of its core
    (:meth:`~cwherald.polynomials.GaussianCore.fock_moments`), which n = 0,
    1 and 2 and every term on that core share.  A family's state gives one
    overlap per member.
    """
    fock = fock_wigner_poly(n)
    acc = 0.0
    for t in s.terms:
        c = poly_mul(t.coeffs, fock)
        scale, mom = t.core.fock_moments(max(c.shape[-2:]) - 1)
        acc += scale * (c * mom[..., : c.shape[-2], : c.shape[-1]]).sum(axis=(-2, -1))
    return 2.0 * np.pi * acc


def purity(s: GaussPolyState) -> float:
    """Tr rho^2 of the single-mode state, 2*pi*Int(W^2)."""
    acc = 0.0
    for ta in s.terms:
        for tb in s.terms:
            merged = np.linalg.inv(ta.core.sigma_inv + tb.core.sigma_inv)
            acc += gaussian_poly_integral(poly_mul(ta.coeffs, tb.coeffs), merged)
    return 2.0 * np.pi * acc


# each summary scalar of a ConditionResult in summary order; metrics are looked up per call
SCALARS = {
    "probability": lambda r: r.probability,
    "wigner_origin": lambda r: wigner_at_origin(r.state),
    "fidelity_fock0": lambda r: fock_fidelity(r.state, 0),
    "fidelity_fock1": lambda r: fock_fidelity(r.state, 1),
    "fidelity_fock2": lambda r: fock_fidelity(r.state, 2),
    "purity": lambda r: purity(r.state),
}


@dataclass(frozen=True)
class NegativityResult:
    """Integrated negative Wigner volume with the grid step it was taken on."""

    volume: float
    dx: float
    dp: float


def negativity_volume(s: GaussPolyState, grid: GridSpec) -> NegativityResult:
    """Integral of max(0, -W) over the grid, by Riemann sum at the grid step."""
    xs, ps, w = evaluate_grid(s, grid)
    dx = float(xs[1] - xs[0])
    dp = float(ps[1] - ps[0])
    vol = float(np.sum(np.clip(-w, 0.0, None)) * dx * dp)
    return NegativityResult(volume=vol, dx=dx, dp=dp)
