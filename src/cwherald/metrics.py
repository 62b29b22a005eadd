"""Scalar diagnostics of conditioned single-mode states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import poly_mul
from .wigner import GaussPolyState, GridSpec, evaluate_grid, fock_state


def wigner_at_origin(s: GaussPolyState):
    """Exact Wigner value at the origin; never grid-sampled.  One per member of a family."""
    return s.at_origin()


def _overlap(s: GaussPolyState, r: GaussPolyState):
    """Tr(rho sigma) = 2*pi*Int(W_s W_r), each pair of terms on the product of their cores."""
    acc = 0.0
    for a in s.terms:
        for b in r.terms:
            acc += a.core.times(b.core).integral(poly_mul(a.coeffs, b.coeffs))
    return 2.0 * np.pi * acc


def fock_fidelity(s: GaussPolyState, n: int):
    """Tr(rho |n><n|) for n = 0, 1, 2, one per member of a family."""
    return _overlap(s, fock_state(n))


def purity(s: GaussPolyState):
    """Tr rho^2 of the single-mode state, one per member of a family."""
    return _overlap(s, s)


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
    """Integral of max(0, -W) over the grid, by Riemann sum at the grid step.

    The values are the state's kept :func:`~cwherald.wigner.evaluate_grid`
    table, so the grid is evaluated once for this and any later caller.
    """
    xs, ps, w = evaluate_grid(s, grid)
    dx = float(xs[1] - xs[0])
    dp = float(ps[1] - ps[0])
    vol = float(np.sum(np.clip(-w, 0.0, None)) * dx * dp)
    return NegativityResult(volume=vol, dx=dx, dp=dp)
