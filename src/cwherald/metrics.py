"""Scalar diagnostics of conditioned single-mode states."""

from __future__ import annotations

import numpy as np

from .wigner import GaussPolyState, GridSpec, evaluate_grid, fock_state


def wigner_at_origin(s: GaussPolyState):
    """Exact Wigner value at the origin; never grid-sampled.  One per member of a family."""
    return s.at_origin()


def _overlap(s: GaussPolyState, r: GaussPolyState):
    """Tr(rho sigma) = 2*pi*Int(W_s W_r), summed over pairs of terms.

    Each pair is a bilinear form on the product of their cores
    (:meth:`~cwherald.polynomials.GaussianCore.overlap`), with ``r``'s
    table contracted against the moments.  A Fock state's tables are
    read-only, so each product core contracts them once and keeps them for
    every later fidelity.
    """
    acc = 0.0
    for a in s.terms:
        for b in r.terms:
            acc += a.core.times(b.core).overlap(a.coeffs, b.coeffs)
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


def negativity_volume(s: GaussPolyState, grid: GridSpec) -> float:
    """Integral of max(0, -W) over the grid, by Riemann sum at the grid step.

    The values are the state's kept :func:`~cwherald.wigner.evaluate_grid`
    table, so the grid is evaluated once for this and any later caller.
    """
    xs, ps, w = evaluate_grid(s, grid)
    return float(np.sum(np.clip(-w, 0.0, None)) * (xs[1] - xs[0]) * (ps[1] - ps[0]))
