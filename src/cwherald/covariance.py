"""Two-mode covariance matrices: assembly, loss channels, physicality.

Quadrature ordering is ``(x1, p1, x2, p2)`` throughout, with the
convention ``V_ij = <y_i y_j + y_j y_i>`` so that vacuum is the identity
matrix.  Mode 1 is the trigger, mode 2 the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .polynomials import any_member, per_member

if TYPE_CHECKING:  # pragma: no cover
    from .modes import SecondMoments

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = -1e-9

# Symplectic form for (x1, p1, x2, p2).
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix4:
    """4x4 real symmetric covariance of (x1, p1, x2, p2), vacuum = identity.

    ``m`` of shape (K, 4, 4) is a family of K covariances.  A family goes
    through :func:`assemble`, :func:`apply_loss`, :func:`physicality_check`
    and the conditioners as a whole, and gives one result per member, equal
    to that member's result alone.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape[-2:] != (4, 4) or m.ndim > 3:
            raise ValueError(f"covariance must be 4x4, or a stack of them, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("covariance contains non-finite entries")
        mt = m.swapaxes(-1, -2)
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        if any_member(np.abs(m - mt).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
            raise ValueError("covariance is not symmetric")
        object.__setattr__(self, "m", 0.5 * (m + mt))

    def trigger_occupation(self):
        """Mean photon number of the trigger mode, (V11 + V22 - 2)/4, per member."""
        return (self.m[..., 0, 0] + self.m[..., 1, 1] - 2.0) / 4.0


@dataclass(frozen=True)
class LossParams:
    """Transmission losses and added noise for the trigger/output modes."""

    eta1: float = 0.0
    eta2: float = 0.0
    xi1: float = 0.0
    xi2: float = 0.0

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("xi1", "xi2"):
            v = getattr(self, name)
            if v < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {v}")


@dataclass(frozen=True, eq=False)
class PhysicalityReport:
    """Diagnostics of a covariance matrix; arrays of one value per member for a family."""

    min_eigenvalue: float
    symplectic_eigenvalues: tuple[float, float]
    purity: float
    physical: bool


def assemble(m: "SecondMoments") -> CovarianceMatrix4:
    """Assemble the covariance matrix from the source-part second moments.

    With real symmetric moment matrices ``A_ij = <a_i a_j>`` and
    ``B_ij = <a_i+ a_j>``, the quadrature blocks are
    ``V_xx = I + 2(A + B)``, ``V_pp = I + 2(B - A)`` and the x-p cross
    blocks vanish.  The vacuum fill needed to complete each mode to unit
    norm contributes exactly the identity.  Stacked moments (K, 2, 2), as
    :func:`~cwherald.modes.second_moments` gives for a family of output
    modes, assemble to a family of K covariances.
    """
    a = np.asarray(m.a, dtype=float)
    b = np.asarray(m.b, dtype=float)
    v = np.zeros(a.shape[:-2] + (4, 4))
    # interleave x/p ordering: (x1, p1, x2, p2)
    v[..., 0::2, 0::2] = np.eye(2) + 2.0 * (a + b)
    v[..., 1::2, 1::2] = np.eye(2) + 2.0 * (b - a)
    return CovarianceMatrix4(v)


def apply_loss(v: CovarianceMatrix4, p: LossParams) -> CovarianceMatrix4:
    """Apply the loss/noise channel V -> L V L + N.

    ``L = diag(sqrt(1-eta1), sqrt(1-eta1), sqrt(1-eta2), sqrt(1-eta2))``
    and ``N = diag(eta1+xi1, eta1+xi1, eta2+xi2, eta2+xi2)``.  Evaluated in
    the equivalent form ``L (V - I) L + I + diag(xi)`` so that vacuum is a
    fixed point exactly, not just to rounding, for xi = 0.  A family takes
    the same channel on every member.
    """
    g = np.array([1.0 - p.eta1, 1.0 - p.eta1, 1.0 - p.eta2, 1.0 - p.eta2])
    damp = np.sqrt(np.outer(g, g))
    np.fill_diagonal(damp, g)
    xi = np.diag([p.xi1, p.xi1, p.xi2, p.xi2])
    return CovarianceMatrix4(damp * (v.m - np.eye(4)) + np.eye(4) + xi)


def physicality_check(v: CovarianceMatrix4) -> PhysicalityReport:
    """Diagnose a covariance matrix; never raises.

    Reports the minimal eigenvalue of the Hermitian matrix ``V + i*Omega``
    (physical states have it >= 0 up to tolerance), the symplectic
    eigenvalues (both >= 1 for physical states) and the purity
    ``1/sqrt(det V)``.  For a family each field holds one value per member.
    """
    m = v.m
    min_eig = np.linalg.eigvalsh(m + 1j * OMEGA).min(axis=-1)
    # symplectic spectrum: |eigenvalues of i Omega V| in pairs
    sympl = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ m)), axis=-1)
    det = np.linalg.det(m)
    positive = det > 0
    # the square root sees only positive determinants, so none warns
    purity = np.where(positive, 1.0 / np.sqrt(np.where(positive, det, 1.0)), np.inf)
    return PhysicalityReport(
        min_eigenvalue=per_member(min_eig),
        symplectic_eigenvalues=(per_member(sympl[..., 0]), per_member(sympl[..., 2])),
        purity=per_member(purity),
        physical=per_member((min_eig >= PHYSICALITY_TOL) & positive),
    )


def save_covariance(path, v: CovarianceMatrix4) -> None:
    """Write a single covariance as 4 lines of 4 floats, 17 significant digits."""
    lines = []
    for row in v.m:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_covariance(path) -> CovarianceMatrix4:
    """Read a covariance written by :func:`save_covariance`."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split()])
    m = np.array(rows, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 covariance in {path}, got shape {m.shape}")
    return CovarianceMatrix4(m)
