"""Two-mode covariance matrices: assembly, loss channels, physicality.

Quadrature ordering is ``(x1, p1, x2, p2)`` throughout, with the
convention ``V_ij = <y_i y_j + y_j y_i>`` so that vacuum is the identity
matrix.  Mode 1 is the trigger, mode 2 the output.  The program holds
``N = (V - I)/2``, which keeps a weak trigger's digits that ``V`` rounds away.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .polynomials import GaussianCore, any_member, det2, inv2, per_member

if TYPE_CHECKING:  # pragma: no cover
    from .modes import SecondMoments

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = -1e-9
# det V multiplies four diagonal entries of V, each about an added noise xi;
# below half the fourth root of the largest float their product stays finite
MAX_ADDED_NOISE = sys.float_info.max**0.25 / 2.0
# first line of a covariance file that holds N rather than V
EXCESS_HEADER = "# excess covariance N = (V - I)/2"

# Symplectic form for (x1, p1, x2, p2).
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True, eq=False, init=False)
class CovarianceMatrix4:
    """4x4 covariance of (x1, p1, x2, p2), held as its excess ``n = (V - I)/2``.

    ``CovarianceMatrix4(v)`` takes ``V``, :meth:`from_excess` takes ``n``,
    and ``m`` is ``V = I + 2n``.  ``n`` of shape (K, 4, 4) is a family of K.
    A family goes through :func:`assemble`, :func:`apply_loss`,
    :func:`physicality_check` and the conditioners as a whole, and gives
    one result per member, equal to that member's result alone.

    ``n`` is a read-only copy of the input, so its Gaussian reductions,
    :attr:`margin`, :attr:`trigger_given_output` and :attr:`number_core`,
    are computed at most once, when first read, and shared by every
    conditioner and by :func:`physicality_check` on this covariance.
    """

    n: np.ndarray

    def __init__(self, m):
        object.__setattr__(self, "n", _read_only(0.5 * (_symmetric(m) - np.eye(4))))

    @classmethod
    def from_excess(cls, n) -> "CovarianceMatrix4":
        cov = object.__new__(cls)
        object.__setattr__(cov, "n", _read_only(_symmetric(n)))
        return cov

    @property
    def m(self) -> np.ndarray:
        return np.eye(4) + 2.0 * self.n

    @cached_property
    def margin(self) -> tuple:
        """Least eigenvalue of ``V + i*Omega``, ``det V`` and physicality, read-only, per member."""
        m = self.m
        min_eig = np.linalg.eigvalsh(m + 1j * OMEGA).min(axis=-1)
        det = np.linalg.det(m)
        return tuple(map(_read_only, (min_eig, det, (min_eig >= PHYSICALITY_TOL) & (det > 0))))

    @cached_property
    def trigger_given_output(self) -> tuple:
        """The core of ``V22``, ``G = N12 V22^-1`` and ``E = N11 - 2 G N12^T``.

        The output's marginal is the Gaussian of ``V22``; given its quadratures
        ``y2``, the trigger's are Gaussian with mean ``2 G y2`` and excess ``E``.
        ``V22^-1`` is the core's ``sigma_inv``.
        """
        n = self.n
        n12 = n[..., :2, 2:]
        v22 = GaussianCore(np.eye(2) + 2.0 * n[..., 2:, 2:])
        g = n12 @ v22.sigma_inv
        return v22, g, n[..., :2, :2] - 2.0 * g @ n12.swapaxes(-1, -2)

    @cached_property
    def number_core(self) -> tuple:
        """The n-independent part of the photon-number-conditioned output.

        With ``K = I + E``, ``exp(-|z|^2/2)`` turns ``N(mu, E)`` into
        ``N(K^-1 mu, E K^-1)`` times ``exp(-mu^T K^-1 mu / 2) / sqrt(det K)``.
        Returns the mean's linear map ``2 K^-1 G``, the covariance ``E K^-1``,
        the core of ``sigma = (V22^-1 + 2 G^T K^-1 G)^-1`` and ``det V22 det K``.
        """
        v22, g, e = self.trigger_given_output
        k = np.eye(2) + e
        k_inv = inv2(k)
        kg = k_inv @ g
        sigma = inv2(v22.sigma_inv + 2.0 * g.swapaxes(-1, -2) @ kg)
        return 2.0 * kg, e @ k_inv, GaussianCore(sigma), det2(v22.sigma) * det2(k)


def _read_only(value):
    """``value``, made read-only if it is an array; a numpy scalar already is."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def _symmetric(m) -> np.ndarray:
    """``m`` as a float 4x4 (or stack), checked finite and symmetric, then symmetrised."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4) or m.ndim > 3:
        raise ValueError(f"covariance must be 4x4, or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("covariance contains non-finite entries")
    mt = m.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if any_member(np.abs(m - mt).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise ValueError("covariance is not symmetric")
    return 0.5 * (m + mt)


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
            if not v < MAX_ADDED_NOISE:
                raise ValueError(
                    f"{name} = {v:g} is too large: det V multiplies four such entries, "
                    f"so it must be below {MAX_ADDED_NOISE:.4g}"
                )


@dataclass(frozen=True, eq=False)
class PhysicalityReport:
    """Diagnostics of a covariance matrix; arrays of one value per member for a family."""

    min_eigenvalue: float
    purity: float
    physical: bool


def assemble(m: "SecondMoments") -> CovarianceMatrix4:
    """Assemble the covariance from the source-part second moments.

    With real symmetric moment matrices ``A_ij = <a_i a_j>`` and
    ``B_ij = <a_i+ a_j>``, the excess quadrature blocks are
    ``N_xx = A + B``, ``N_pp = B - A`` and the x-p cross blocks vanish.
    The vacuum fill needed to complete each mode to unit norm contributes
    nothing to ``N``.  Stacked moments (K, 2, 2), as
    :func:`~cwherald.modes.second_moments` gives for a family of output
    modes, assemble to a family of K covariances.
    """
    a = np.asarray(m.a, dtype=float)
    b = np.asarray(m.b, dtype=float)
    n = np.zeros(a.shape[:-2] + (4, 4))
    # interleave x/p ordering: (x1, p1, x2, p2)
    n[..., 0::2, 0::2] = a + b
    n[..., 1::2, 1::2] = b - a
    return CovarianceMatrix4.from_excess(n)


def apply_loss(v: CovarianceMatrix4, p: LossParams) -> CovarianceMatrix4:
    """Apply the loss/noise channel ``N -> L N L + xi/2``.

    ``L = diag(sqrt(1-eta1), sqrt(1-eta1), sqrt(1-eta2), sqrt(1-eta2))``
    and ``xi = diag(xi1, xi1, xi2, xi2)``; on ``V = I + 2N`` this is
    ``V -> L V L + I - L^2 + xi``.  Vacuum is a fixed point exactly for
    xi = 0.  A family takes the same channel on every member.
    """
    g = np.array([1.0 - p.eta1, 1.0 - p.eta1, 1.0 - p.eta2, 1.0 - p.eta2])
    damp = np.sqrt(np.outer(g, g))
    np.fill_diagonal(damp, g)
    xi = np.diag([p.xi1, p.xi1, p.xi2, p.xi2])
    return CovarianceMatrix4.from_excess(damp * v.n + 0.5 * xi)


def physicality_check(v: CovarianceMatrix4) -> PhysicalityReport:
    """Diagnose a covariance matrix; never raises.

    Reports the minimal eigenvalue of the Hermitian matrix ``V + i*Omega``
    (physical states have it >= 0 up to tolerance) and the purity
    ``1/sqrt(det V)``.  For a family each field holds one value per member.
    """
    min_eig, det, physical = v.margin
    # the square root sees only positive determinants, so none warns
    purity = np.where(det > 0, 1.0 / np.sqrt(np.where(det > 0, det, 1.0)), np.inf)
    return PhysicalityReport(
        min_eigenvalue=per_member(min_eig),
        purity=per_member(purity),
        physical=per_member(physical),
    )


def save_covariance(path, v: CovarianceMatrix4) -> None:
    """Write a single covariance as :data:`EXCESS_HEADER` and ``N`` in 4 lines, 17 digits."""
    lines = [EXCESS_HEADER] + [" ".join(f"{x:.17g}" for x in row) for row in v.n]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_covariance(path) -> CovarianceMatrix4:
    """Read 4 lines of 4 floats: ``N`` after :data:`EXCESS_HEADER`, as
    :func:`save_covariance` writes it, and otherwise ``V``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    excess = lines[:1] == [EXCESS_HEADER]
    rows = lines[1:] if excess else lines
    m = np.array([[float(tok) for tok in line.split()] for line in rows], dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 covariance in {path}, got shape {m.shape}")
    # det V multiplies four entries of V = I + 2N; non-finite ones are reported as such
    name, bound = ("N", MAX_ADDED_NOISE / 2.0) if excess else ("V", MAX_ADDED_NOISE)
    if np.isfinite(m).all() and not np.abs(m).max() < bound:
        raise ValueError(
            f"covariance in {path} has an entry of {np.abs(m).max():g}: det V multiplies "
            f"four entries of V, so those of {name} must be below {bound:.4g}"
        )
    return CovarianceMatrix4.from_excess(m) if excess else CovarianceMatrix4(m)
