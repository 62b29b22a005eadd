"""Closed-form algebra for Wigner functions of polynomial-times-Gaussian form.

The two-mode Gaussian Wigner function
``W_V(y) = exp(-y^T V^-1 y) / (pi^2 sqrt(det V))`` is reduced over the
trigger-mode phase plane against polynomial weights by Schur-complement
block decomposition; the result of every conditioning operation is a
(short sum of) polynomial-times-Gaussian single-mode states.  All
integrals here are exact Gaussian-moment reductions; no quadrature enters
the core path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceMatrix4
from .polynomials import (
    any_member,
    expected_poly_of_shifted_gaussian,
    gaussian_poly_integral,
    nonzero_entries,
    per_member,
    poly_eval,
)


@dataclass(frozen=True)
class TwoModeGaussianWigner:
    """Zero-mean two-mode Gaussian Wigner function with covariance ``v``.

    ``v`` may be a family of covariances, which :func:`integrate_out_trigger`
    reduces member by member in one pass.
    """

    v: CovarianceMatrix4

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Value at phase-space points of a single covariance; ``y`` has shape (..., 4)."""
        m = np.linalg.inv(self.v.m)
        det = np.linalg.det(self.v.m)
        expo = -np.einsum("...i,ij,...j", y, m, y)
        return np.exp(expo) / (np.pi**2 * np.sqrt(det))


@dataclass(frozen=True, eq=False)
class PolyGaussTerm:
    """One component poly(x, p) * exp(-(x,p) sigma^-1 (x,p)^T).

    Stacks ``coeffs`` (K, i, j) and ``sigma`` (K, 2, 2) hold one component
    per family member.
    """

    coeffs: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class GaussPolyState:
    """Single-mode Wigner function as a sum of polynomial-times-Gaussian terms.

    Conditioning on a photon-number or click outcome yields a single
    term; on/off conditioning yields a difference of two Gaussians, hence
    the short sum.  Normalised states integrate to one, checked and
    enforced analytically through Gaussian-moment reduction.

    The state of a conditioned family holds stacked terms: it is K states
    at once, and :meth:`at_origin`, :meth:`total_integral` and
    :meth:`scaled` work per member (a float for a single state, an array
    of K values for a family).  :meth:`evaluate` takes a single state and
    raises ``ValueError`` on a family.
    """

    terms: tuple[PolyGaussTerm, ...]

    def evaluate(self, x, p):
        """Wigner value at (x, p); broadcasts over array arguments."""
        family = max(a.shape[:-2] for t in self.terms for a in (t.coeffs, t.sigma))
        if family:
            raise ValueError(
                f"evaluate takes a single state, not a family of {int(np.prod(family))} members"
            )
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        out = np.zeros(np.broadcast(x, p).shape)
        for t in self.terms:
            si = np.linalg.inv(t.sigma)
            expo = -(si[0, 0] * x * x + 2.0 * si[0, 1] * x * p + si[1, 1] * p * p)
            out = out + poly_eval(t.coeffs, x, p) * np.exp(expo)
        return out

    def at_origin(self) -> float | np.ndarray:
        """Exact value at the phase-space origin (constant coefficients)."""
        return per_member(sum(t.coeffs[..., 0, 0] for t in self.terms))

    def total_integral(self) -> float | np.ndarray:
        """Exact integral over the plane via Gaussian-moment reduction."""
        return per_member(
            sum(gaussian_poly_integral(t.coeffs, t.sigma) for t in self.terms)
        )

    def scaled(self, factor) -> "GaussPolyState":
        """Every term times ``factor``: a number, or one per family member."""
        factor = np.asarray(factor)[..., None, None]
        return GaussPolyState(
            terms=tuple(
                PolyGaussTerm(coeffs=t.coeffs * factor, sigma=t.sigma)
                for t in self.terms
            )
        )


def fock_wigner_poly(n: int) -> np.ndarray:
    """Polynomial part of the Fock-state Wigner function W_n = poly * exp(-x^2-p^2).

    Supported for n in {0, 1, 2}; higher projections are a documented
    extension point and rejected.
    """
    if n == 0:
        return np.array([[1.0 / np.pi]])
    if n == 1:
        c = np.zeros((3, 3))
        c[0, 0] = -1.0 / np.pi
        c[2, 0] = 2.0 / np.pi
        c[0, 2] = 2.0 / np.pi
        return c
    if n == 2:
        c = np.zeros((5, 5))
        c[0, 0] = 1.0 / np.pi
        c[2, 0] = -4.0 / np.pi
        c[0, 2] = -4.0 / np.pi
        c[4, 0] = 2.0 / np.pi
        c[2, 2] = 4.0 / np.pi
        c[0, 4] = 2.0 / np.pi
        return c
    raise ValueError(f"Fock index n={n} unsupported; analytic set is n in {{0, 1, 2}}")


def fock_state(n: int) -> GaussPolyState:
    """The Fock-state Wigner function as a normalised one-term state."""
    return GaussPolyState(
        terms=(PolyGaussTerm(coeffs=fock_wigner_poly(n), sigma=np.eye(2)),)
    )


def _integrate_out(m4: np.ndarray, det_v, weight: np.ndarray):
    """Reduce exp(-y^T M y)/(pi^2 sqrt(det V)) over (x1, p1) against a weight.

    ``m4`` is the full 4x4 exponent matrix (inverse of the Gaussian core),
    ``det_v`` the determinant of that core.  Returns the unnormalised
    one-term output state and its total integral.  Stacks of ``m4``,
    ``det_v`` and ``weight`` reduce member by member.
    """
    g = m4[..., :2, :2]
    det_g = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if any_member(det_g <= 0.0):
        raise np.linalg.LinAlgError("singular trigger block in partial integration")
    gi = np.linalg.inv(g)
    cross = m4[..., :2, 2:]
    # conditional mean of (x1, p1) is lin @ (x2, p2); conditional covariance gi/2
    lin = -gi @ cross
    schur = m4[..., 2:, 2:] - cross.swapaxes(-1, -2) @ gi @ cross
    sigma_out = np.linalg.inv(schur)
    prefactor = 1.0 / (np.pi * np.sqrt(det_g * det_v))
    out_poly = expected_poly_of_shifted_gaussian(weight, lin, gi / 2.0)
    term = PolyGaussTerm(coeffs=out_poly * prefactor[..., None, None], sigma=sigma_out)
    state = GaussPolyState(terms=(term,))
    return state, state.total_integral()


def integrate_out_trigger(w: TwoModeGaussianWigner, weight: np.ndarray):
    """Integrate weight(x1, p1) * W_V over the trigger phase plane, exactly.

    ``weight`` is a dense polynomial coefficient table of total degree at
    most four.  Returns the unnormalised output state (a polynomial in
    (x2, p2) times the Gaussian with the Schur-complement core) and the
    mass, i.e. the integral of the result over (x2, p2): a float, or one
    per member of a family of covariances.
    """
    if any(i + j > 4 for i, j in nonzero_entries(weight)):
        raise ValueError("weight polynomial total degree must be at most four")
    v = w.v.m
    return _integrate_out(np.linalg.inv(v), np.linalg.det(v), weight)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid; symmetric odd-count axes hit the origin exactly."""

    xmin: float = -5.0
    xmax: float = 5.0
    pmin: float = -5.0
    pmax: float = 5.0
    nx: int = 201
    np_: int = 201

    def __post_init__(self):
        if self.nx < 2 or self.np_ < 2:
            raise ValueError("grid needs at least 2 points per axis")
        for lo, hi in ((self.xmin, self.xmax), (self.pmin, self.pmax)):
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValueError(f"bad grid range ({lo}, {hi})")

    def x_axis(self) -> np.ndarray:
        return _axis(self.xmin, self.xmax, self.nx)

    def p_axis(self) -> np.ndarray:
        return _axis(self.pmin, self.pmax, self.np_)


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    if n % 2 == 1 and lo == -hi:
        # build around the exact midpoint so the origin is hit exactly
        step = (hi - lo) / (n - 1)
        return (np.arange(n) - (n - 1) // 2) * step
    return np.linspace(lo, hi, n)


def evaluate_grid(s: GaussPolyState, grid: GridSpec):
    """Dense table of W values; returns (x_axis, p_axis, w[p_index, x_index])."""
    xs = grid.x_axis()
    ps = grid.p_axis()
    w = s.evaluate(xs[None, :], ps[:, None])
    return xs, ps, w


def write_grid_csv(path, xs: np.ndarray, ps: np.ndarray, w: np.ndarray) -> None:
    """Serialise a grid as CSV with header x,p,w; rows sweep x inside p.

    Every number is :func:`fmt9` text, so ``-0.0`` prints as ``0``.
    """
    write_table_csv(path, "x,p,w", "{col},{row}", ps, xs, w)


def write_table_csv(path, header: str, line: str, rows, cols, table) -> None:
    """Write ``table[k, j]`` as one CSV line per cell, row by row, in :func:`fmt9` text.

    ``line`` places the labels: ``"{col},{row}"`` or ``"{row},{col}"``,
    followed by the value.  Text is reused only where floats are exactly
    equal: a row equal to its own reverse formats its first half and
    mirrors it, and a row equal to row ``m - 1 - k`` keeps its finished
    text until that row is written under its own label.
    """
    n, m = len(cols), len(rows)
    half = (n + 1) // 2
    # one template per row, the column text baked in; fmt9 text holds no "%" or "{"
    cells = [line.format(col=fmt9(c), row="{row}") for c in cols]
    body_g = "".join(c + ",%.9g\n" for c in cells)
    body_s = "".join(c + ",%s\n" for c in cells)
    head_g = "%.9g\n" * half
    kept = {}  # row index -> text of an earlier row equal to it, label left open
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for k in range(m):
            text = kept.pop(k, None)
            if text is None:
                row = table[k] + 0.0  # + 0.0 turns -0.0 into 0.0
                if np.array_equal(row, row[::-1]):
                    head = (head_g % tuple(row[:half].tolist())).split("\n")[:half]
                    text = body_s % tuple(head + head[: n - half][::-1])
                else:
                    text = body_g % tuple(row.tolist())
                if k < m - 1 - k and np.array_equal(table[k], table[m - 1 - k]):
                    kept[m - 1 - k] = text
            fh.write(text.replace("{row}", fmt9(rows[k])))


def fmt9(v: float) -> str:
    """``v`` at 9 significant digits, as the summary, scan and grid files write it."""
    return f"{float(v) + 0.0:.9g}"  # + 0.0 turns -0.0 into 0.0
