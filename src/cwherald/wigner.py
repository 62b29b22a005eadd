"""Closed-form algebra for Wigner functions of polynomial-times-Gaussian form.

The two-mode Gaussian Wigner function
``W_V(y) = exp(-y^T V^-1 y) / (pi^2 sqrt(det V))`` is reduced over the
trigger-mode phase plane through the trigger's Gaussian given the output,
taken from ``N = (V - I)/2`` once per covariance as
:attr:`CovarianceMatrix4.trigger_given_output`; the result of every
conditioning operation is a (short sum of) polynomial-times-Gaussian
single-mode states.  All integrals here are exact Gaussian-moment
reductions; no quadrature enters the core path.

A term's Gaussian is a :class:`~cwherald.polynomials.GaussianCore`, which
computes its exactly symmetric inverse (:func:`~cwherald.polynomials.inv2`),
moment table and products with other cores once and holds ``sigma`` read-only.
A covariance's conditioners make terms on two cores that the covariance keeps,
the output marginal's ``V22`` and the photon-number core.  The Fock states of
:func:`fock_state` share the vacuum core and three literal Laguerre tables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import CovarianceMatrix4
from .polynomials import (
    GaussianCore,
    det2,
    expected_poly_of_shifted_gaussian,
    nonzero_entries,
    per_member,
    poly_eval,
)
from .text import write_table

# a cell raises an axis value to at most the fourth power in its polynomial and
# squares it in its exponent; below half the eighth root of the largest float,
# the fourth power stays below sqrt(largest float) / 16, which leaves a
# coefficient that much room, and the square leaves sigma^-1 more
MAX_GRID_END = sys.float_info.max**0.125 / 2.0


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
        expo = -np.einsum("...i,...i", y @ m, y)
        return np.exp(expo) / (np.pi**2 * np.sqrt(det))


@dataclass(frozen=True, eq=False)
class PolyGaussTerm:
    """One component poly(x, p) * exp(-(x,p) sigma^-1 (x,p)^T).

    Stacks ``coeffs`` (K, i, j) and a core of ``sigma`` (K, 2, 2) hold one
    component per family member.  A term is never mutated: scaling it
    makes a new term on the same :class:`~cwherald.polynomials.GaussianCore`,
    so every term on one core shares what the core computes.
    """

    coeffs: np.ndarray
    core: GaussianCore

    @property
    def sigma(self) -> np.ndarray:
        return self.core.sigma


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
        """Wigner value at (x, p); broadcasts over array arguments.

        Each term is formed in one buffer of the broadcast shape: the
        exponent ``-(a x^2 + 2b x p + c p^2)`` of ``sigma^-1 = [[a, b], [b, c]]``
        is summed as ``-2b x p``, then ``-a x^2``, then ``-c p^2``, so on a
        mesh the squares are taken on the axes.  Rounding is symmetric in
        sign, so every cell is the float of the negated sum
        ``-((a x^2 + 2b x p) + c p^2)``.
        """
        family = max(a.shape[:-2] for t in self.terms for a in (t.coeffs, t.sigma))
        if family:
            raise ValueError(
                f"evaluate takes a single state, not a family of {int(np.prod(family))} members"
            )
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        out = np.zeros(np.broadcast(x, p).shape)
        buf = np.empty_like(out)
        for t in self.terms:
            si = t.core.sigma_inv
            np.multiply(-2.0 * si[0, 1] * x, p, out=buf)
            buf += -si[0, 0] * x * x
            buf += -si[1, 1] * p * p
            np.exp(buf, out=buf)
            buf *= poly_eval(t.coeffs, x, p)
            out += buf
        return out[()]  # a number at a single point

    def at_origin(self) -> float | np.ndarray:
        """Exact value at the phase-space origin (constant coefficients)."""
        return per_member(sum(t.coeffs[..., 0, 0] for t in self.terms))

    def total_integral(self) -> float | np.ndarray:
        """Exact integral over the plane via Gaussian-moment reduction."""
        return per_member(sum(t.core.integral(t.coeffs) for t in self.terms))

    def scaled(self, factor) -> "GaussPolyState":
        """Every term times ``factor``: a number, or one per family member."""
        factor = np.asarray(factor)[..., None, None]
        return GaussPolyState(
            terms=tuple(
                PolyGaussTerm(coeffs=t.coeffs * factor, core=t.core)
                for t in self.terms
            )
        )


# W_n = (-1)^n L_n(2 r^2) exp(-r^2) / pi, r^2 = x^2 + p^2, from L_n(2 r^2) as tables of x^i p^j
_FOCK_POLYS = tuple(
    (-1) ** n * np.array(laguerre, dtype=float) / np.pi
    for n, laguerre in enumerate((
        [[1]],
        [[1, 0, -2], [0, 0, 0], [-2, 0, 0]],
        [[1, 0, -4, 0, 2], [0, 0, 0, 0, 0], [-4, 0, 4, 0, 0], [0, 0, 0, 0, 0], [2, 0, 0, 0, 0]],
    ))
)
for _table in _FOCK_POLYS:
    _table.flags.writeable = False  # shared by every Fock state
_VACUUM = GaussianCore(np.eye(2))  # exp(-x^2 - p^2)


def fock_state(n: int) -> GaussPolyState:
    """The Fock state ``W_n``, n in {0, 1, 2}, made afresh at each call so its grids go with it."""
    if n not in (0, 1, 2):
        raise ValueError(f"Fock index n={n} unsupported; analytic set is n in {{0, 1, 2}}")
    return GaussPolyState(terms=(PolyGaussTerm(coeffs=_FOCK_POLYS[n], core=_VACUUM),))


def gaussian_state(poly, core: GaussianCore, det_core) -> GaussPolyState:
    """``poly(y) exp(-y^T sigma^-1 y) / (pi sqrt(det_core))``: one term on ``core``."""
    coeffs = poly / (np.pi * np.sqrt(det_core))[..., None, None]
    return GaussPolyState(terms=(PolyGaussTerm(coeffs=coeffs, core=core),))


def integrate_out_trigger(w: TwoModeGaussianWigner, weight: np.ndarray):
    """Integrate weight(x1, p1) * W_V over the trigger phase plane, exactly.

    ``weight`` is a dense polynomial coefficient table of total degree at
    most four.  Returns the unnormalised output state (a polynomial in
    (x2, p2) times the Gaussian of ``V22``) and the mass, i.e. the integral
    of the result over (x2, p2): a float, or one per member of a family of
    covariances.
    """
    if any(i + j > 4 for i, j in nonzero_entries(weight)):
        raise ValueError("weight polynomial total degree must be at most four")
    v22, g, e = w.v.trigger_given_output
    poly = expected_poly_of_shifted_gaussian(weight, 2.0 * g, 0.5 * np.eye(2) + e)
    state = gaussian_state(poly, v22, det2(v22.sigma))
    return state, state.total_integral()


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid; symmetric odd-count axes hit the origin exactly.

    Its axes :attr:`xs` and :attr:`ps` and their exact-mirror test
    :attr:`mirrored` are computed once per spec, at first use, and kept on
    it; the axes are read-only, so every state gridded on one spec shares
    the same two arrays.
    """

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
            if not max(-lo, hi) < MAX_GRID_END:
                raise ValueError(
                    f"grid range ({lo:g}, {hi:g}) reaches past +-{MAX_GRID_END:.4g}: "
                    "a cell raises the axis values to the fourth power"
                )

    @cached_property
    def xs(self) -> np.ndarray:
        return _axis(self.xmin, self.xmax, self.nx)

    @cached_property
    def ps(self) -> np.ndarray:
        return _axis(self.pmin, self.pmax, self.np_)

    @cached_property
    def mirrored(self) -> bool:
        """Whether each axis is exactly its own negation reversed, ``v == -v[::-1]``."""
        return all(np.array_equal(v, -v[::-1]) for v in (self.xs, self.ps))


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    if n % 2 == 1 and lo == -hi:
        # build around the exact midpoint so the origin is hit exactly
        step = (hi - lo) / (n - 1)
        v = (np.arange(n) - (n - 1) // 2) * step
    else:
        v = np.linspace(lo, hi, n)
    v.flags.writeable = False
    return v


def evaluate_grid(s: GaussPolyState, grid: GridSpec):
    """Dense table of W values; returns (x_axis, p_axis, w[p_index, x_index]).

    Evaluated at most once per state and grid, kept on the state and
    returned read-only, so every caller of one state's grid shares it.  The
    axes are the spec's own (:attr:`GridSpec.xs`, :attr:`GridSpec.ps`).  The
    table holds exactly the floats of ``s.evaluate(xs[None, :], ps[:, None])``
    but evaluates only the block that the parity symmetry does not fix:
    see :func:`_evaluate_mesh`.  Each term's polynomial is two small matrix
    products on the axes (:func:`~cwherald.polynomials.poly_eval`), whose
    cells do not depend on the extent of the mesh, so a block holds the
    whole mesh's floats.
    """
    kept = s.__dict__.get("_grids", {}).get(grid)
    if kept is None:
        w = _evaluate_mesh(s, grid)
        w.flags.writeable = False
        kept = s.__dict__.setdefault("_grids", {})[grid] = grid.xs, grid.ps, w
    return kept


def _evaluate_mesh(s: GaussPolyState, grid: GridSpec) -> np.ndarray:
    """``s.evaluate(xs[None, :], ps[:, None])`` on the grid's axes, by parity block and mirror.

    Every operation of :meth:`GaussPolyState.evaluate` commutes exactly
    with negation.  So if every term's table vanishes at odd ``i + j``
    (its slices ``c[..., 1::2, ::2]`` and ``c[..., ::2, 1::2]``) and the
    grid is :attr:`~GridSpec.mirrored`, W(-x, -p) is the same float as
    W(x, p) and the leading half of the rows fixes the rest.  If in
    addition no odd power of x occurs (``c[..., 1::2, :]``) and every
    ``sigma^-1`` cross term is 0, W(-x, p) is also W(x, p), and the
    leading quarter fixes all.  Otherwise the whole mesh is evaluated.
    """
    xs, ps = grid.xs, grid.ps
    tables = [t.coeffs for t in s.terms]
    if not grid.mirrored or any(c[..., 1::2, ::2].any() or c[..., ::2, 1::2].any() for c in tables):
        return s.evaluate(xs[None, :], ps[:, None])
    even_x = not any(c[..., 1::2, :].any() for c in tables) and not any(
        t.core.sigma_inv[..., 0, 1].any() for t in s.terms
    )
    n, m = len(xs), len(ps)
    hx, hp = (n + 1) // 2 if even_x else n, (m + 1) // 2
    w = np.empty((m, n))
    w[:hp, :hx] = s.evaluate(xs[None, :hx], ps[:hp, None])
    w[:hp, hx:] = w[:hp, : n - hx][:, ::-1]  # W(-x, p) = W(x, p)
    w[hp:] = w[: m - hp][::-1, ::-1]  # W(-x, -p) = W(x, p)
    return w


def write_grid_csv(path, xs: np.ndarray, ps: np.ndarray, w: np.ndarray) -> None:
    """Serialise a grid as CSV with header x,p,w; rows sweep x inside p.

    Every number, labels included, is :mod:`~cwherald.text` text, byte
    for byte ``%.9g``, so ``-0.0`` prints as ``0``.
    """
    write_table(path, b"x,p,w\n", ps, xs, w, row_label_first=False)
