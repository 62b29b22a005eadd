"""Closed-form algebra for Wigner functions of polynomial-times-Gaussian form.

The two-mode Gaussian Wigner function
``W_V(y) = exp(-y^T V^-1 y) / (pi^2 sqrt(det V))`` is reduced over the
trigger-mode phase plane through the trigger's Gaussian given the output,
taken from ``N = (V - I)/2`` by :func:`trigger_given_output`, once per
covariance; the result of every conditioning operation is a (short sum
of) polynomial-times-Gaussian single-mode states.  All integrals here are
exact Gaussian-moment reductions; no quadrature enters the core path.

A term's Gaussian is a :class:`~cwherald.polynomials.GaussianCore`, which
computes its inverse, moment table and products with other cores once and
holds ``sigma`` read-only.  A covariance's conditioners make terms on two
cores, the output marginal's ``V22`` of :func:`trigger_given_output` and
the conditioning module's photon-number core; Fock states share one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .covariance import CovarianceMatrix4, once_per_covariance
from .polynomials import (
    GaussianCore,
    det2,
    expected_poly_of_shifted_gaussian,
    nonzero_entries,
    per_member,
    poly_eval,
    poly_mul,
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
            si = t.core.sigma_inv
            expo = -(si[0, 0] * x * x + 2.0 * si[0, 1] * x * p + si[1, 1] * p * p)
            out = out + poly_eval(t.coeffs, x, p) * np.exp(expo)
        return out

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


# (|z|^2/2)^j / j! in z = (x, p), j = 0, 1, 2: the normally ordered
# occupation weights, and the radial terms of the Fock Wigner functions
_HALF_SQUARE = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
OCCUPATION_POWERS = (np.ones((1, 1)), _HALF_SQUARE, poly_mul(_HALF_SQUARE, _HALF_SQUARE) / 2.0)


def fock_wigner_poly(n: int) -> np.ndarray:
    """Polynomial part of the Fock-state Wigner function W_n = poly * exp(-x^2-p^2).

    ``W_n = (-1)^n L_n(2 r^2) exp(-r^2) / pi``, where ``(-2 r^2)^j / j!`` in the
    Laguerre ``L_n`` is ``(-4)^j OCCUPATION_POWERS[j]``.  Supported for n in
    {0, 1, 2}; higher projections are a documented extension point and rejected.
    The three tables are built once, at import, and are read-only.
    """
    if n not in (0, 1, 2):
        raise ValueError(f"Fock index n={n} unsupported; analytic set is n in {{0, 1, 2}}")
    return _FOCK_POLYS[n]


def _fock_poly(n: int) -> np.ndarray:
    c = np.zeros((2 * n + 1, 2 * n + 1))
    for j in range(n + 1):
        c[: 2 * j + 1, : 2 * j + 1] += comb(n, j) * (-4.0) ** j * OCCUPATION_POWERS[j]
    c = (-1) ** n * c / np.pi
    c.flags.writeable = False  # shared by every caller
    return c


_FOCK_POLYS = tuple(_fock_poly(n) for n in range(3))
_VACUUM = GaussianCore(np.eye(2))  # exp(-x^2 - p^2)


def fock_state(n: int) -> GaussPolyState:
    """The Fock-state Wigner function as a normalised one-term state on the vacuum core."""
    return GaussPolyState(terms=(PolyGaussTerm(coeffs=fock_wigner_poly(n), core=_VACUUM),))


@once_per_covariance
def trigger_given_output(v: CovarianceMatrix4):
    """The core of ``V22``, ``G = N12 V22^-1`` and ``E = N11 - 2 G N12^T``.

    The output's marginal is the Gaussian of ``V22``; given its quadratures
    ``y2``, the trigger's are Gaussian with mean ``2 G y2`` and excess ``E``.
    Computed once per covariance; ``V22^-1`` is the core's ``sigma_inv``.
    """
    n = v.n
    n12 = n[..., :2, 2:]
    v22 = GaussianCore(np.eye(2) + 2.0 * n[..., 2:, 2:])
    g = n12 @ v22.sigma_inv
    return v22, g, n[..., :2, :2] - 2.0 * g @ n12.swapaxes(-1, -2)


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
    v22, g, e = trigger_given_output(w.v)
    poly = expected_poly_of_shifted_gaussian(weight, 2.0 * g, 0.5 * np.eye(2) + e)
    state = gaussian_state(poly, v22, det2(v22.sigma))
    return state, state.total_integral()


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
    """Dense table of W values; returns (x_axis, p_axis, w[p_index, x_index]).

    Evaluated at most once per state and grid, kept on the state and
    returned read-only, so every caller of one state's grid shares it.  The
    table holds exactly the floats of ``s.evaluate(xs[None, :], ps[:, None])``
    but evaluates only the block that the parity symmetry does not fix:
    see :func:`_evaluate_mesh`.
    """
    kept = s.__dict__.get("_grids", {}).get(grid)
    if kept is None:
        xs, ps = grid.x_axis(), grid.p_axis()
        w = _evaluate_mesh(s, xs, ps)
        for a in (xs, ps, w):
            a.flags.writeable = False
        kept = s.__dict__.setdefault("_grids", {})[grid] = xs, ps, w
    return kept


def _evaluate_mesh(s: GaussPolyState, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """``s.evaluate(xs[None, :], ps[:, None])``, evaluated on its parity block and mirrored.

    Every operation of :meth:`GaussPolyState.evaluate` commutes exactly
    with negation.  So if every term's coefficients vanish at odd
    ``i + j`` and both axes are exactly antisymmetric, W(-x, -p) is the
    same float as W(x, p) and the leading half of the rows fixes the rest.
    If in addition only even powers of x occur and every ``sigma^-1``
    cross term is 0, W(-x, p) is also W(x, p), and the leading quarter
    fixes all.  Otherwise the whole mesh is evaluated.
    """
    n, m = len(xs), len(ps)
    powers = [ij for t in s.terms for ij in nonzero_entries(t.coeffs)]
    axes = np.array_equal(xs, -xs[::-1]) and np.array_equal(ps, -ps[::-1])
    if not (axes and all((i + j) % 2 == 0 for i, j in powers)):
        return s.evaluate(xs[None, :], ps[:, None])
    even_x = all(i % 2 == 0 for i, _ in powers) and not any(
        np.any(t.core.sigma_inv[..., 0, 1]) for t in s.terms
    )
    hx, hp = (n + 1) // 2 if even_x else n, (m + 1) // 2
    w = np.empty((m, n))
    w[:hp, :hx] = s.evaluate(xs[None, :hx], ps[:hp, None])
    w[:hp, hx:] = w[:hp, : n - hx][:, ::-1]  # W(-x, p) = W(x, p)
    w[hp:] = w[: m - hp][::-1, ::-1]  # W(-x, -p) = W(x, p)
    return w


def write_grid_csv(path, xs: np.ndarray, ps: np.ndarray, w: np.ndarray) -> None:
    """Serialise a grid as CSV with header x,p,w; rows sweep x inside p.

    Every number is :func:`fmt9` text, so ``-0.0`` prints as ``0``; the
    cell text of ``w`` comes from :func:`_row_texts`.
    """
    cols = [fmt9(x).encode() for x in xs] + [b""]
    with open(path, "wb") as fh:
        fh.write(b"x,p,w\n")
        for p, cells in zip(ps, _row_texts(w), strict=True):
            # fmt9 text holds no "%", so it can sit in a template
            fh.write((b",%s,%%s\n" % fmt9(p).encode()).join(cols) % cells)


def fmt9(v: float) -> str:
    """``v`` at 9 significant digits, as the summary, scan and grid files write it."""
    return f"{float(v) + 0.0:.9g}"  # + 0.0 turns -0.0 into 0.0


def _row_texts(table: np.ndarray):
    """Yield the ``%.9g`` text of each row of a 2-D table, a tuple of bytes per row.

    ``-0.0`` is written as ``0``, as :func:`fmt9` writes it.  Each distinct
    float of the top ``ceil(m/2)`` rows is formatted once.  A lower row
    ``k`` equal to row ``m-1-k`` reversed (exactly, so never with NaN)
    takes that row's text reversed; any other row is formatted afresh.
    """
    m, n = table.shape
    h = (m + 1) // 2
    values, index = np.unique(table[:h], return_inverse=True)
    text = (b"%.9g\n" * len(values)) % tuple((values + 0.0).tolist())  # + 0.0 turns -0.0 into 0.0
    text = np.array(text.split(b"\n"), dtype=object)  # text[i] is the text of values[i]
    index = index.reshape(h, n)
    for k in range(m):
        if k < h:
            yield tuple(text[index[k]].tolist())
        elif np.array_equal(table[k], table[m - 1 - k, ::-1]):
            yield tuple(text[index[m - 1 - k, ::-1]].tolist())
        else:
            yield tuple(((b"%.9g\n" * n) % tuple((table[k] + 0.0).tolist())).split(b"\n")[:-1])
