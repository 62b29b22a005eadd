"""Exact kernel moments of piecewise exponential-polynomial mode functions.

Every built-in mode amplitude is a sum of pieces ``c (t - t0)^k e^{rate (t - t0)}``
with k in {0, 1} on intervals, and the source kernel is a sum of terms
``e^{-r |t - t'|}``.  The double integral of two such functions against one
kernel term is then a finite sum of antiderivatives, evaluated here without
truncating half-infinite tails.

The moments of a list of modes form a Gram matrix, built in one pass over
the mode list: the real line is cut at every finite piece end of every mode
into cells, which all modes share.  A pair of cells at different places
separates (``|t - t'|`` has one sign), so it is a product of two
one-dimensional integrals, and all mode pairs of all cell pairs are one
contraction.  A cell paired with itself splits along the diagonal into two
triangles, one the mirror of the other.  On a finite cell both kinds are
written as divided differences of the exponential (Hermite-Genocchi), which
stay exact when rates coincide (``(1 - e^{-x})/x`` is ``exp[0, -x]``); on a
half-infinite cell they are rational in the rates.  A piece with k = 1 adds
the terms of its slope: more divided differences on a finite cell, higher
powers of the rates on a half-infinite one.  Of the built-in modes only the
tabulated envelope has such pieces, so those terms are formed only when a
mode list has one; for all others they would be exact zeros.

A piece whose ``coeff`` and ``rate`` are 1-d arrays of one length K is a
family: K pieces on the same interval, differing only in those two values.
Since cells depend only on where pieces end, a family shares its cells, and
every quantity above carries a family axis next to the kernel-rate axis;
:func:`kernel_moments` then returns one Gram per family member.  A scalar
piece is a family of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# divided differences over nodes spread by at most this use the Taylor series,
# wider ones the recursion, which then cancels at most a factor of about 3
_TAYLOR_SPAN = 2.0
_TAYLOR_TERMS = 27  # more than a span of _TAYLOR_SPAN needs
_FACT = [float(math.factorial(j)) for j in range(_TAYLOR_TERMS + 5)]
_INV_FACT = np.array([1.0 / f for f in _FACT])


@dataclass(frozen=True, eq=False)
class Piece:
    """``coeff * (t - anchor)**power * exp(rate * (t - anchor))`` on [lo, hi].

    ``anchor`` is a finite end of the interval; a half-infinite piece decays
    away from it.  ``power`` is 0 or 1.  ``coeff`` and ``rate`` are scalars,
    or 1-d arrays of one length for a family of pieces (module docstring).
    """

    lo: float
    hi: float
    anchor: float
    coeff: float | np.ndarray
    power: int = 0
    rate: float | np.ndarray = 0.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"piece interval [{self.lo}, {self.hi}] is empty")
        if not (np.isfinite(self.anchor) and self.anchor in (self.lo, self.hi)):
            raise ValueError(f"piece anchor {self.anchor} is not a finite end")
        if self.power not in (0, 1):
            raise ValueError(f"piece power must be 0 or 1, got {self.power}")
        shapes = _shapes(self.coeff, self.rate) - {()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError(
                "piece coeff and rate must be scalars or 1-d arrays of one length, "
                f"got shapes {np.shape(self.coeff)} and {np.shape(self.rate)}"
            )
        if (self.lo == -np.inf and not (np.asarray(self.rate) > 0.0).all()) or (
            self.hi == np.inf and not (np.asarray(self.rate) < 0.0).all()
        ):
            raise ValueError("a half-infinite piece must decay away from its anchor")

    def scaled(self, factor: float) -> "Piece":
        return replace(self, coeff=factor * self.coeff)


def _shapes(*values) -> set[tuple[int, ...]]:
    """The shapes of ``values``; a float is a scalar, of shape ()."""
    return {np.shape(x) for x in values if not isinstance(x, float)}


def _family(pieces) -> tuple[int, ...]:
    """The pieces' common family shape: (K,), or () when all are scalar."""
    return np.broadcast_shapes(*_shapes(*(x for p in pieces for x in (p.coeff, p.rate))))


def _taylor(z: np.ndarray) -> np.ndarray:
    """exp[z_0..z_n] for sorted rows of span <= _TAYLOR_SPAN.

    With y = z - z_0 >= 0, exp[z] = e^{z_0} sum_m h_m(y) / (n + m)!, h_m the
    complete homogeneous symmetric polynomials; every term is nonnegative,
    and the series stops once span^m / m! is below rounding.
    """
    y = z[:, 1:] - z[:, :1]
    span = float(y[:, -1].max(initial=0.0))
    terms = next((m for m in range(1, _TAYLOR_TERMS) if span**m < 1e-17 * _FACT[m]), _TAYLOR_TERMS)
    h = np.zeros((terms, len(z)))
    h[0] = 1.0
    for yi in y.T:
        # adding a variable: h_m <- h_m + y_i h_{m-1}, with h_{m-1} already updated
        for m in range(1, terms):
            h[m] += yi * h[m - 1]
    n = z.shape[1] - 1
    return np.exp(z[:, 0]) * (_INV_FACT[n : n + terms] @ h)


def dd_exp(z: np.ndarray) -> np.ndarray:
    """Divided differences exp[z_0, ..., z_n] of each row of ``z`` (repeats allowed)."""
    z = np.sort(np.asarray(z, dtype=float), axis=1)
    if z.shape[1] == 1:
        return np.exp(z[:, 0])
    span = z[:, -1] - z[:, 0]
    wide = span > _TAYLOR_SPAN
    if not wide.any():
        return _taylor(z)
    out = np.empty(len(z))
    out[~wide] = _taylor(z[~wide])
    zw = z[wide]
    out[wide] = (dd_exp(zw[:, 1:]) - dd_exp(zw[:, :-1])) / span[wide]
    return out


def _dd(z: np.ndarray) -> np.ndarray:
    """dd_exp over the nodes on the last axis of ``z``, keeping the leading shape."""
    return dd_exp(z.reshape(-1, z.shape[-1])).reshape(z.shape[:-1])


def _cells(*piece_sets) -> tuple[np.ndarray, np.ndarray]:
    """Cell bounds (lo, hi) cutting the line at every finite piece end."""
    pieces = [p for ps in piece_sets for p in ps]
    edges = sorted({e for p in pieces for e in (p.lo, p.hi) if math.isfinite(e)})
    lo, hi = edges[:-1], edges[1:]
    if any(p.lo == -math.inf for p in pieces):
        lo, hi = [-math.inf, *lo], [edges[0], *hi]
    if any(p.hi == math.inf for p in pieces):
        lo, hi = [*lo, edges[-1]], [*hi, math.inf]
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


class _Terms(NamedTuple):
    """Pieces restricted to cells, in a cell-local coordinate s >= 0.

    Term n is ``(c0 + c1 s) e^{rate s + shift}`` on cell ``cell``, from a
    piece of mode ``owner``; s runs from the cell's finite end into the
    cell (outwards on a half-infinite cell, so its ``rate`` is negative).
    Columns other than ``cell`` and ``owner`` have shape (terms, K, 1): a
    family axis, then one that broadcasts against kernel rates.
    """

    cell: np.ndarray
    owner: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    rate: np.ndarray
    shift: np.ndarray

    def take(self, idx) -> "_Terms":
        return _Terms(*(col[idx] for col in self))


def _terms(modes, lo: np.ndarray, hi: np.ndarray, family: tuple[int, ...]) -> _Terms:
    """The terms of every piece of every mode, tagged with the mode's index."""
    pieces = [p for f in modes for p in f]
    owner = np.repeat(np.arange(len(modes)), [len(f) for f in modes])
    plo, phi, anchor, power = (
        np.array([getattr(p, f) for p in pieces], dtype=float)
        for f in ("lo", "hi", "anchor", "power")
    )
    coeff, rate = np.empty((2, len(pieces)) + family)
    for n, p in enumerate(pieces):
        coeff[n], rate[n] = p.coeff, p.rate
    coeff, rate = coeff.reshape(len(pieces), -1), rate.reshape(len(pieces), -1)
    pi, ci = np.nonzero((lo[None, :] >= plo[:, None]) & (hi[None, :] <= phi[:, None]))
    left_tail = lo[ci] == -np.inf
    origin = np.where(left_tail, hi[ci], lo[ci])
    sign = np.where(left_tail, -1.0, 1.0)[:, None]
    d = (origin - anchor[pi])[:, None]
    k = power[pi][:, None]
    c, a = coeff[pi], rate[pi]
    return _Terms(
        cell=ci,
        owner=owner[pi],
        c0=(c * d**k)[..., None],
        c1=(c * k * sign)[..., None],
        rate=(sign * a)[..., None],
        shift=(a * d)[..., None],
    )


def _end_moments(t: _Terms, r, length, linear: bool) -> np.ndarray:
    """Int term e^{-r s} and Int term e^{-r (L - s)} over each term's cell.

    The first is against the distance from the cell's start, the second
    against the distance to its end.  On a half-infinite cell s runs
    outwards from the finite end, and both rows hold the one moment.  The
    ``c1`` terms are formed only when ``linear``; otherwise every ``c1`` is 0.
    """
    out = np.empty((2, len(t.cell), t.c0.shape[1], len(r)))
    L = length[t.cell][:, None, None]
    fin = np.isfinite(L[:, 0, 0])
    if fin.any():
        f, Lf = t.take(fin), L[fin]
        # nodes: the exponent at s = 0 and twice at s = L of each integrand,
        # shift included, against the distance from the start and to the end
        z = np.empty((2, len(f.cell), f.shift.shape[1], len(r), 3))
        z[0, ..., 0] = f.shift
        z[1, ..., 0] = f.shift - r * Lf
        z[0, ..., 1] = f.shift + (f.rate - r) * Lf
        z[1, ..., 1] = f.shift + f.rate * Lf
        moment = Lf * f.c0 * _dd(z[..., :2])
        if linear:
            z[..., 2] = z[..., 1]
            moment = moment + Lf**2 * f.c1 * _dd(z)
        out[:, fin] = moment
    if not fin.all():
        inf = ~fin
        g = r - t.rate[inf]
        moment = t.c0[inf] / g
        if linear:
            moment = moment + t.c1[inf] / g**2
        out[:, inf] = np.exp(t.shift[inf]) * moment
    return out


def _triangles(p: _Terms, q: _Terms, r, L, linear: bool) -> np.ndarray:
    """Int_{0 <= u <= s <= L} p(s) q(u) e^{-r (s - u)} du ds, per row of p and q.

    The ``c1`` terms are formed only when ``linear``; otherwise every ``c1`` is 0.
    """
    s = p.shift + q.shift
    if np.isinf(L).all():
        # s = u + d: the region becomes the quadrant u, d >= 0 and separates
        a = p.rate - r
        c = p.rate + q.rate
        m0a, m0c = -1.0 / a, -1.0 / c
        inner = p.c0 * q.c0 * m0a * m0c
        if linear:
            m1a = 1.0 / a**2
            m1c, m2c = 1.0 / c**2, -2.0 / c**3
            inner = (
                inner
                + (p.c0 * q.c1 + p.c1 * q.c0) * m0a * m1c
                + p.c1 * q.c1 * (m0a * m2c + m1a * m1c)
                + p.c1 * q.c0 * m1a * m0c
            )
        return np.exp(s) * inner
    # s = L (l1 + l2), u = L l2 over the unit simplex (Hermite-Genocchi);
    # a weight l_i repeats node i.  Nodes x0 = s, x1 and x2 at the corners
    x1 = s + (p.rate - r) * L
    x2 = s + (p.rate + q.rate) * L
    z = np.empty(np.broadcast_shapes(x1.shape, x2.shape) + (3,))
    z[..., 0] = s
    z[..., 1] = x1
    z[..., 2] = x2
    inner = p.c0 * q.c0 * _dd(z)
    if linear:
        # row 0 of w holds (x0, x1, x2, x1, x2), row 1 (x0, x1, x2, x2, x2)
        w = np.empty((2,) + z.shape[:-1] + (5,))
        w[..., :3] = z
        w[..., 3:] = x2[..., None]
        w[0, ..., 3] = x1
        d1, d2 = _dd(w[..., :4])
        d12, d22 = _dd(w)
        inner = (
            inner
            + p.c0 * q.c1 * L * d2
            + p.c1 * q.c0 * L * (d1 + d2)
            + p.c1 * q.c1 * L**2 * (d12 + 2.0 * d22)
        )
    return L**2 * inner


def kernel_moments(modes, rates) -> np.ndarray:
    """Gram matrix ``G[i, j, r] = Int Int f_i(t) f_j(t') e^{-r |t - t'|} dt dt'``.

    ``modes`` is a sequence of modes, each a sequence of :class:`Piece`;
    the result has shape ``(len(modes), len(modes), len(rates))`` and is
    exactly symmetric in those two mode axes.  It is computed in one pass
    over the mode list: the line is cut into cells once for all modes, and
    every pair of modes shares those cells.  A mode without pieces gives a
    zero row and column.  When pieces are families of K members, the
    result gains a leading axis of length K, one Gram per member, still
    from the one pass: scalar pieces are shared by every member.
    """
    r = np.atleast_1d(np.asarray(rates, dtype=float))
    pieces = [p for f in modes for p in f]
    family = _family(pieces)
    m, nr = len(modes), len(r)
    if not pieces:
        return np.zeros((m, m, nr))
    lo, hi = _cells(*modes)
    n = len(lo)
    length = hi - lo
    t = _terms(modes, lo, hi, family)
    nk = t.c0.shape[1]
    linear = any(p.power for p in pieces)  # else every c1 is 0 and its terms are skipped

    # separated cells k < l: e^{-r (t' - t)} = e^{-r (L_k - s)} e^{-r gap} e^{-r s'}
    start, end = _end_moments(t, r, length, linear)
    start[np.isneginf(lo[t.cell])] = 0.0
    end[np.isinf(hi[t.cell])] = 0.0
    from_start = np.zeros((m, n, nk, nr))
    to_end = np.zeros_like(from_start)
    np.add.at(from_start, (t.owner, t.cell), start)
    np.add.at(to_end, (t.owner, t.cell), end)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    gap = np.where(upper, lo[None, :] - hi[:, None], 0.0)
    w = np.exp(-gap[:, :, None] * r) * upper[:, :, None]
    sep = np.einsum("ikqr,klr,jlqr->qijr", to_end, w, from_start)

    # a cell with itself: the triangle u <= s of every ordered pair of terms,
    # summed per pair of owners; the triangle s <= u is its transpose
    i, j = np.nonzero(t.cell[:, None] == t.cell[None, :])
    L = length[t.cell[i]]
    tri = np.zeros((m, m, nk, nr))
    for part in (np.isfinite(L), np.isinf(L)):
        if part.any():
            p, q = t.take(i[part]), t.take(j[part])
            Lp = L[part][:, None, None]
            np.add.at(tri, (p.owner, q.owner), _triangles(p, q, r, Lp, linear))
    same = tri.transpose(2, 0, 1, 3)
    gram = (sep + sep.transpose(0, 2, 1, 3)) + (same + same.transpose(0, 2, 1, 3))
    return gram.reshape(family + (m, m, nr))

