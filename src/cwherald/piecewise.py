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
half-infinite cell they are rational in the rates.  A piece with k = 1 lies
on a finite interval and adds the terms of its slope, more divided
differences.  Of the built-in modes only the tabulated envelope has such
pieces, so those terms are formed only when a mode list has one; for all
others they would be exact zeros.

A piece whose ``coeff`` and ``rate`` are 1-d arrays of one length K is a
family: K pieces on the same interval, differing only in those two values.
Since cells depend only on where pieces end, a family shares its cells, and
every quantity above carries a family axis next to the kernel-rate axis;
:func:`kernel_moments` then returns one Gram per family member.  A scalar
piece is a family of one.

Everything that depends only on the layout, each piece's interval, anchor
and power together with the kernel rates, is a plan: the cells, which piece
lies on which cell with its offset and direction there, the pairs of terms
that share a cell, and the weights ``e^{-r gap}`` across the gaps between
cells.  The latest plan is kept, keyed on the layout's exact bits, so calls
that only change ``coeff`` and ``rate``, such as every objective call of an
alpha scan (a family for the grid, then single values), build it once and
then only gather values through it.
"""

from __future__ import annotations

import functools
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
    away from it and has power 0, else ``power`` is 0 or 1.  ``coeff`` and ``rate`` are
    scalars, or 1-d arrays of one length for a family of pieces (module docstring).
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
        if self.power and np.isinf([self.lo, self.hi]).any():
            raise ValueError("a half-infinite piece must have power 0")
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
    # of the first variable alone, h_m = y_0^m: a running product down the rows
    h = np.empty((terms, len(z)))
    h[0] = 1.0
    h[1:] = y[:, 0]
    np.multiply.accumulate(h, axis=0, out=h)
    for yi in y.T[1:]:
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


def _cells(edges) -> tuple[np.ndarray, np.ndarray]:
    """Cell bounds (lo, hi) cutting the line at every finite one of ``edges``."""
    cuts = sorted({e for e in edges if math.isfinite(e)})
    lo, hi = cuts[:-1], cuts[1:]
    if -math.inf in edges:
        lo, hi = [-math.inf, *lo], [cuts[0], *hi]
    if math.inf in edges:
        lo, hi = [*lo, cuts[-1]], [*hi, math.inf]
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


class _Plan(NamedTuple):
    """What :func:`kernel_moments` needs of where pieces lie and of the kernel rates.

    Term n is piece ``piece[n]`` of mode ``owner[n]`` restricted to cell
    ``cell[n]``, in a cell-local coordinate s >= 0 that runs from the
    cell's finite end into the cell; ``d`` is that end minus the piece's
    anchor, and ``sign`` is -1 on a left tail, where s runs backwards in t.
    Terms on finite cells come first, each cell's in the order of their
    pieces.  ``ends`` holds, for each kind of cell present (finite, then
    half-infinite), the slice of its terms and their cells' lengths;
    ``pairs`` likewise every ordered pair of terms on one cell, with the
    pair's owners.  ``weight[k, l]`` is ``e^{-r gap}`` across the gap from
    cell k up to cell l > k, and 0 for l <= k.  Every array is read-only.
    """

    cells: int
    linear: bool  # some piece has power 1, so the slope terms are formed
    piece: np.ndarray
    owner: np.ndarray
    cell: np.ndarray
    d: np.ndarray
    dk: np.ndarray  # d**power
    power: np.ndarray
    sign: np.ndarray
    no_start: np.ndarray  # the terms on a left tail, which has no start
    no_end: np.ndarray  # the terms on a right tail, which has no end
    ends: tuple[tuple[slice, np.ndarray], ...]
    pairs: tuple[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray], ...]
    weight: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=1)
def _plan(counts: tuple[int, ...], layout: bytes, rates: bytes) -> _Plan:
    """The plan of modes of ``counts`` pieces each, given the bytes of the
    pieces' ``(lo, hi, anchor, power)`` rows and of the kernel rates.

    Only the latest plan is kept.  A call on the same bytes, such as each
    objective call of an alpha scan, whatever its alphas, reuses it; a
    ``-0.0`` end never shares the plan of a ``0.0`` one.
    """
    r = np.frombuffer(rates)
    rows = np.frombuffer(layout).reshape(-1, 4)
    plo, phi, anchor, power = rows.T
    lo, hi = _cells(rows[:, :2].ravel().tolist())
    length = hi - lo
    pi, ci = np.nonzero((lo[None, :] >= plo[:, None]) & (hi[None, :] <= phi[:, None]))
    order = np.argsort(np.isinf(length[ci]), kind="stable")
    pi, ci = pi[order], ci[order]
    L = length[ci]
    nf = int(np.isfinite(L).sum())
    left_tail = _read_only(np.isneginf(lo[ci]))
    d = (np.where(left_tail, hi[ci], lo[ci]) - anchor[pi])[:, None]
    k = power[pi][:, None]
    owner = _read_only(np.repeat(np.arange(len(counts)), counts)[pi])
    # row-major, so the pairs on finite cells come first
    i, j = (_read_only(x) for x in np.nonzero(ci[:, None] == ci[None, :]))
    nfp = int(np.searchsorted(i, nf))
    L = _read_only(L[:, None, None])
    ends = ((p, L[p]) for p in (slice(0, nf), slice(nf, len(ci))))
    pairs = (
        (i[p], j[p], (_read_only(owner[i[p]]), _read_only(owner[j[p]])), _read_only(L[i[p]]))
        for p in (slice(0, nfp), slice(nfp, len(i)))
    )
    n = len(lo)
    upper = np.arange(n)[:, None] < np.arange(n)
    gap = np.where(upper, lo[None, :] - hi[:, None], 0.0)
    return _Plan(
        cells=n,
        linear=bool(power.any()),
        piece=_read_only(pi),
        owner=owner,
        cell=_read_only(ci),
        d=_read_only(d),
        dk=_read_only(d**k),
        power=_read_only(k),
        sign=_read_only(np.where(left_tail, -1.0, 1.0)[:, None]),
        no_start=left_tail,
        no_end=_read_only(np.isinf(hi[ci])),
        ends=tuple(e for e in ends if len(e[1])),
        pairs=tuple(e for e in pairs if len(e[0])),
        weight=_read_only(np.exp(-gap[:, :, None] * r) * upper[:, :, None]),
    )


def _plan_of(modes, r: np.ndarray) -> _Plan:
    """The plan of a non-empty mode list and a float array of kernel rates."""
    layout = np.array([(p.lo, p.hi, p.anchor, p.power) for f in modes for p in f], dtype=float)
    return _plan(tuple(len(f) for f in modes), layout.tobytes(), r.tobytes())


class _Terms(NamedTuple):
    """The values of some of a plan's terms: each is ``(c0 + c1 s) e^{rate s + shift}``.

    Each column has shape (terms, K, 1): a family axis, then one that
    broadcasts against kernel rates.  On a half-infinite cell s runs
    outwards, so ``rate`` is negative there.
    """

    c0: np.ndarray
    c1: np.ndarray
    rate: np.ndarray
    shift: np.ndarray


def _end_moments(t: _Terms, r, L, linear: bool) -> np.ndarray:
    """Int term e^{-r s} and Int term e^{-r (L - s)} over each term's cell, of length L.

    The first is against the distance from the cell's start, the second
    against the distance to its end.  The cells are all finite or all
    half-infinite; on a half-infinite cell s runs outwards from the finite
    end, and the one moment returned stands for both.  The ``c1`` terms
    are formed only when ``linear``, on finite cells; otherwise every ``c1`` is 0.
    """
    if np.isinf(L).all():
        return np.exp(t.shift) * (t.c0 / (r - t.rate))
    # nodes: the exponent at s = 0 and twice at s = L of each integrand,
    # shift included, against the distance from the start and to the end
    z = np.empty((2,) + t.shift.shape[:2] + (len(r), 3))
    z[0, ..., 0] = t.shift
    z[1, ..., 0] = t.shift - r * L
    z[0, ..., 1] = t.shift + (t.rate - r) * L
    z[1, ..., 1] = t.shift + t.rate * L
    moment = L * t.c0 * _dd(z[..., :2])
    if linear:
        z[..., 2] = z[..., 1]
        moment = moment + L**2 * t.c1 * _dd(z)
    return moment


def _triangles(p: _Terms, q: _Terms, r, L, linear: bool) -> np.ndarray:
    """Int_{0 <= u <= s <= L} p(s) q(u) e^{-r (s - u)} du ds, per row of p and q.

    The ``c1`` terms are formed only when ``linear``, on finite cells; otherwise every ``c1`` is 0.
    """
    s = p.shift + q.shift
    if np.isinf(L).all():
        # s = u + d: the region becomes the quadrant u, d >= 0 and separates
        return np.exp(s) * (p.c0 * q.c0 * (-1.0 / (p.rate - r)) * (-1.0 / (p.rate + q.rate)))
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

    The cells, which piece lies on which cell, the pairs of terms on one
    cell and the weights across the gaps between cells form a plan, which
    depends only on each piece's ``(lo, hi, anchor, power)`` and on the
    rates.  The most recent plan is kept, so a call on the layout of the
    call before, such as every objective call of an alpha scan, only
    gathers the pieces' ``coeff`` and ``rate`` through it.
    """
    r = np.atleast_1d(np.asarray(rates, dtype=float))
    pieces = [p for f in modes for p in f]
    m, nr = len(modes), len(r)
    if not pieces:
        return np.zeros((m, m, nr))
    family = _family(pieces)
    plan = _plan_of(modes, r)
    coeff, rate = np.empty((2, len(pieces)) + family)
    for k, p in enumerate(pieces):
        coeff[k], rate[k] = p.coeff, p.rate
    c = coeff.reshape(len(pieces), -1)[plan.piece]
    a = rate.reshape(len(pieces), -1)[plan.piece]
    n, nk = plan.cells, c.shape[1]
    # the _Terms columns of every term, stacked: terms[:, idx] are those of terms idx
    terms = np.empty((4, len(c), nk, 1))
    terms[0, ..., 0] = c * plan.dk
    terms[1, ..., 0] = c * plan.power  # a slope lies on a finite cell, where sign is 1
    terms[2, ..., 0] = plan.sign * a
    terms[3, ..., 0] = a * plan.d

    # separated cells k < l: e^{-r (t' - t)} = e^{-r (L_k - s)} e^{-r gap} e^{-r s'}
    start, end = ends = np.empty((2, len(c), nk, nr))
    for part, L in plan.ends:
        ends[:, part] = _end_moments(_Terms(*terms[:, part]), r, L, plan.linear)
    start[plan.no_start] = 0.0
    end[plan.no_end] = 0.0
    from_start = np.zeros((m, n, nk, nr))
    to_end = np.zeros_like(from_start)
    np.add.at(from_start, (plan.owner, plan.cell), start)
    np.add.at(to_end, (plan.owner, plan.cell), end)
    sep = np.einsum("ikqr,klr,jlqr->qijr", to_end, plan.weight, from_start)

    # a cell with itself: the triangle u <= s of every ordered pair of terms,
    # summed per pair of owners; the triangle s <= u is its transpose
    tri = np.zeros((m, m, nk, nr))
    for i, j, owners, L in plan.pairs:
        np.add.at(
            tri, owners, _triangles(_Terms(*terms[:, i]), _Terms(*terms[:, j]), r, L, plan.linear)
        )
    same = tri.transpose(2, 0, 1, 3)
    gram = (sep + sep.transpose(0, 2, 1, 3)) + (same + same.transpose(0, 2, 1, 3))
    return gram.reshape(family + (m, m, nr))
