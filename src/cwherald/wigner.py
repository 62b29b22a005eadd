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
the conditioning module's photon-number core.  The Fock states of
:func:`fock_state` share the vacuum core and three literal Laguerre tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .covariance import CovarianceMatrix4, once_per_covariance
from .polynomials import (
    GaussianCore,
    det2,
    expected_poly_of_shifted_gaussian,
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

    Every number, labels included, is :func:`_texts` text, byte for byte
    ``%.9g``, so ``-0.0`` prints as ``0``.  The x labels make one row
    pattern, built once, that each p label fills (the text holds neither
    NUL nor ``%``); the cell text of ``w`` comes from :func:`_row_texts`,
    and :func:`_write_rows` writes the rows.
    """
    pattern = b"".join(x + b",\0,%s\n" for x in _texts(xs))
    rows = zip(_texts(ps), _row_texts(w), strict=True)
    _write_rows(path, b"x,p,w\n", (pattern.replace(b"\0", p) % cells for p, cells in rows))


def fmt9(v: float) -> str:
    """``v`` at 9 significant digits, as the summary and messages write it.

    The CSV writers make the same text with :func:`_texts`.
    """
    return f"{float(v) + 0.0:.9g}"  # + 0.0 turns -0.0 into 0.0


def _write_rows(path, head: bytes, rows) -> None:
    """Write ``head`` and then the bytes rows of the iterator ``rows``, 8 rows to a write call."""
    with open(path, "wb") as fh:
        fh.write(head)
        for block in iter(lambda: list(islice(rows, 8)), []):
            fh.write(b"".join(block))


# Tables of the %.9g kernel of _texts.  Indexed by e + 300, for the decimal
# exponents e in [-300, 300]: _SCALE, 10**(8 - e) correctly rounded; _EXP,
# the word of "e", the exponent's sign and 3 digits; _MODE9, 9 times the
# layout mode (e + 4 for fixed notation, e in [-4, 8]; 13 or 14 for a 2- or
# 3-digit exponent).  Indexed by a 4-digit group g: _DIGITS4, the word of
# its digits; _SHOWN4, the count left once trailing zeros are cut (0 for
# g = 0); _SHOWN8, that plus 4, the digits shown when g is digits 5-8.
_E = np.arange(-300, 301)
_SCALE = np.array([float("1e%d" % (8 - e)) for e in range(-300, 301)])
_EXP = sum(
    np.uint64(c) << np.uint64(8 * i)
    for i, c in enumerate((101, np.where(_E < 0, 45, 43), *(abs(_E) // [[100], [10], [1]] % 10 + 48)))
)
_MODE9 = 9 * np.where((_E < -4) | (_E > 8), 13 + (abs(_E) >= 100), _E + 4)
_PAIR = np.arange(100)  # g = 100 * h + l, for the digit pairs h and l
_DIGITS4 = np.uint64(_PAIR // 10 + 48 | (_PAIR % 10 + 48) << 8)  # the word of a pair's 2 digits
_DIGITS4 = (_DIGITS4[:, None] | _DIGITS4 << np.uint64(16)).ravel()
_SHOWN4 = np.sign(_PAIR).astype(np.uint8) + (_PAIR % 10 > 0)
_SHOWN4 = np.where(_PAIR > 0, _SHOWN4 + 2, _SHOWN4[:, None]).ravel()
_SHOWN8 = np.where(_SHOWN4 > 0, _SHOWN4 + 4, 0).astype(np.uint8)
# A value's 24 source bytes: 0-7 digits 1-8, 8 digit 0, 9 "-", 10 ".",
# 11 "0", 12 NUL, 16 "e", 17 the exponent's sign, 18-20 its digits.  A
# layout is the source byte of each of the 16 text bytes, NUL-padded.
_MARKS = np.uint64(48 | ord("-") << 8 | ord(".") << 16 | ord("0") << 24)
_DIGIT, _EXPONENT = bytes((8, *range(8))), bytes(range(16, 21))
_MINUS, _DOT, _ZERO, _NUL = b"\x09", b"\x0a", b"\x0b", b"\x0c"


def _layout(mode: int, shown: int) -> bytes:
    """The layout of a value >= 0 with the given mode and count of digits shown."""
    if mode < 4:  # 0.000ddd, 3 - mode zeros after the point
        text = _ZERO + _DOT + _ZERO * (3 - mode) + _DIGIT[:shown]
    elif mode < 13:  # mode - 3 digits before the point, trailing zeros among them
        before = mode - 3
        text = _DIGIT[:before] + _DOT * (shown > before) + _DIGIT[before:shown]
    else:
        text = _DIGIT[:1] + _DOT * (shown > 1) + _DIGIT[1:shown] + _EXPONENT[:2] + _EXPONENT[16 - mode :]
    return text.ljust(16, _NUL)


# Layout 135 * sign + 9 * mode + shown - 1; a negative value's text is "-" and the rest
_LAYOUTS = [_layout(mode, shown) for mode in range(15) for shown in range(1, 10)]
_LAYOUTS = np.frombuffer(b"".join(_LAYOUTS + [_MINUS + t[:15] for t in _LAYOUTS]), np.uint8)
_LAYOUTS = _LAYOUTS.reshape(270, 16).astype(np.intp)
_BLOCK = 2048  # values to a kernel pass: the working set is about 100 bytes a value
_CHUNK = 512  # values to a gather, whose index takes 128 bytes a value
_ROWS = np.arange(0, 24 * _CHUNK, 24)[:, None]  # the first source byte of each value of a chunk
_MARGIN = 1e-5  # over 40 times the float error of the scaled value; see _texts


def _texts(values) -> list[bytes]:
    """The ``%.9g`` text of each float of ``values``, in row-major order; ``-0.0`` is ``0``.

    Every text is byte for byte ``b"%.9g" % (v + 0.0)``.  A numpy kernel
    makes it, a block of about :data:`_BLOCK` values (whole rows of a
    table, one row at least) to a pass.  For ``|v|`` in ``[1e-290, 1e290)``
    it takes the decimal exponent ``e`` from ``floor(log10|v|)``, moved by
    one where ``s = |v| * 10**(8-e)`` falls outside ``[1e8, 1e9)``, the
    9-digit integer ``rint(s)``, its digits from a table of 4-digit words
    and, from its trailing zeros, one of 270 layouts (sign; fixed notation
    at ``e`` in ``[-4, 8]`` or a 2- or 3-digit exponent; digits shown),
    which one gather turns into left-aligned text.

    Error bound: ``10**(8-e)`` is correctly rounded and so is the product,
    so ``s`` is within a relative ``2**-52 + 2**-106`` of the exact
    ``|v| * 10**(8-e)``: 2 ulp at most, under 2.3e-7 (so under 5e-7) in
    absolute terms for ``s < 1e9``.  Where ``s`` lies in
    ``[1e8 + 1e-5, 999999999)`` and at least ``1e-5`` from a half-integer,
    the exact product therefore lies in ``[1e8, 1e9)``, so ``e`` is the
    exponent that ``%.9g`` prints, and rounds to ``rint(s)``.  Every other
    value (near a tie or a power of ten, 0, subnormal, huge, NaN or
    infinite) is formatted by one ``%`` per block.
    """
    table = np.asarray(values, dtype=float)
    if table.ndim != 2 or not table.size:
        table = table.reshape(-1, 1)
    step = _rows_per_block(table.shape[1])
    texts = []
    for i in range(0, len(table), step):
        texts += _block_texts(table[i : i + step].ravel())
    return texts


def _rows_per_block(n: int) -> int:
    """Rows of ``n`` values to a kernel block: :data:`_BLOCK` values or fewer, one row at least."""
    return max(1, _BLOCK // max(n, 1))


def _block_texts(v: np.ndarray) -> list[bytes]:
    """:func:`_texts` of one block of floats."""
    a = np.abs(v)
    ok = (a >= 1e-290) & (a < 1e290)
    a[~ok] = 1.0
    e = (np.log10(a) + 300).astype(np.intp)  # e + 300 >= 9, so truncation is the floor
    s = a * _SCALE[e]
    e += s >= 1e9
    e -= s < 1e8
    np.multiply(a, _SCALE[e], out=s)
    m = np.rint(s)
    ok &= (s >= 1e8 + _MARGIN) & (s < 999999999.0) & (abs(s - m) <= 0.5 - _MARGIN)
    del a, s
    m = m.astype(np.intp)  # in [1e7, 1e10] even where not ok, so every table index is in range
    lead = m // 100000000
    m -= lead * 100000000
    high = m // 10000
    m -= high * 10000
    source = np.empty((v.size, 3), np.uint64)
    source[:, 0] = _DIGITS4[high] | _DIGITS4[m] << np.uint64(32)
    source[:, 1] = lead.astype(np.uint64) | _MARKS
    source[:, 2] = _EXP[e]
    layout = _MODE9[e] + np.maximum(_SHOWN4[high], _SHOWN8[m]) + 135 * (v < 0)
    del e, m, high, lead
    text = np.empty((v.size, 16), np.uint8)
    for i in range(0, v.size, _CHUNK):
        index = np.take(_LAYOUTS, layout[i : i + _CHUNK], axis=0)
        index += _ROWS[: len(index)]
        chunk = source[i : i + _CHUNK].view(np.uint8).ravel()
        # every index is in range; "clip" lets take write into its out unbuffered
        np.take(chunk, index, out=text[i : i + len(index)], mode="clip")
    del source, layout, index, chunk
    texts = text.view("S16").ravel().tolist()
    bad = np.flatnonzero(~ok)
    if bad.size:
        rest = v[bad]
        rest[rest == 0] = 0.0  # -0.0 prints as 0
        for i, t in zip(bad.tolist(), ((b"%.9g\n" * bad.size) % tuple(rest.tolist())).splitlines()):
            texts[i] = t
    return texts


def _row_texts(table: np.ndarray):
    """Yield the ``%.9g`` text of each row of a 2-D table, a tuple of bytes per row.

    ``-0.0`` is written as ``0``, as :func:`fmt9` writes it.  With
    ``h, k = ceil(m/2), ceil(n/2)``, the table's two exact mirrors are each
    tested once, by ``==`` (so never with NaN; ``-0.0`` matches ``0.0``,
    whose text is the same): the point mirror, row ``m-1-i`` equal to row
    ``i`` reversed for every lower row, and the x mirror, each of the top
    ``h`` rows equal to itself reversed.  With both, only the leading
    ``h×k`` block is formatted.  With the point mirror alone, each distinct
    float of the top ``h`` rows is formatted once, found by one argsort
    with an int32 inverse.  In both cases a lower row is its partner's
    text reversed.  Without the point mirror every row is formatted as it
    is, in blocks of whole rows, one :func:`_texts` call and kernel pass
    to a block.
    """
    m, n = table.shape
    h, k = (m + 1) // 2, (n + 1) // 2
    if not (table[h:] == table[: m - h][::-1, ::-1]).all():
        step = _rows_per_block(n)
        for i in range(0, m, step):
            texts = _texts(table[i : i + step])
            for j in range(min(step, m - i)):
                yield tuple(texts[j * n : (j + 1) * n])
    elif (table[:h, k:] == table[:h, : n - k][:, ::-1]).all():
        texts = _texts(table[:h, :k])
        for i in range(h):
            r = texts[i * k : (i + 1) * k]
            yield tuple(r + r[: n - k][::-1])
        for i in range(m - h - 1, -1, -1):
            r = texts[i * k : (i + 1) * k]
            yield tuple(r[: n - k] + r[::-1])
    else:
        top = table[:h].ravel()
        order = np.argsort(top)
        ranked = top[order]
        # new[r]: ranked[r] starts a run of equal floats; index[c]: the rank of cell c's value
        new = np.r_[True, ranked[1:] != ranked[:-1]]
        values = ranked[new]
        del ranked
        rank = np.cumsum(new, dtype=np.int32)
        rank -= 1
        index = np.empty(top.size, dtype=np.int32)
        index[order] = rank
        del order, new, rank  # the full-size temporaries go before the texts are made
        texts = np.array(_texts(values), dtype=object)
        index = index.reshape(h, n)
        for i in range(h):
            yield tuple(texts[index[i]].tolist())
        for i in range(m - h - 1, -1, -1):
            yield tuple(texts[index[i, ::-1]].tolist())
