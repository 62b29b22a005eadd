"""Shared test helpers: random physical covariances and brute-force oracles."""

import functools
import hashlib
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cwherald.coherence import CoherenceKernel, write_coherence_csv
from cwherald.covariance import CovarianceMatrix4
from cwherald.modes import NARROW_WINDOW_LIMIT, SecondMoments
from cwherald.quadrature import QuadAxis, correlation_moment, l2_norm_sq
from cwherald.wigner import TwoModeGaussianWigner, write_grid_csv
from cwherald.polynomials import poly_eval


def rot2(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeeze2(r, phi):
    R = rot2(phi)
    return R.T @ np.diag([np.exp(r), np.exp(-r)]) @ R


def beamsplit4(theta):
    c, s = np.cos(theta), np.sin(theta)
    eye = np.eye(2)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def random_physical_covariance(rng, squeeze_max=0.8, noise=0.2):
    """Random physical 4x4 covariance: symplectic on vacuum plus classical noise.

    V = S S^T is the covariance of a pure Gaussian state for symplectic S;
    adding a positive semidefinite term keeps V + i Omega >= 0.
    """
    s1 = squeeze2(rng.uniform(-squeeze_max, squeeze_max), rng.uniform(0, np.pi))
    s2 = squeeze2(rng.uniform(-squeeze_max, squeeze_max), rng.uniform(0, np.pi))
    local = np.block(
        [[s1, np.zeros((2, 2))], [np.zeros((2, 2)), s2]]
    )
    S = beamsplit4(rng.uniform(0, 2 * np.pi)) @ local
    v = S @ S.T
    if noise > 0:
        w = rng.normal(size=(4, 2)) * noise
        v = v + w @ w.T
    return CovarianceMatrix4(v)


def brute_force_trigger_integral(v, weight_coeffs, pts, order=140):
    """2-D Gauss-Legendre quadrature of weight(x1,p1) W_V over the trigger plane.

    One value per output point (x2, p2), a row of ``pts``; all points share
    one evaluation of the Gaussian, so V is inverted once.
    """
    trig = v.m[:2, :2]
    half = 7.5 * np.sqrt(np.max(np.linalg.eigvalsh(trig)) / 2.0)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = half * nodes
    wts = half * weights
    xx, pp = np.meshgrid(t, t, indexing="ij")
    trigger_plane = np.stack([xx, pp], axis=-1)[None]
    outputs = np.asarray(pts, dtype=float)[:, None, None, :]
    y = np.concatenate(np.broadcast_arrays(trigger_plane, outputs), axis=-1)
    wv = TwoModeGaussianWigner(v).evaluate(y)
    vals = poly_eval(weight_coeffs, xx, pp) * wv
    return wts @ vals @ wts


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def cell9(v) -> str:
    """One number formatted on its own at 9 significant digits, -0.0 as 0."""
    v = float(v)
    return f"{0.0 if v == 0.0 else v:.9g}"


def assert_same_text(got: str, want: str) -> None:
    """Assert equal texts, naming the first line that differs.

    A plain ``==`` on megabyte files makes pytest diff them in full on
    failure, which takes minutes.
    """
    if got != want:
        for i, (a, b) in enumerate(itertools.zip_longest(got.split("\n"), want.split("\n"))):
            assert a == b, f"line {i + 1}"


def grid_csv_text(xs, ps, w) -> str:
    """Reference text of ``wigner_grid.csv``, built one cell at a time."""
    return "x,p,w\n" + "".join(
        f"{cell9(x)},{cell9(p)},{cell9(w[i, j])}\n"
        for i, p in enumerate(ps)
        for j, x in enumerate(xs)
    )


def coherence_csv_text(ts, g) -> str:
    """Reference text of ``coherence.csv``, built one cell at a time."""
    return "t,tp,g\n" + "".join(
        f"{cell9(t)},{cell9(tp)},{cell9(g[i, j])}\n"
        for i, t in enumerate(ts)
        for j, tp in enumerate(ts)
    )


def assert_csv_writers(tmp_path, xs, ps, table):
    """Write ``table`` through both CSV writers and check each file cell by cell.

    The grid file takes ``xs`` for columns and ``ps`` for rows.  The
    coherence file labels both axes with one time grid, here ``ps``, so a
    non-square table goes through the grid writer only.  Returns the two
    texts, the coherence one None for a non-square table.
    """
    table = np.asarray(table, dtype=float)
    write_grid_csv(tmp_path / "grid.csv", xs, ps, table)
    grid = (tmp_path / "grid.csv").read_text()
    assert_same_text(grid, grid_csv_text(xs, ps, table))
    if table.shape[0] != table.shape[1]:
        return grid, None
    write_coherence_csv(tmp_path / "coherence.csv", CoherenceKernel(grid=ps, g=table, t_c=0.0))
    coherence = (tmp_path / "coherence.csv").read_text()
    assert_same_text(coherence, coherence_csv_text(ps, table))
    return grid, coherence


# Closed-form double integrals of exponential mode pairs against exp(-r|t-t'|),
# by antiderivative evaluation over the sign regions:
#   causal-causal   II_{t,t'<0} e^{g(t+t')} e^{-r|t-t'|}           = 1/(g (g+r))
#   causal-symmetric Int_{t<0} e^{gt} Int e^{-b|t'|} e^{-r|t-t'|}  = 2(b+g+r)/((b+g)(b+r)(g+r))
#   symmetric pair   II e^{-a(|t|+|t'|)} e^{-r|t-t'|}              = 2(2a+r)/(a (a+r)^2)
def causal_causal(g, r):
    return 1.0 / (g * (g + r))


def causal_symmetric(g, b, r):
    return 2.0 * (b + g + r) / ((b + g) * (b + r) * (g + r))


def symmetric_pair(a, r):
    return 2.0 * (2.0 * a + r) / (a * (a + r) ** 2)


def _phi(x, lib=math):
    """(1 - e^{-x}) / x, continued to 1 at x = 0."""
    return 1.0 if x == 0.0 else -lib.expm1(-x) / x


def _one_minus_phi(x, lib=math):
    """1 - phi(x), by its series sum_{k>=1} (-1)^{k+1} x^k / (k+1)! below
    x = 0.5, where the subtraction would lose about log10(2/x) digits."""
    if x >= 0.5:
        return 1.0 - _phi(x, lib)
    total, term = 0.0, 0.5 * x
    for k in range(1, 20):
        total += term
        term *= -x / (k + 2)
    return total


# The shipped reading pairs a rectangular window of width w centred at 0 with
# a symmetric exponential e^{-a|t|} centred at 0.  With L = w/2:
#   window pair       II_{|t|,|t'|<L} e^{-r|t-t'|}            = (2w/r)(1 - phi(rw))
#   window-symmetric  Int_{|t|<L} Int e^{-a|t'|} e^{-r|t-t'|}
#       = (4/r) sinh(rL) e^{-(a+r)L}/(a+r)                       (|t'| > L)
#       + (2L/r)[2 phi(aL) - e^{-rL}(phi((a-r)L) + phi((a+r)L))] (|t'| < L)
# Neither form divides by r - a, so both stay exact when a equals a kernel rate
# (the partial-fraction form 1/(r^2 - a^2) does not).
def window_pair(w, r, lib=math):
    return 2.0 * w / r * _one_minus_phi(r * w, lib)


def window_symmetric(w, a, r, lib=math):
    half = 0.5 * w
    outside = 4.0 / r * lib.sinh(r * half) * lib.exp(-(a + r) * half) / (a + r)
    inside = (2.0 * half / r) * (
        2.0 * _phi(a * half, lib)
        - lib.exp(-r * half) * (_phi((a - r) * half, lib) + _phi((a + r) * half, lib))
    )
    return outside + inside


def window_moment_oracle(eps, alpha, tap, width, reflect, lib=math):
    """Exact (a, b) moment matrices for the shipped reading of the OPO fixtures:
    a rectangular trigger window (width ``width``, height tap/sqrt(width))
    and the output envelope reflect sqrt(alpha) e^{-alpha|t|}, both centred at 0.

    ``lib`` supplies exp, expm1, sinh and sqrt: ``math`` gives float arrays,
    ``mpmath.mp`` (with mpf arguments) object arrays at its working precision."""
    lam, mu = 0.5 + eps, 0.5 - eps
    scale = (lam**2 - mu**2) / 4.0
    c1 = tap / lib.sqrt(width)
    c2 = reflect * lib.sqrt(alpha)
    forms = (
        (0, 0, lambda r: c1**2 * window_pair(width, r, lib)),
        (0, 1, lambda r: c1 * c2 * window_symmetric(width, alpha, r, lib)),
        (1, 1, lambda r: c2**2 * symmetric_pair(alpha, r)),
    )
    dtype = float if lib is math else object
    a = np.zeros((2, 2), dtype=dtype)
    b = np.zeros((2, 2), dtype=dtype)
    for i, j, f in forms:
        slow, fast = f(mu) / (2 * mu), f(lam) / (2 * lam)
        a[i, j] = a[j, i] = scale * (slow + fast)
        b[i, j] = b[j, i] = scale * (slow - fast)
    return a, b


def parabolic_grid_argmin(f, lo, hi, step):
    """Argmin of f on [lo, hi]: dense grid of spacing <= step, then the vertex
    of the parabola through the lowest sample and its two neighbours."""
    n = int(math.ceil((hi - lo) / step)) + 1
    xs = np.linspace(lo, hi, n)
    ys = np.array([f(x) for x in xs])
    k = int(np.argmin(ys))
    if k in (0, n - 1):
        return float(xs[k])
    y0, y1, y2 = ys[k - 1 : k + 2]
    return float(xs[k] + 0.5 * (xs[1] - xs[0]) * (y0 - y2) / (y0 - 2.0 * y1 + y2))


def opo_moment_oracle(kind, eps, gamma, alpha, c1, c2):
    """Exact moments for a causal-exp trigger (rate gamma, amplitude c1) and
    a symmetric-exp output (rate alpha, amplitude c2 sqrt(alpha))."""
    lam, mu = 0.5 + eps, 0.5 - eps
    scale = (lam**2 - mu**2) / 4.0
    forms = {
        "11": lambda r: c1**2 * causal_causal(gamma, r),
        "12": lambda r: c1 * c2 * np.sqrt(alpha) * causal_symmetric(gamma, alpha, r),
        "22": lambda r: c2**2 * alpha * symmetric_pair(alpha, r),
    }
    f = forms[kind]
    plus = scale * (f(mu) / (2 * mu) + f(lam) / (2 * lam))
    minus = scale * (f(mu) / (2 * mu) - f(lam) / (2 * lam))
    return plus, minus  # (a-moment, b-moment)


# Reference amplitudes of the built-in modes, written as callables apart from
# the pieces the program builds, so that quadrature over them is an
# independent check of the closed-form moments.  Supports follow half-infinite
# tails for TRUNCATION_DECADES e-folds of the truncation rate.
TRUNCATION_DECADES = 30.0


def quad_axis(amplitude, support, kinks=(), rate=0.0):
    """Quadrature axis over ``support``, with panel breakpoints at the kinks."""
    lo, hi = support
    pts = np.array(sorted({lo, hi, *kinks}))
    return QuadAxis(amplitude=amplitude, breakpoints=pts[(pts >= lo) & (pts <= hi)], rate=rate)


def trigger_axis(spec, source_fast_rate, truncation_rate=None):
    """Reference amplitude of ``build_trigger_mode(spec, source_fast_rate)``.

    The tail is followed to ``truncation_rate`` (default: the filter rate).
    """
    tau_eff = spec.tap_amplitude * np.sqrt(spec.detector_efficiency)
    dt = spec.window_width
    tc = spec.window_center

    if spec.filter_width is None:
        lo, hi = tc - dt / 2.0, tc + dt / 2.0
        height = tau_eff / np.sqrt(dt)

        def amp_rect(t):
            t = np.asarray(t, dtype=float)
            return np.where((t >= lo) & (t <= hi), height, 0.0)

        return quad_axis(amp_rect, (lo, hi))

    gamma = spec.filter_width
    t_rate = min(gamma, truncation_rate) if truncation_rate else gamma
    tail = TRUNCATION_DECADES / t_rate
    if dt * max(gamma, source_fast_rate) <= NARROW_WINDOW_LIMIT:
        scale = tau_eff * np.sqrt(dt) * gamma

        def amp_collapsed(t):
            t = np.asarray(t, dtype=float)
            return np.where(t <= tc, scale * np.exp(-gamma * np.clip(tc - t, 0.0, None)), 0.0)

        return quad_axis(amp_collapsed, (tc - tail, tc), rate=gamma)

    lo_w, hi_w = tc - dt / 2.0, tc + dt / 2.0
    pref = tau_eff / np.sqrt(dt)

    def amp_explicit(t):
        t = np.asarray(t, dtype=float)
        upper = 1.0 - np.exp(-gamma * np.clip(hi_w - t, 0.0, None))
        lower = np.exp(-gamma * np.clip(lo_w - t, 0.0, None)) - np.exp(
            -gamma * np.clip(hi_w - t, 0.0, None)
        )
        return pref * np.where(t > hi_w, 0.0, np.where(t >= lo_w, upper, lower))

    return quad_axis(amp_explicit, (lo_w - tail, hi_w), kinks=(lo_w,), rate=gamma)


@functools.cache
def _envelope_dir():
    # made on first use and removed when the interpreter exits
    return tempfile.TemporaryDirectory(prefix="cwherald-envelopes-")


def envelope_table(ts, us):
    """Path of a two-column (t, u) file for a tabulated envelope, named by its content.

    ``savetxt``'s default 19 significant digits read back bit for bit.
    """
    data = np.column_stack([ts, us])
    path = Path(_envelope_dir().name) / f"{hashlib.sha1(data.tobytes()).hexdigest()}.txt"
    np.savetxt(path, data)
    return str(path)


def output_axis(spec, truncation_rate=None, refl=1.0):
    """Reference amplitude of ``build_output_mode(spec)``, every piece scaled by ``refl``.

    The exponential envelope's tails are followed to ``truncation_rate``
    (default: ``alpha``).
    """
    if spec.envelope == "exponential":
        alpha = float(spec.alpha)
        tc = spec.center
        t_rate = min(alpha, truncation_rate) if truncation_rate else alpha
        tail = TRUNCATION_DECADES / t_rate
        scale = refl * np.sqrt(alpha)

        def amp(t):
            t = np.asarray(t, dtype=float)
            return scale * np.exp(-alpha * np.abs(t - tc))

        return quad_axis(amp, (tc - tail, tc + tail), kinks=(tc,), rate=alpha)

    ts, us = np.loadtxt(spec.table, unpack=True)
    h = np.diff(ts)
    un = us / np.sqrt(np.sum(h * (us[:-1] ** 2 + us[:-1] * us[1:] + us[1:] ** 2) / 3.0))
    ts = ts + spec.center

    def amp_tab(t):
        t = np.asarray(t, dtype=float)
        return refl * np.interp(t, ts, un, left=0.0, right=0.0)

    return quad_axis(amp_tab, (float(ts[0]), float(ts[-1])), kinks=tuple(ts[1:-1]))


def quadrature_moments(ax1, ax2, kernel):
    """Second moments of two reference axes by double quadrature (rtol 1e-8)."""
    axes = (ax1, ax2)
    a = np.zeros((2, 2))
    b = np.zeros((2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        a[i, j] = a[j, i] = correlation_moment(axes[i], axes[j], kernel.c_aa, kernel.fast_rate)
        b[i, j] = b[j, i] = correlation_moment(axes[i], axes[j], kernel.c_ada, kernel.fast_rate)
    return SecondMoments(a=a, b=b)


def piece_values(pieces, t):
    """The program's piecewise amplitude at ``t``, each piece on [lo, hi)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for p in pieces:
        inside = (t >= p.lo) & (t < p.hi)
        d = np.where(inside, t - p.anchor, 0.0)
        out += np.where(inside, p.coeff * d**p.power * np.exp(p.rate * d), 0.0)
    return out


def pieces_norm_sq(pieces):
    """Int f^2 dt of the program's pieces, by quadrature over :func:`piece_values`.

    Panels break at every finite piece end; half-infinite tails are
    followed for TRUNCATION_DECADES e-folds of their slowest rate.
    """
    ends = [e for p in pieces for e in (p.lo, p.hi)]
    kinks = sorted(e for e in set(ends) if np.isfinite(e))
    rates = [abs(float(p.rate)) for p in pieces]
    tails = [r for r, p in zip(rates, pieces) if np.isinf(p.hi - p.lo)]
    reach = TRUNCATION_DECADES / min(tails) if tails else 0.0
    lo = kinks[0] - reach if -np.inf in ends else kinks[0]
    hi = kinks[-1] + reach if np.inf in ends else kinks[-1]
    axis = quad_axis(lambda t: piece_values(pieces, t), (lo, hi), kinks, rate=max(rates))
    return l2_norm_sq(axis)
