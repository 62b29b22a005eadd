"""A 50-digit reference for every summary number of the shipped fixtures.

The fixtures' moments come from ``window_moment_oracle``'s closed forms in
mpmath at ``mp.dps = 50``.  The conditioned states take the Wigner-function
route, apart from the program's: the trigger weight (``2 pi W_n`` for
photon number n, ``1 - 2 pi W_0`` for on, ``(|y1|^2 - 1)/2`` for click) is
integrated against ``W_V``, and every summary number is a Gaussian integral
of a polynomial, summed term by term through the Isserlis recursion.  That
route builds ``V = I + 2N`` and subtracts the vacuum back out, which at 50
digits costs nothing that shows at 1e-12.
"""

import functools
import math
from dataclasses import replace
from pathlib import Path

import pytest
from mpmath import mp

from conftest import window_moment_oracle

from cwherald.config import MeasurementConfig, parse_config
from cwherald.covariance import assemble
from cwherald.metrics import SCALARS
from cwherald.modes import SecondMoments
from cwherald.pipeline import build_covariance, condition_state, run_experiment, summarize

mp.dps = 50
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"
RTOL = 1e-12
# A Fock fidelity is a probability summed from unit-sized Gaussian moments in
# which a small fidelity cancels (metrics.fock_fidelity).  On the exact
# figure-3 click state that sum alone is off by 8.6e-16, and the moments'
# 1e-15 rounding moves fidelity_fock0 of the n = 1 state by 1.3e-14, so a
# fidelity may also be off by a hundred ulps of 1.
FIDELITY_ATOL = 2e-14
# (eps, output loss) of each fixture; all four use click detection
FIXTURE_POINTS = {
    "figure3_upper": (0.01, 0.0),
    "figure3_lower": (0.01, 0.25),
    "figure4_upper": (0.2, 0.0),
    "figure4_lower": (0.2, 0.25),
}
KINDS = ("click", "number 0", "number 1", "number 2", "on")


def fixture_moments(eps):
    """The moments of the fixtures' shipped reading at source gain ``eps``, in mpmath."""
    tap = mp.mpf(0.1)
    return window_moment_oracle(
        mp.mpf(eps), mp.mpf(0.5), tap, mp.mpf(0.02), mp.sqrt(1 - tap**2), lib=mp
    )


def covariance(a, b, eta2):
    """``V = I + 2N`` from the moments, with output loss ``eta2``, as an mpmath matrix."""
    n = mp.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            n[2 * i, 2 * j] = a[i, j] + b[i, j]
            n[2 * i + 1, 2 * j + 1] = b[i, j] - a[i, j]
    damp = [1, 1, mp.sqrt(1 - mp.mpf(eta2)), mp.sqrt(1 - mp.mpf(eta2))]
    return mp.matrix(
        [[int(i == j) + 2 * damp[i] * damp[j] * n[i, j] for j in range(4)] for i in range(4)]
    )


def gaussian_integral(poly, m):
    """Integral of ``sum_k poly[k] y^k exp(-y^T m y)`` over R^d, ``k`` an exponent tuple."""
    d = m.rows
    cov = mp.inverse(m) / 2

    @functools.cache
    def moment(k):
        # Stein: E[y_i f(y)] = sum_j cov_ij E[d_j f(y)], f = y^(k - e_i)
        if not any(k):
            return mp.mpf(1)
        i = next(idx for idx, e in enumerate(k) if e)
        rest = list(k)
        rest[i] -= 1
        total = mp.mpf(0)
        for j in range(d):
            if rest[j]:
                lower = list(rest)
                lower[j] -= 1
                total += cov[i, j] * rest[j] * moment(tuple(lower))
        return total

    return mp.pi ** (mp.mpf(d) / 2) / mp.sqrt(mp.det(m)) * sum(c * moment(k) for k, c in poly.items())


def radial(coeffs):
    """``sum_j coeffs[j] (x^2 + p^2)^j`` as a two-variable polynomial."""
    poly = {}
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            key = (2 * i, 2 * (j - i))
            poly[key] = poly.get(key, 0) + c * math.comb(j, i)
    return poly


# 2 pi W_n = 2 (-1)^n L_n(2 r^2) exp(-r^2), Laguerre L_0 = 1, L_1 = 1 - x, L_2 = 1 - 2x + x^2/2
FOCK = {0: radial([1]), 1: radial([-1, 2]), 2: radial([1, -4, 2])}
# trigger weights as (polynomial in y1, coefficient of the extra exp(-|y1|^2))
WEIGHTS = {
    "click": [(radial([mp.mpf(-1) / 2, mp.mpf(1) / 2]), 0)],
    "number 0": [({k: 2 * c for k, c in FOCK[0].items()}, 1)],
    "number 1": [({k: 2 * c for k, c in FOCK[1].items()}, 1)],
    "number 2": [({k: 2 * c for k, c in FOCK[2].items()}, 1)],
    "on": [({(0, 0): 1}, 0), ({(0, 0): -2}, 1)],
}


def embed(poly, at, d):
    """A two-variable polynomial in variables ``at, at + 1`` of ``d``."""
    out = {}
    for (i, j), c in poly.items():
        k = [0] * d
        k[at], k[at + 1] = i, j
        out[tuple(k)] = c
    return out


def product(p, q):
    out = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            k = tuple(a + b for a, b in zip(kp, kq))
            out[k] = out.get(k, 0) + cp * cq
    return out


def block(m, rows, cols):
    return mp.matrix([[m[i, j] for j in cols] for i in rows])


def reference_summary(v, kind):
    """Every summary number of the output conditioned on ``kind``, from ``V`` (mpmath)."""
    vi = mp.inverse(v)
    norm = 1 / (mp.pi**2 * mp.sqrt(mp.det(v)))
    terms = []  # (weight polynomial in y1, exponent matrix of (y1, y2))
    for poly, extra in WEIGHTS[kind]:
        m = vi.copy()
        m[0, 0] += extra
        m[1, 1] += extra
        terms.append((poly, m))

    def output_integral(factor):
        """Integral of the unnormalised output times factor = (poly in y2, extra exp(-|y2|^2))."""
        poly2, extra2 = factor
        total = 0
        for poly, m in terms:
            m = m.copy()
            m[2, 2] += extra2
            m[3, 3] += extra2
            total += gaussian_integral(product(embed(poly, 0, 4), embed(poly2, 2, 4)), m)
        return norm * total

    mass = output_integral(({(0, 0): 1}, 0))
    origin = norm * sum(gaussian_integral(poly, block(m, (0, 1), (0, 1))) for poly, m in terms)
    out = {
        "probability": (v[0, 0] + v[1, 1] - 2) / 4 if kind == "click" else mass,
        "wigner_origin": origin / mass,
    }
    for n in (0, 1, 2):
        fock = {k: 2 * c for k, c in FOCK[n].items()}
        out[f"fidelity_fock{n}"] = output_integral((fock, 1)) / mass
    # 2 pi Int W_out^2: two copies of the trigger plane over one output plane
    sq = 0
    for pa, ma in terms:
        for pb, mb in terms:
            m = mp.zeros(6, 6)
            for (rows, src) in (((0, 1, 4, 5), ma), ((2, 3, 4, 5), mb)):
                for r, i in zip(rows, range(4)):
                    for c, j in zip(rows, range(4)):
                        m[r, c] += src[i, j]
            sq += gaussian_integral(product(embed(pa, 0, 6), embed(pb, 2, 6)), m)
    out["purity"] = 2 * mp.pi * norm**2 * sq / mass**2
    return out


@functools.cache
def reference(eps, eta2, kind):
    a, b = fixture_moments(eps)
    return reference_summary(covariance(a, b, eta2), kind)


def measured(stem, kind):
    cfg = parse_config(FIXTURES / f"{stem}.cfg")
    name, _, n = kind.partition(" ")
    cfg = replace(cfg, measurement=MeasurementConfig(kind=name, n=int(n or 0)))
    return summarize(cfg, condition_state(cfg, build_covariance(cfg)))


def assert_matches(got, want, keys=tuple(SCALARS)):
    assert tuple(got) == tuple(SCALARS)
    for key in keys:
        exact = float(want[key])
        atol = FIDELITY_ATOL if key.startswith("fidelity") else 0.0
        assert abs(got[key] - exact) <= RTOL * abs(exact) + atol, (key, got[key], exact)


@pytest.mark.parametrize("stem", list(FIXTURE_POINTS))
def test_fixture_summary_equals_reference(stem):
    cfg = parse_config(FIXTURES / f"{stem}.cfg")
    assert_matches(run_experiment(cfg).summary, reference(*FIXTURE_POINTS[stem], "click"))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("stem", list(FIXTURE_POINTS))
def test_every_outcome_equals_reference(stem, kind):
    # the on state is the difference of two Gaussians each 1/p_on times its
    # size, so only its probability is exact at low trigger flux
    keys = ("probability",) if kind == "on" else tuple(SCALARS)
    assert_matches(measured(stem, kind), reference(*FIXTURE_POINTS[stem], kind), keys)


@pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-5, 1e-7, 1e-10])
def test_weak_trigger_ladder_keeps_the_click_state(s):
    # scaling the trigger mode by s leaves the click state as it is; from
    # s = 1e-5 down the trigger occupation (4e-18) is below the rounding of V
    a, b = fixture_moments(0.01)
    moments = SecondMoments(a=a.astype(float), b=b.astype(float)).scaled_trigger(s)
    cfg = parse_config(FIXTURES / "figure3_upper.cfg")
    got = summarize(cfg, condition_state(cfg, assemble(moments)))
    want = reference(0.01, 0.0, "click")
    assert_matches(got, dict(want, probability=want["probability"] * s**2))
