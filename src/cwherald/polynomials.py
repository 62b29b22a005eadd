"""Dense bivariate polynomials and zero-mean Gaussian moment reduction.

Polynomials in two variables are stored as dense coefficient tables
``c[i, j]`` multiplying ``x**i * p**j``.  Gaussian expectations of
polynomials are evaluated exactly through the Isserlis (Wick) recursion
for central moments, which is the workhorse behind every closed-form
phase-space integral in this package.
"""

from __future__ import annotations

from math import comb

import numpy as np


def poly_add(*polys: np.ndarray) -> np.ndarray:
    di = max(p.shape[0] for p in polys)
    dj = max(p.shape[1] for p in polys)
    out = np.zeros((di, dj))
    for p in polys:
        out[: p.shape[0], : p.shape[1]] += p
    return out


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0.0:
                out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def poly_eval(c: np.ndarray, x, p):
    """Evaluate sum_ij c[i,j] x^i p^j; broadcasts over array arguments."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.zeros(np.broadcast(x, p).shape)
    xp = np.ones_like(out)
    for i in range(c.shape[0]):
        pp = np.ones_like(out)
        for j in range(c.shape[1]):
            if c[i, j] != 0.0:
                out += c[i, j] * xp * pp
            pp = pp * p
        xp = xp * x
    return out


def central_moments(cov: np.ndarray, max_degree: int) -> np.ndarray:
    """Table m[a, b] = E[X^a P^b] for zero-mean Gaussian (X, P).

    Uses the Stein/Isserlis recursion
    ``m[a, b] = (a-1) Cxx m[a-2, b] + b Cxp m[a-1, b-1]`` (and its
    transpose for a = 0), exact for any degree.
    """
    cxx, cxp, cpp = cov[0, 0], cov[0, 1], cov[1, 1]
    m = np.zeros((max_degree + 1, max_degree + 1))
    m[0, 0] = 1.0
    for a in range(max_degree + 1):
        for b in range(max_degree + 1):
            if a == 0 and b == 0:
                continue
            if a > 0:
                acc = 0.0
                if a >= 2:
                    acc += (a - 1) * cxx * m[a - 2, b]
                if b >= 1:
                    acc += b * cxp * m[a - 1, b - 1]
                m[a, b] = acc
            else:
                m[a, b] = (b - 1) * cpp * m[0, b - 2] if b >= 2 else 0.0
    return m


def linear_form_power(coef_x: float, coef_p: float, n: int) -> np.ndarray:
    """Coefficient table of (coef_x * x + coef_p * p)^n."""
    out = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        out[k, n - k] = comb(n, k) * coef_x**k * coef_p ** (n - k)
    return out


def expected_poly_of_shifted_gaussian(
    w: np.ndarray, lin: np.ndarray, cov: np.ndarray
) -> np.ndarray:
    """E[w(m + Z)] as a polynomial in the variables defining the mean.

    ``Z`` is zero-mean Gaussian with covariance ``cov`` and the mean is a
    linear map of the remaining variables, ``m = lin @ (x, p)``.  Returns
    the coefficient table of the resulting polynomial in (x, p); its
    total degree never exceeds that of ``w``.
    """
    deg = max(w.shape) - 1
    mom = central_moments(cov, deg)
    out = np.zeros((1, 1))
    mx_pow = [linear_form_power(lin[0, 0], lin[0, 1], n) for n in range(deg + 1)]
    mp_pow = [linear_form_power(lin[1, 0], lin[1, 1], n) for n in range(deg + 1)]
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            if w[a, b] == 0.0:
                continue
            acc = np.zeros((1, 1))
            for k in range(a + 1):
                for l in range(b + 1):
                    mkl = mom[k, l]
                    if mkl == 0.0:
                        continue
                    contrib = poly_mul(mx_pow[a - k], mp_pow[b - l])
                    acc = poly_add(acc, comb(a, k) * comb(b, l) * mkl * contrib)
            out = poly_add(out, w[a, b] * acc)
    return out


def gaussian_poly_integral(c: np.ndarray, sigma: np.ndarray) -> float:
    """Exact integral of poly(x, p) * exp(-(x,p) sigma^-1 (x,p)^T) over the plane.

    Equals ``pi sqrt(det sigma) E[poly]`` with (X, P) zero-mean Gaussian
    of covariance ``sigma / 2``.
    """
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    if det <= 0.0:
        raise ValueError("gaussian core is not positive definite")
    mom = central_moments(sigma / 2.0, max(c.shape) - 1)
    total = float(np.sum(c * mom[: c.shape[0], : c.shape[1]]))
    return np.pi * np.sqrt(det) * total
