"""Dense bivariate polynomials and zero-mean Gaussian moment reduction.

Polynomials in two variables are stored as dense coefficient tables
``c[i, j]`` multiplying ``x**i * p**j``.  Gaussian expectations of
polynomials are evaluated exactly through the Isserlis (Wick) recursion
for central moments: :class:`GaussianCore` integrates every term
against its moment table, and :func:`expected_poly_of_shifted_gaussian`
expands any weight over a shifted Gaussian.  The conditioners take
their trigger weights in closed form instead (see
:mod:`cwherald.conditioning`); the generic expansion serves
:func:`~cwherald.wigner.integrate_out_trigger` and is the tests' oracle
for those closed forms.

A family of K polynomials or 2x2 covariances is a stack with one leading
axis, ``c[k, i, j]`` or ``cov[k, :, :]``.  The functions here take stacks
as well as single tables, a single table going with every member of a
stack, and do the same arithmetic on each member as on a single table:
a stacked result equals the results member by member exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np


def per_member(x):
    """A 0-d result as a Python scalar; a family's array of results unchanged."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def any_member(mask) -> bool:
    """Whether a check holds for a single value, or for any member of a family.

    A single value skips numpy's reduction machinery, which costs more
    than the check itself.
    """
    return bool(mask) if np.ndim(mask) == 0 else bool(mask.any())


def _family_shape(*tables: np.ndarray) -> tuple:
    """The leading shape of the stacks among ``tables``, () if all are single."""
    return max((t.shape[:-2] for t in tables), key=len)


def det2(m):
    """Determinant of a 2x2 matrix, or of each member of a stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def nonzero_entries(table: np.ndarray) -> list[tuple[int, int]]:
    """(i, j) of every entry that is nonzero in some member, in row-major order."""
    nz = table != 0.0
    if nz.ndim > 2:
        nz = nz.any(axis=0)
    di, dj = nz.shape
    return [(i, j) for i in range(di) for j in range(dj) if nz[i, j]]


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    bi, bj = b.shape[-2:]
    out = np.zeros(_family_shape(a, b) + (a.shape[-2] + bi - 1, a.shape[-1] + bj - 1))
    # transposed, a family axis comes last, where an entry of a (a number or
    # one per member) broadcasts against b; a single b gets a unit family axis
    at, bt, out_t = a.T, b.T if b.ndim >= a.ndim else b.T[..., None], out.T
    for i, j in nonzero_entries(a):
        out_t[j : j + bj, i : i + bi] += at[j, i] * bt
    return out


def poly_eval(c: np.ndarray, x, p):
    """Evaluate sum_ij c[i,j] x^i p^j of one table; broadcasts over array arguments.

    On a mesh, ``x`` a ``(1, n)`` row and ``p`` an ``(m, 1)`` column, the
    table is ``P @ (X @ c).T`` with ``X[a, i] = x_a^i`` and ``P[b, j] = p_b^j``,
    each axis's powers taken once by repeated multiplication: two small
    matrix products, see :func:`_mesh_eval`.  Any other shape, scattered
    points included, sums the nonzero entries' products ``c[i,j] x^i p^j``
    in row-major order on the broadcast shape.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.ndim == p.ndim == 2 and x.shape[0] == p.shape[1] == 1:
        return _mesh_eval(c, x[0], p[:, 0])
    out = np.zeros(np.broadcast(x, p).shape)
    xpow, ppow = [np.ones_like(x)], [np.ones_like(p)]
    for i, j in nonzero_entries(c):
        while len(xpow) <= i:
            xpow.append(xpow[-1] * x)
        while len(ppow) <= j:
            ppow.append(ppow[-1] * p)
        out += c[i, j] * xpow[i] * ppow[j]
    return out


def _mesh_eval(c: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """``P @ (X @ c).T`` on the mesh of axes ``xs`` and ``ps``, shape (len(ps), len(xs)).

    numpy hands a product with one row or one column to a matrix-vector
    routine, which sums in another order than the matrix product; so a
    one-point axis or a one-column table is padded to two, and a cell's
    float does not depend on the extent of the mesh around it.  A constant
    table is its one entry on every cell.
    """
    if c.shape == (1, 1):
        return np.full((ps.size, xs.size), c[0, 0])
    if c.shape[1] == 1:
        c = np.concatenate((c, np.zeros_like(c)), axis=1)
    x_pow, p_pow = _axis_powers(xs, c.shape[0]), _axis_powers(ps, c.shape[1])
    return (p_pow.T @ (c.T @ x_pow))[: ps.size, : xs.size]


def _axis_powers(v: np.ndarray, count: int) -> np.ndarray:
    """Rows ``v**0, ..., v**(count - 1)`` by repeated multiplication, over at least two points."""
    if v.size == 1:
        v = np.repeat(v, 2)
    out = np.empty((count, v.size))
    out[0] = 1.0
    for k in range(1, count):
        np.multiply(out[k - 1], v, out=out[k])
    return out


def central_moments(cov: np.ndarray, max_degree: int) -> np.ndarray:
    """Table m[a, b] = E[X^a P^b] for zero-mean Gaussian (X, P).

    Uses the Stein/Isserlis recursion
    ``m[a, b] = (a-1) Cxx m[a-2, b] + b Cxp m[a-1, b-1]`` (and its
    transpose for a = 0), exact for any degree.  The recursion runs on the
    (a, b) entries, each a number or the family's vector of K numbers; a
    single covariance's numbers are Python floats, which do the same IEEE
    operations as numpy's scalars without their overhead.
    """
    cxx, cxp, cpp = cov[..., 0, 0][()], cov[..., 0, 1][()], cov[..., 1, 1][()]
    if np.ndim(cxx) == 0:
        cxx, cxp, cpp = float(cxx), float(cxp), float(cpp)
        m = [[0.0] * (max_degree + 1) for _ in range(max_degree + 1)]
    else:
        m = np.zeros((max_degree + 1, max_degree + 1) + cxx.shape)
    m[0][0] = 1.0
    for a in range(max_degree + 1):
        for b in range(max_degree + 1):
            if a == 0 and b == 0:
                continue
            if a > 0:
                acc = 0.0
                if a >= 2:
                    acc += (a - 1) * cxx * m[a - 2][b]
                if b >= 1:
                    acc += b * cxp * m[a - 1][b - 1]
                m[a][b] = acc
            else:
                m[a][b] = (b - 1) * cpp * m[0][b - 2] if b >= 2 else 0.0
    if isinstance(m, list):
        return np.array(m)
    return np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))


def _powers(x, degree: int) -> list:
    """``[x**0, ..., x**degree]`` elementwise, each by the C library's ``pow``.

    That is what a Python or numpy float's ``**`` computes; numpy's array
    power rounds a few results differently, so a family's powers are taken
    one float at a time.
    """
    if np.ndim(x) == 0:
        x = float(x)
        return [x**n for n in range(degree + 1)]
    values = x.tolist()
    return [np.array([v**n for v in values]) for n in range(degree + 1)]


def linear_form_powers(coef_x, coef_p, degree: int) -> list[np.ndarray]:
    """Coefficient tables of (coef_x * x + coef_p * p)^n for n = 0..degree.

    Arrays of coefficients (one pair per family member) give stacked tables.
    """
    px, pp = _powers(coef_x, degree), _powers(coef_p, degree)
    tables = []
    for n in range(degree + 1):
        out = np.zeros(np.shape(coef_x) + (n + 1, n + 1))
        for k in range(n + 1):
            out[..., k, n - k] = comb(n, k) * px[k] * pp[n - k]
        tables.append(out)
    return tables


def expected_poly_of_shifted_gaussian(
    w: np.ndarray, lin: np.ndarray, cov: np.ndarray
) -> np.ndarray:
    """E[w(m + Z)] as a polynomial in the variables defining the mean.

    ``Z`` is zero-mean Gaussian with covariance ``cov`` and the mean is a
    linear map of the remaining variables, ``m = lin @ (x, p)``.  Returns
    the coefficient table of the resulting polynomial in (x, p); its
    total degree never exceeds that of ``w``.  Stacks of ``w``, ``lin``
    and ``cov`` give one table per member.  Each product of powers of the
    mean's two components is formed once per call.
    """
    deg = max(w.shape[-2:]) - 1
    mom = central_moments(cov, deg)
    moment_nonzero = nonzero_entries(mom)
    mx_pow = linear_form_powers(lin[..., 0, 0], lin[..., 0, 1], deg)
    mp_pow = linear_form_powers(lin[..., 1, 0], lin[..., 1, 1], deg)
    products = {}  # (i, j) -> poly_mul(mx_pow[i], mp_pow[j])
    terms = nonzero_entries(w)
    top = max((a + b for a, b in terms), default=0) + 1
    out = np.zeros(_family_shape(w, lin, cov) + (top, top))
    for a, b in terms:
        # E[(mx + zx)^a (mp + zp)^b], expanded binomially over the moments of Z
        acc = np.zeros(out.shape[:-2] + (a + b + 1, a + b + 1))
        for k, l in moment_nonzero:
            if k <= a and l <= b:
                contrib = products.get((a - k, b - l))
                if contrib is None:
                    contrib = products[a - k, b - l] = poly_mul(mx_pow[a - k], mp_pow[b - l])
                ci, cj = contrib.shape[-2:]
                acc[..., :ci, :cj] += comb(a, k) * comb(b, l) * mom[..., k, l, None, None] * contrib
        out[..., : a + b + 1, : a + b + 1] += w[..., a, b, None, None] * acc
    return out


def gaussian_poly_integral(c: np.ndarray, sigma: np.ndarray):
    """Exact integral of poly(x, p) * exp(-(x,p) sigma^-1 (x,p)^T) over the plane."""
    return GaussianCore(sigma).integral(c)


# a core's moment table covers a degree-4 polynomial, the highest any conditioner makes, squared
MOMENT_DEGREE = 8


@dataclass(frozen=True, eq=False)
class GaussianCore:
    """The Gaussian ``exp(-(x,p) sigma^-1 (x,p)^T)`` that polynomial terms multiply.

    ``sigma`` is a 2x2 matrix, or a (K, 2, 2) stack for a family, held as
    a read-only copy.  Terms on one core share it, and it computes
    :attr:`sigma_inv`, its moment table and its product with each other
    core at most once, when first needed, for all of them.  A product core
    also keeps, for each read-only table ``b`` it has met in
    :meth:`overlap` (the Fock tables), the contraction of ``b`` with its
    moment table.
    """

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        """``sigma^-1``, the quadratic form in the exponent."""
        return np.linalg.inv(self.sigma)

    @cached_property
    def _moments(self) -> tuple:
        """``pi sqrt(det sigma)``, ``sigma / 2`` and its moment table to :data:`MOMENT_DEGREE`."""
        det = det2(self.sigma)
        if any_member(det <= 0.0):
            raise ValueError("gaussian core is not positive definite")
        half = self.sigma / 2.0
        return np.pi * np.sqrt(det), half, central_moments(half, MOMENT_DEGREE)

    def integral(self, c: np.ndarray):
        """Integral of ``c`` times this Gaussian over the plane, one per member.

        ``pi sqrt(det sigma) E[c]`` with (X, P) of covariance ``sigma / 2``.
        A moment entry reads only lower entries, so the kept table's corner
        serves any lower degree; a higher degree gets a table of its own.
        """
        scale, half, table = self._moments
        degree = max(c.shape[-2:]) - 1
        if degree > MOMENT_DEGREE:
            table = central_moments(half, degree)
        return scale * (c * table[..., : c.shape[-2], : c.shape[-1]]).sum(axis=(-2, -1))

    def overlap(self, a: np.ndarray, b: np.ndarray):
        """Integral of ``a * b`` times this Gaussian, as a bilinear form; one per member.

        ``scale * sum(a * T_b)`` with ``T_b[i, j] = sum_kl b[k, l] m[i + k, j + l]``,
        in the terms of :meth:`integral`, so the product table ``a * b`` is
        never formed.  A read-only ``b`` is taken to be fixed: its ``T_b``
        is contracted once, over the whole moment table, and kept for any
        later ``a``; it holds the floats a contraction on ``a``'s extent gives.
        """
        scale, half, table = self._moments
        (ai, aj), (bi, bj) = a.shape[-2:], b.shape[-2:]
        degree = max(ai + bi, aj + bj) - 2
        if degree > MOMENT_DEGREE:
            contracted = _contract(b, central_moments(half, degree), ai, aj)
        elif b.flags.writeable:
            contracted = _contract(b, table, ai, aj)
        else:
            kept = self.__dict__.setdefault("_contractions", {})
            if id(b) not in kept:  # b is kept with its table, so its id is not reused
                span = MOMENT_DEGREE + 2
                kept[id(b)] = b, _contract(b, table, span - bi, span - bj)
            contracted = kept[id(b)][1]
        return scale * (a * contracted[..., :ai, :aj]).sum(axis=(-2, -1))

    def times(self, other: "GaussianCore") -> "GaussianCore":
        """The core of ``(sigma^-1 + sigma'^-1)^-1``, made once per pair and kept on both.

        The sum commutes exactly, so the partner's kept product is this one.
        """
        kept = self.__dict__.setdefault("_products", {})
        if other not in kept:
            product = other.__dict__.get("_products", {}).get(self)
            if product is None:
                product = GaussianCore(np.linalg.inv(self.sigma_inv + other.sigma_inv))
            kept[other] = product
        return kept[other]


def _contract(b: np.ndarray, table: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``T[..., i, j] = sum_kl b[..., k, l] table[..., i + k, j + l]`` for i < rows, j < cols.

    Summed over ``b``'s nonzero entries in row-major order, each a product
    of a shifted slice of ``table``, so every member of a family gets the
    arithmetic it gets alone.
    """
    out = np.zeros(_family_shape(b, table) + (rows, cols))
    for k, l in nonzero_entries(b):
        out += b[..., k, l, None, None] * table[..., k : k + rows, l : l + cols]
    return out
