import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwherald.polynomials import poly_eval

# coefficient tables up to 5x5 whose entries are often exactly zero
_entries = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
_tables = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(float, shape, elements=_entries)
)
_axes = st.integers(1, 6).flatmap(lambda n: arrays(float, n, elements=st.floats(-5.0, 5.0)))
_cuts = st.tuples(st.integers(0, 6), st.integers(0, 6))


def full_grid_poly_eval(c, x, p):
    """The sum of the nonzero entries in row-major order, every power a full grid-sized array."""
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


def scattered_poly_eval(c, x, p):
    """``poly_eval`` on the mesh's points as a flat list, which takes the broadcast sum."""
    xx, pp = np.broadcast_arrays(x, p)
    return poly_eval(c, xx.ravel(), pp.ravel()).reshape(xx.shape)


def assert_within_roundings(got, want, c, x, p):
    """``|got - want| <= n eps sum_ij |c_ij x^i p^j|`` cell by cell, n = rows + cols + rows * cols.

    Either sum is within about ``n/2`` eps of that absolute sum of the
    exact one: a term's powers and products take at most ``rows + cols``
    roundings and the sum of ``rows * cols`` terms as many more.  Measured
    on 6000 random tables to 9x9 and meshes to 29x29, the two sums differed
    by at most 5.9 eps of it.
    """
    rows, cols = c.shape
    size = (rows + cols + rows * cols) * np.finfo(float).eps
    absolute = sum(
        abs(c[a, b]) * np.abs(x) ** a * np.abs(p) ** b for a in range(rows) for b in range(cols)
    )
    assert np.all(np.abs(got - want) <= size * absolute)


class TestPolyEvalOnAxes:
    """The mesh's matrix products agree with the broadcast sum within its roundings,
    and a cell's float does not depend on the mesh around it."""

    @settings(max_examples=80, deadline=None)
    @given(c=_tables, xs=_axes, ps=_axes)
    def test_grid_equals_broadcast_grid(self, c, xs, ps):
        x, p = xs[None, :], ps[:, None]
        got = poly_eval(c, x, p)
        want = scattered_poly_eval(c, x, p)
        assert got.shape == (len(ps), len(xs))
        # the broadcast sum keeps the row-major order of the full-grid replica
        assert np.array_equal(want, full_grid_poly_eval(c, x, p))
        assert_within_roundings(got, want, c, x, p)

    @settings(max_examples=80, deadline=None)
    @given(c=_tables, xs=_axes, ps=_axes, x_cut=_cuts, p_cut=_cuts)
    # numpy sums a product with one row or column in a matrix-vector routine,
    # in another order than a matrix product and by the row's length: these
    # differ in the last bit unless a one-point axis and a one-column table
    # are padded to two
    @example(
        c=np.full((1, 5), 9.0), xs=np.zeros(4), ps=np.array([-0.68982569]),
        x_cut=(0, 1), p_cut=(0, 1),
    )
    @example(
        c=np.array([[0.3], [-4.3], [-8.9], [0.0]]), xs=np.array([1.5, -2.7, -0.7, 4.7, 4.0]),
        ps=np.array([3.4]), x_cut=(3, 4), p_cut=(0, 1),
    )
    def test_sub_mesh_equals_its_cells(self, c, xs, ps, x_cut, p_cut):
        # the parity blocks of evaluate_grid rely on this
        x0, x1 = sorted(min(k, len(xs)) for k in x_cut)
        p0, p1 = sorted(min(k, len(ps)) for k in p_cut)
        if x0 == x1 or p0 == p1:
            return
        whole = poly_eval(c, xs[None, :], ps[:, None])
        block = poly_eval(c, xs[None, x0:x1], ps[p0:p1, None])
        assert block.tobytes() == whole[p0:p1, x0:x1].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(c=_tables, x=st.floats(-5.0, 5.0), p=st.floats(-5.0, 5.0))
    def test_point_equals_grid_cell(self, c, x, p):
        got = poly_eval(c, x, p)
        assert np.ndim(got) == 0
        assert got == poly_eval(c, np.full((2, 3), x), np.full((2, 3), p))[1, 2]

    def test_full_five_by_five_table(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(5, 5))
        c[1, 3] = c[4, 0] = 0.0
        xs, ps = np.linspace(-4.0, 4.0, 9), np.linspace(-3.0, 3.0, 7)
        x, p = xs[None, :], ps[:, None]
        got = poly_eval(c, x, p)
        assert_within_roundings(got, scattered_poly_eval(c, x, p), c, x, p)
        want = sum(
            c[i, j] * xs[None, :] ** i * ps[:, None] ** j for i in range(5) for j in range(5)
        )
        assert np.allclose(got, want, rtol=1e-12, atol=1e-9)
