import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwherald.polynomials import poly_eval

# coefficient tables up to 5x5 whose entries are often exactly zero
_entries = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
_tables = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(float, shape, elements=_entries)
)
_axes = st.integers(1, 6).flatmap(lambda n: arrays(float, n, elements=st.floats(-5.0, 5.0)))


def full_grid_poly_eval(c, x, p):
    """The same sum with every power taken as a full grid-sized array."""
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


class TestPolyEvalOnAxes:
    """Powers taken on the axes give the numbers of powers taken on the full grid."""

    @settings(max_examples=80, deadline=None)
    @given(c=_tables, xs=_axes, ps=_axes)
    def test_grid_equals_broadcast_grid(self, c, xs, ps):
        x, p = xs[None, :], ps[:, None]
        got = poly_eval(c, x, p)
        want = poly_eval(c, *np.broadcast_arrays(x, p))
        assert got.shape == (len(ps), len(xs))
        assert np.array_equal(got, want)
        assert np.array_equal(got, full_grid_poly_eval(c, x, p))

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
        assert np.array_equal(poly_eval(c, x, p), poly_eval(c, *np.broadcast_arrays(x, p)))
        want = sum(
            c[i, j] * xs[None, :] ** i * ps[:, None] ** j for i in range(5) for j in range(5)
        )
        assert np.allclose(poly_eval(c, x, p), want, rtol=1e-12, atol=1e-9)
