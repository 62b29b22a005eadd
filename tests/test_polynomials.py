import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cwherald import polynomials
from cwherald.polynomials import central_moments, det2, inv2, poly_eval

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


def all_entries_central_moments(cov, max_degree):
    """The Stein/Isserlis recursion over every (a, b), odd a + b included."""
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


class TestCentralMoments:
    """Only the even-degree entries are formed; the table keeps every bit."""

    @pytest.mark.parametrize("family", [(), (3,)])
    def test_same_bytes_as_every_entry(self, family):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.normal(size=family + (2, 2)) * rng.uniform(0.05, 3.0)
            cov = a @ np.swapaxes(a, -1, -2) + 1e-3 * np.eye(2)
            degree = int(rng.integers(0, 10))
            got = central_moments(cov, degree)
            assert got.tobytes() == all_entries_central_moments(cov, degree).tobytes()
            odd = (np.add.outer(np.arange(degree + 1), np.arange(degree + 1)) % 2).astype(bool)
            assert got[..., odd].tobytes() == np.zeros(got[..., odd].shape).tobytes()


class TestInv2:
    """The adjugate over the determinant: exactly symmetric, member by member."""

    @pytest.mark.parametrize("skew", [0, 1], ids=["symmetric", "one-ulp-skew"])
    def test_symmetric_and_accurate(self, skew):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(200, 2, 2)) * rng.uniform(0.05, 3.0, size=(200, 1, 1))
        m = a @ a.swapaxes(-1, -2) + 1e-2 * np.eye(2)
        if skew:
            m[:, 1, 0] = np.nextafter(m[:, 1, 0], np.inf)
        got = inv2(m)
        assert np.array_equal(got[:, 0, 1], got[:, 1, 0])
        assert np.array_equal(got, np.stack([inv2(x) for x in m]))
        # within a few roundings of the condition number, as numpy's inverse is
        cond = np.abs(m).sum(axis=(-2, -1)) ** 2 / np.abs(det2(m))
        want = np.linalg.inv(m)
        err = np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
        assert np.all(err <= 8 * np.finfo(float).eps * cond)


def uses(package: Path, name: str) -> list[str]:
    """``module:function`` of every use of the dotted ``name`` (``linalg.inv``, or a
    bare ``central_moments``) that a module of ``package`` makes or imports."""
    *prefix, last = name.split(".")
    found = []

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, f"{owner}.{child.name}" if owner else child.name)
                continue
            named = isinstance(child, (ast.Attribute, ast.Name)) and (
                "." + ast.unparse(child)
            ).endswith("." + name)
            imported = isinstance(child, ast.ImportFrom) and (child.module or "").endswith(
                ".".join(prefix)
            )
            if named or imported and any(a.name == last for a in child.names):
                found.append(f"{path.name}:{owner or child.lineno}")
            visit(child, path, owner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def test_one_2x2_inverse():
    # the 4x4 inverses of the tests' two-mode oracles are the only others
    assert uses(Path(polynomials.__file__).parent, "linalg.inv") == [
        "conditioning.py:click_integrand_direct",
        "wigner.py:TwoModeGaussianWigner.evaluate",
    ]


def test_one_moment_table_per_core():
    # a core's one table, and the generic expansion the tests take as their oracle
    assert uses(Path(polynomials.__file__).parent, "central_moments") == [
        "polynomials.py:expected_poly_of_shifted_gaussian",
        "polynomials.py:GaussianCore._moments",
    ]


def test_linalg_inverses_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from numpy.linalg import inv\n"
        "class C:\n"
        "    def f(self, m):\n"
        "        return np.linalg.inv(m) + inv(m)\n"
        "def g(m):\n"
        "    return np.linalg.det(m) * np.linalg.pinv(m) * central_moments(m, 8)\n"
    )
    assert uses(tmp_path, "linalg.inv") == ["a.py:2", "a.py:C.f"]
    assert uses(tmp_path, "central_moments") == ["a.py:g"]
