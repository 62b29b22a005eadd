from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial.laguerre import lagval
from numpy.random import default_rng
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_csv_writers,
    brute_force_trigger_integral,
    fresh_fock_poly,
    random_physical_covariance,
)

from cwherald.conditioning import (
    condition_on_click,
    condition_on_number,
    condition_on_on,
    vacuum_projection,
)
from cwherald.config import parse_config
from cwherald.covariance import CovarianceMatrix4
from cwherald.metrics import fock_fidelity, negativity_volume, purity
from cwherald.pipeline import build_covariance
from cwherald.polynomials import GaussianCore, gaussian_poly_integral, poly_eval
from cwherald.sources import tmsv_covariance
from cwherald.wigner import (
    MAX_GRID_END,
    GaussPolyState,
    GridSpec,
    PolyGaussTerm,
    TwoModeGaussianWigner,
    evaluate_grid,
    fock_state,
    integrate_out_trigger,
    write_grid_csv,
)


class TestFockWigner:
    def test_origin_values(self):
        assert fock_state(0).evaluate(0.0, 0.0) == pytest.approx(1 / np.pi, rel=1e-15)
        assert fock_state(1).evaluate(0.0, 0.0) == pytest.approx(-1 / np.pi, rel=1e-15)
        assert fock_state(2).evaluate(0.0, 0.0) == pytest.approx(1 / np.pi, rel=1e-15)

    def test_unit_normalisation_analytic(self):
        for n in (0, 1, 2):
            assert fock_state(n).total_integral() == pytest.approx(1.0, rel=1e-14)

    def test_higher_n_rejected(self):
        with pytest.raises(ValueError, match="n in"):
            fock_state(3)

    def test_fock_tables_match_laguerre_form(self):
        # W_n = (-1)^n L_n(2 r^2) e^{-r^2} / pi at seeded off-axis points
        x, p = default_rng(11).uniform(-2.5, 2.5, size=(2, 64))
        r2 = x**2 + p**2
        for n in (0, 1, 2):
            state = fock_state(n)
            table = state.terms[0].coeffs
            assert not table.flags.writeable
            want = fresh_fock_poly(n)
            assert (table.shape, table.tobytes()) == (want.shape, want.tobytes())
            laguerre = (-1) ** n * lagval(2 * r2, np.eye(3)[n]) * np.exp(-r2) / np.pi
            np.testing.assert_allclose(state.evaluate(x, p), laguerre, rtol=1e-13, atol=0)


class TestTwoModeGaussian:
    def test_normalisation_on_grid(self, rng):
        v = random_physical_covariance(rng, squeeze_max=0.4, noise=0.1)
        w = TwoModeGaussianWigner(v)
        n, half = 48, 7.0
        axis = np.linspace(-half, half, n)
        step = axis[1] - axis[0]
        grids = np.meshgrid(axis, axis, axis, axis, indexing="ij")
        y = np.stack(grids, axis=-1)
        total = float(np.sum(w.evaluate(y))) * step**4
        assert total == pytest.approx(1.0, abs=1e-6)


class TestIntegrateOutTrigger:
    def test_unit_weight_is_marginal(self, rng):
        v = random_physical_covariance(rng)
        state, mass = integrate_out_trigger(TwoModeGaussianWigner(v), np.array([[1.0]]))
        assert mass == pytest.approx(1.0, rel=1e-12)
        assert len(state.terms) == 1
        assert np.allclose(state.terms[0].sigma, v.m[2:, 2:], atol=1e-12)

    def test_vacuum_with_quadratic_weight_has_unit_mass(self):
        w = np.zeros((3, 3))
        w[0, 0] = -1.0
        w[2, 0] = 2.0
        w[0, 2] = 2.0
        v = CovarianceMatrix4(np.eye(4))
        _, mass = integrate_out_trigger(TwoModeGaussianWigner(v), w)
        assert mass == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_fock1_projection_leaves_fock1(self, r):
        v = tmsv_covariance(r)
        weight = fock_state(1).terms[0].coeffs * 2 * np.pi
        m = np.linalg.inv(v.m) + np.diag([1.0, 1.0, 0.0, 0.0])
        vt = np.linalg.inv(m)
        factor = np.sqrt(np.linalg.det(vt) / np.linalg.det(v.m))
        state, mass = integrate_out_trigger(
            TwoModeGaussianWigner(CovarianceMatrix4(vt)), weight * factor
        )
        out = state.scaled(1.0 / mass)
        xs = np.linspace(-4, 4, 33)
        got = out.evaluate(xs[None, :], xs[:, None])
        want = fock_state(1).evaluate(xs[None, :], xs[:, None])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_exactness_against_brute_force(self, rng):
        # random physical covariances, random degree-<=2 weights, random points
        for _ in range(100):
            v = random_physical_covariance(rng, squeeze_max=0.6, noise=0.15)
            w = np.zeros((3, 3))
            for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                w[i, j] = rng.normal()
            state, _ = integrate_out_trigger(TwoModeGaussianWigner(v), w)
            pts = rng.uniform(-2.5, 2.5, size=(25, 2))
            got = state.evaluate(pts[:, 0], pts[:, 1])
            scale = max(np.max(np.abs(got)), 1e-12)
            for g, want in zip(got, brute_force_trigger_integral(v, w, pts)):
                assert abs(g - want) <= 1e-7 * max(abs(want), scale)

    def test_degree_cap(self):
        v = CovarianceMatrix4(np.eye(4))
        sextic = np.zeros((4, 4))
        sextic[3, 3] = 1.0
        with pytest.raises(ValueError, match="degree"):
            integrate_out_trigger(TwoModeGaussianWigner(v), sextic)


class TestGridEvaluation:
    def test_vacuum_peak_at_origin(self):
        xs, ps, w = evaluate_grid(fock_state(0), GridSpec())
        assert 0.0 in xs and 0.0 in ps
        assert np.max(w) == pytest.approx(1 / np.pi, rel=1e-12)

    def test_fock1_origin_value(self):
        xs, ps, w = evaluate_grid(fock_state(1), GridSpec())
        i0 = np.where(ps == 0.0)[0][0]
        j0 = np.where(xs == 0.0)[0][0]
        assert w[i0, j0] == pytest.approx(-1 / np.pi, rel=1e-12)

    def test_riemann_sum_near_unity(self):
        xs, ps, w = evaluate_grid(fock_state(1), GridSpec())
        dx = xs[1] - xs[0]
        dp = ps[1] - ps[0]
        assert float(np.sum(w)) * dx * dp == pytest.approx(1.0, abs=1e-4)

    def test_csv_format(self, tmp_path):
        spec = GridSpec(xmin=-1, xmax=1, pmin=-1, pmax=1, nx=3, np_=3)
        xs, ps, w = evaluate_grid(fock_state(0), spec)
        path = tmp_path / "grid.csv"
        write_grid_csv(path, xs, ps, w)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,p,w"
        assert len(lines) == 10
        # p sweeps outermost
        assert lines[1].startswith("-1,-1,")
        assert lines[2].startswith("0,-1,")

    def test_csv_matches_per_cell_formatting(self, tmp_path, rng):
        xs = np.array([-0.0, 1e-12, 0.3, 123456.789])
        ps = np.array([-2.5, 0.0, 1.0 / 3.0, 7.0])
        w = rng.normal(size=(4, 4)) * np.array([1.0, 1e-9, 1e5, 1.0])
        w[0, 0], w[1, 1], w[2, 2] = -0.0, 0.0, -1e-300
        w[0, 3], w[1, 0], w[2, 1] = np.nan, np.inf, -np.inf
        w[3] = [0.25, -1e-7, -1e-7, 0.25]  # palindromic, even width
        # odd width: a palindromic row with signed zeros, and one that is not
        xs_odd = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w_odd = np.array(
            [[1.5, -0.0, 3e-9, 0.0, 1.5], [1.5, -0.0, 3e-9, 0.0, 1.4999999999999998]]
        )
        for xs, ps, w in ((xs, ps, w), (xs_odd, ps[:2], w_odd)):
            assert_csv_writers(tmp_path, xs, ps, w)

    def test_csv_one_column_and_one_row(self, tmp_path):
        # one cell a row: a mirror row reversed must stay one cell, not reverse its text
        assert_csv_writers(tmp_path, np.array([0.5]), np.arange(3.0), [[1.5], [-0.0], [1.5]])
        assert_csv_writers(tmp_path, np.arange(4.0), np.array([0.5]), [[1.5, -0.0, np.nan, 1.5]])
        assert_csv_writers(tmp_path, np.array([0.5]), np.array([-0.0]), [[-0.0]])

    @pytest.mark.parametrize("rows", [2, 4])
    def test_csv_rejects_a_table_without_a_row_per_p(self, tmp_path, rows):
        with pytest.raises(ValueError):
            write_grid_csv(tmp_path / "grid.csv", np.arange(2.0), np.arange(3.0), np.ones((rows, 2)))

    @staticmethod
    def mirrored_table(rng, m, n):
        """A random table whose rows k and m-1-k are equal and none is palindromic."""
        w = rng.normal(size=(m, n))
        w[m - m // 2 :] = w[m // 2 - 1 :: -1]
        return w

    def test_csv_mirror_rows(self, tmp_path, rng):
        xs, ps = np.arange(6.0), np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        for m, n in ((4, 6), (5, 6), (4, 4), (5, 5)):
            w = self.mirrored_table(rng, m, n)
            assert np.array_equal(w[0], w[-1]) and not np.array_equal(w[0], w[0, ::-1])
            assert_csv_writers(tmp_path, xs[:n], ps[:m], w)

    def test_csv_mirror_rows_but_one_cell(self, tmp_path, rng):
        for m in (4, 5):
            w = self.mirrored_table(rng, m, 5)
            w[m - 1, 2] += 1.0
            w[m - 2, 0] = np.nextafter(w[m - 2, 0], np.inf)  # the same 9-digit text, another float
            assert_csv_writers(tmp_path, np.arange(5.0), np.arange(float(m)), w)

    def test_csv_signed_zeros_at_mirrored_cells(self, tmp_path):
        w = np.array(
            [
                [-0.0, 1.0, 0.0],
                [0.0, -0.0, -0.0],
                [0.0, 1.0, -0.0],
                [-0.0, 0.0, 2.0],
                [0.0, -0.0, 2.0],
            ]
        )
        xs, ps = np.array([-1.0, -0.0, 1.0]), np.array([-2.0, -1.0, -0.0, 1.0, 2.0])
        text, _ = assert_csv_writers(tmp_path, xs, ps, w)
        assert "-0," not in text and "-0\n" not in text
        # the same cells as a square table, through both writers
        text, coherence = assert_csv_writers(tmp_path, xs, ps[1:4], w[1:4])
        for t in (text, coherence):
            assert "-0," not in t and "-0\n" not in t

    def test_csv_non_finite_at_mirrored_cells(self, tmp_path):
        nan, inf = np.nan, np.inf
        w = np.array(
            [
                [nan, 1.0, nan],
                [inf, 2.0, -inf],
                [-inf, 3.0, -inf],
                [inf, 2.0, -inf],
                [nan, 1.0, nan],
            ]
        )
        xs = np.array([-1.0, 0.0, 1.0])
        assert_csv_writers(tmp_path, xs, np.arange(5.0), w)
        assert_csv_writers(tmp_path, xs, np.arange(3.0), w[1:4])
        assert_csv_writers(tmp_path, xs, np.arange(3.0), w[[0, 2, 4]])

    def test_csv_random_table(self, tmp_path, rng):
        xs, ps = rng.normal(size=7), rng.normal(size=6)
        w = rng.normal(size=(6, 7)) * 10.0 ** rng.integers(-12, 12, size=(6, 7))
        assert_csv_writers(tmp_path, xs, ps, w)
        assert_csv_writers(tmp_path, xs[:6], ps, w[:, :6])

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            GridSpec(nx=1)
        with pytest.raises(ValueError):
            GridSpec(xmin=2.0, xmax=-2.0)
        # an end at the bound is refused on either axis, at either end; the
        # largest float below it is not
        below = np.nextafter(MAX_GRID_END, 0.0)
        GridSpec(xmin=-below, xmax=below, pmin=-below, pmax=below)
        for end in ({"xmin": -MAX_GRID_END}, {"xmax": MAX_GRID_END},
                    {"pmin": -MAX_GRID_END}, {"pmax": MAX_GRID_END}):
            with pytest.raises(ValueError, match="reaches past"):
                GridSpec(**end)


KINDS = {
    "n0": lambda v: condition_on_number(v, 0),
    "n1": lambda v: condition_on_number(v, 1),
    "n2": lambda v: condition_on_number(v, 2),
    "on": condition_on_on,
    "click": condition_on_click,
    "vacuum": vacuum_projection,
}
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"


@cache
def fixture_covariance():
    return build_covariance(parse_config(FIXTURES / "figure4_upper.cfg"))


def conditioned(covariance):
    return lambda kind, seed: KINDS[kind](covariance(seed)).state


def one_term_state(coeffs, sigma):
    term = PolyGaussTerm(coeffs=np.array(coeffs), core=GaussianCore(sigma))
    return GaussPolyState(terms=(term,))


def hand_made(coeffs, sigma):
    return lambda kind, seed: one_term_state(coeffs, sigma)  # a new state keeps no grid


EVEN = [[0.2, 0.0, -0.5], [0.0, 0.0, 0.0], [0.4, 0.0, 0.0]]
TILTED = [[1.0, 0.3], [0.3, 0.8]]
# state source -> (the block its symmetry allows on antisymmetric axes, its maker)
SOURCES = {
    # x^2, p^2 and constants on untilted cores
    "fixture": ("quarter", conditioned(lambda seed: fixture_covariance())),
    "tmsv": ("quarter", conditioned(lambda seed: tmsv_covariance(0.4))),
    # a random covariance tilts V22: a nonzero sigma^-1 cross term
    "random": ("half", conditioned(lambda seed: random_physical_covariance(default_rng(seed)))),
    "tilted": ("half", hand_made(EVEN, TILTED)),
    "xp": ("half", hand_made([[0.3, 0.0], [0.0, -0.2]], np.eye(2))),  # odd powers of x and p
    "odd": ("full", hand_made([[0.3, 0.0], [0.1, 0.0]], np.eye(2))),  # one odd-degree entry
}
BOUNDS = st.sampled_from([(-5.0, 5.0), (-2.5, 2.5), (-3.0, 5.0), (-1.0, 0.5), (0.25, 4.0)])
GRIDS = st.builds(
    lambda xb, pb, nx, np_: GridSpec(*xb, *pb, nx, np_),
    BOUNDS, BOUNDS, st.integers(2, 14), st.integers(2, 14),
)


def each_source(*grids):
    """Explicit examples: every state source on every one of ``grids``."""

    def decorate(test):
        for source in SOURCES:
            for grid in grids:
                test = example(source=source, kind="n1", seed=0, grid=grid)(test)
        return test

    return decorate


class TestGridParityBlock:
    """A grid holds the floats of the whole mesh, whichever block was evaluated."""

    @settings(max_examples=80, deadline=None)
    @given(
        source=st.sampled_from(list(SOURCES)),
        kind=st.sampled_from(list(KINDS)),
        seed=st.integers(0, 2**32 - 1),
        grid=GRIDS,
    )
    @each_source(GridSpec(-2.0, 2.0, -1.5, 1.5, 7, 6), GridSpec(-2.0, 2.0, -1.0, 3.0, 6, 7))
    def test_bits_equal_the_whole_mesh(self, source, kind, seed, grid):
        block, make = SOURCES[source]
        s = make(kind, seed)
        evaluate = GaussPolyState.evaluate
        with mock.patch.object(
            GaussPolyState, "evaluate", autospec=True, side_effect=evaluate
        ) as spy:
            xs, ps, w = evaluate_grid(s, grid)
        assert w.tobytes() == s.evaluate(xs[None, :], ps[:, None]).tobytes()
        assert spy.call_count == 1
        (_, x, p), _ = spy.call_args
        if not (np.array_equal(xs, -xs[::-1]) and np.array_equal(ps, -ps[::-1])):
            block = "full"
        nx, np_ = len(xs), len(ps)
        assert (x.size, p.size) == {
            "quarter": ((nx + 1) // 2, (np_ + 1) // 2),
            "half": (nx, (np_ + 1) // 2),
            "full": (nx, np_),
        }[block]

    def test_kept_read_only_and_shared(self):
        s = condition_on_click(tmsv_covariance(0.3)).state
        xs, ps, w = evaluate_grid(s, GridSpec(nx=5, np_=7))
        for a in (xs, ps, w):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 1.0
        again = evaluate_grid(s, GridSpec(nx=5, np_=7))  # an equal spec finds the kept grid
        assert all(a is b for a, b in zip(again, (xs, ps, w)))
        assert evaluate_grid(s, GridSpec(nx=7, np_=5))[2].shape == (5, 7)
        negativity_volume(s, GridSpec(nx=5, np_=7))
        assert list(s.__dict__["_grids"]) == [GridSpec(nx=5, np_=7), GridSpec(nx=7, np_=5)]


def summed_from_zeros(s, x, p):
    """W at (x, p) as each term's ``poly * exp(-(a x x + 2b x p + c p p))`` added to zeros.

    The oracle: each exponent is one summed expression and each term a
    fresh array.  The in-place terms and the parity blocks must keep every
    float of it.
    """
    out = np.zeros(np.broadcast(x, p).shape)
    for t in s.terms:
        si = t.core.sigma_inv
        expo = -(si[0, 0] * x * x + 2.0 * si[0, 1] * x * p + si[1, 1] * p * p)
        out = out + poly_eval(t.coeffs, x, p) * np.exp(expo)
    return out


# the parity classes (i % 2, j % 2) of a table's entries
PARITY_CLASSES = [(0, 0), (0, 1), (1, 0), (1, 1)]
SYM = (-2.0, 2.0)
AXES = st.sampled_from([SYM, (-3.5, 3.5), (-1.0, 1.0), (-1.0, 2.5), (0.5, 3.0)])


@st.composite
def drawn_states(draw):
    """One or two terms on random cores, tilted or not, each table's entries
    in a drawn set of parity classes, with one nonzero entry in each class
    that fits its shape."""
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        sx, sp = rng.uniform(0.3, 3.0, size=2)
        cross = rng.uniform(-0.9, 0.9) * np.sqrt(sx * sp) if draw(st.booleans()) else 0.0
        classes = draw(st.sets(st.sampled_from(PARITY_CLASSES), min_size=1))
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        i, j = np.indices(shape)
        keep = np.isin(2 * (i % 2) + j % 2, [2 * a + b for a, b in classes])
        keep &= rng.random(shape) < 0.6
        for a, b in classes:
            if a < shape[0] and b < shape[1]:
                keep[a, b] = True
        coeffs = np.where(keep, rng.normal(size=shape), 0.0)
        terms.append(PolyGaussTerm(coeffs=coeffs, core=GaussianCore([[sx, cross], [cross, sp]])))
    return GaussPolyState(terms=tuple(terms))


class TestGridInOnePass:
    """Each term is formed in place, and the grid's axes are the spec's own."""

    @settings(max_examples=60, deadline=None)
    @given(
        s=drawn_states(),
        xb=AXES,
        pb=AXES,
        nx=st.integers(2, 9),
        np_=st.integers(2, 9),
    )
    # odd powers of p alone, of x alone, and even powers on a tilted core, on mirrored axes
    @example(s=one_term_state([[0.5, 0.3]], np.eye(2)), xb=SYM, pb=SYM, nx=5, np_=5)
    @example(s=one_term_state([[0.5], [0.3]], np.eye(2)), xb=SYM, pb=SYM, nx=5, np_=5)
    @example(s=one_term_state(EVEN, TILTED), xb=SYM, pb=(-1.0, 1.0), nx=2, np_=2)
    def test_grid_and_negativity_are_the_summed_expression(self, s, xb, pb, nx, np_):
        grid = GridSpec(*xb, *pb, nx, np_)
        xs, ps, w = evaluate_grid(s, grid)
        assert w.tobytes() == summed_from_zeros(s, xs[None, :], ps[:, None]).tobytes()
        assert grid.mirrored == (np.array_equal(xs, -xs[::-1]) and np.array_equal(ps, -ps[::-1]))
        # scattered points take the same one path
        pts = default_rng(nx * 10 + np_).uniform(-3.0, 3.0, size=(2, 5))
        assert s.evaluate(*pts).tobytes() == summed_from_zeros(s, *pts).tobytes()
        clipped = np.sum(np.clip(-w, 0.0, None)) * (xs[1] - xs[0]) * (ps[1] - ps[0])
        assert np.float64(negativity_volume(s, grid)).tobytes() == np.float64(clipped).tobytes()

    def test_vacuum_negativity_is_positive_zero(self):
        neg = negativity_volume(fock_state(0), GridSpec(nx=9, np_=9))
        assert np.float64(neg).tobytes() == np.float64(0.0).tobytes()

    def test_spec_keeps_one_read_only_pair_of_axes(self):
        grid = GridSpec(-2.0, 2.0, -1.0, 3.0, 7, 6)
        states = [fock_state(1), condition_on_click(tmsv_covariance(0.3)).state]
        for xs, ps, _ in (evaluate_grid(s, grid) for s in states):
            assert xs is grid.xs and ps is grid.ps
        for axis in (grid.xs, grid.ps):
            assert not axis.flags.writeable
            with pytest.raises(ValueError):
                axis[0] = 1.0


class TestFamilyState:
    """Evaluation takes a single state and says so on a conditioned family."""

    SMALL = GridSpec(nx=3, np_=3)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda s: s.evaluate(0.0, 0.0),
            lambda s: evaluate_grid(s, TestFamilyState.SMALL),
            lambda s: negativity_volume(s, TestFamilyState.SMALL),
        ],
        ids=["evaluate", "evaluate_grid", "negativity_volume"],
    )
    def test_family_is_refused_by_name(self, evaluate):
        family = CovarianceMatrix4(np.stack([tmsv_covariance(r).m for r in (0.3, 0.5)]))
        state = condition_on_click(family).state
        message = "^evaluate takes a single state, not a family of 2 members$"
        with pytest.raises(ValueError, match=message):
            evaluate(state)
        assert "_grids" not in state.__dict__  # a refused grid is not kept
        evaluate(condition_on_click(tmsv_covariance(0.3)).state)  # a single member evaluates


class TestOverlap:
    def test_fock1_with_itself(self):
        assert fock_fidelity(fock_state(1), 1) == pytest.approx(1.0, rel=1e-12)

    def test_vacuum_orthogonal_to_fock1(self):
        assert fock_fidelity(fock_state(0), 1) == pytest.approx(0.0, abs=1e-14)

    def test_fock_fidelities_are_the_identity(self):
        # every pair sits on the vacuum's product with itself, which keeps the
        # contracted Fock tables: asked again in reverse order, the same bits
        pairs = [(m, n) for m in (0, 1, 2) for n in (0, 1, 2)]
        first = {(m, n): fock_fidelity(fock_state(m), n) for m, n in pairs}
        again = {(m, n): fock_fidelity(fock_state(m), n) for m, n in reversed(pairs)}
        for (m, n), f in first.items():
            assert f == pytest.approx(float(m == n), rel=1e-12, abs=1e-14)
            assert np.float64(again[m, n]).tobytes() == np.float64(f).tobytes()

    @pytest.mark.parametrize("nbar", [0.2, 0.7, 1.8])
    def test_thermal_fidelity_against_fock_oracle(self, nbar):
        sigma = (1 + 2 * nbar) * np.eye(2)
        norm = 1.0 / gaussian_poly_integral(np.array([[1.0]]), sigma)
        thermal = GaussPolyState(
            terms=(PolyGaussTerm(coeffs=np.array([[norm]]), core=GaussianCore(sigma)),)
        )
        # truncated Fock-basis oracle: <0|rho|0> of a thermal state
        ns = np.arange(0, 200)
        weights = nbar**ns / (1 + nbar) ** (ns + 1)
        want = float(weights[0] / np.sum(weights))
        assert fock_fidelity(thermal, 0) == pytest.approx(want, rel=1e-10)

    def test_fidelity_in_unit_interval(self, rng):
        for _ in range(25):
            v = random_physical_covariance(rng)
            state, mass = integrate_out_trigger(
                TwoModeGaussianWigner(v), np.array([[1.0]])
            )
            st = state.scaled(1.0 / mass)
            for n in (0, 1, 2):
                f = fock_fidelity(st, n)
                assert -1e-9 <= f <= 1.0 + 1e-9


class TestNormalisation:
    def test_normalize_closure(self, rng):
        for _ in range(20):
            v = random_physical_covariance(rng)
            w = np.zeros((3, 3))
            w[0, 0], w[2, 0], w[0, 2] = rng.uniform(0.1, 1.0, size=3)
            state, mass = integrate_out_trigger(TwoModeGaussianWigner(v), w)
            assert state.scaled(1.0 / mass).total_integral() == pytest.approx(1.0, abs=1e-12)

    def test_purity_of_fock_states(self):
        for n in (0, 1, 2):
            assert purity(fock_state(n)) == pytest.approx(1.0, rel=1e-12)

    def test_purity_of_fock_states_from_kept_tables(self):
        first = [purity(fock_state(n)) for n in (0, 1, 2)]
        again = [purity(fock_state(n)) for n in (2, 1, 0)][::-1]
        assert first == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)
        assert np.array(again).tobytes() == np.array(first).tobytes()
