import numpy as np
import pytest

from conftest import (
    assert_same_text,
    brute_force_trigger_integral,
    grid_csv_text,
    random_physical_covariance,
)

from cwherald.covariance import CovarianceMatrix4
from cwherald.conditioning import condition_on_click
from cwherald.metrics import fock_fidelity, negativity_volume, purity
from cwherald.polynomials import gaussian_poly_integral
from cwherald.sources import tmsv_covariance
from cwherald.wigner import (
    GaussPolyState,
    GridSpec,
    PolyGaussTerm,
    TwoModeGaussianWigner,
    evaluate_grid,
    fock_state,
    fock_wigner_poly,
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
            fock_wigner_poly(3)

    def test_fock2_matches_laguerre_form(self):
        # (-1)^2/pi * L_2(2 r^2) e^{-r^2} with L_2(z) = 1 - 2 z + z^2/2
        xs = np.linspace(-2.5, 2.5, 7)
        for x in xs:
            z = 2 * x**2
            want = (1 - 2 * z + z**2 / 2) * np.exp(-(x**2)) / np.pi
            assert fock_state(2).evaluate(x, 0.0) == pytest.approx(want, rel=1e-12)


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
        weight = fock_wigner_poly(1) * 2 * np.pi
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
            path = tmp_path / "grid.csv"
            write_grid_csv(path, xs, ps, w)
            assert_same_text(path.read_text(), grid_csv_text(xs, ps, w))

    @staticmethod
    def mirrored_table(rng, m, n):
        """A random table whose rows k and m-1-k are equal and none is palindromic."""
        w = rng.normal(size=(m, n))
        w[m - m // 2 :] = w[m // 2 - 1 :: -1]
        return w

    def test_csv_mirror_rows(self, tmp_path, rng):
        xs, ps = np.arange(6.0), np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        for m in (4, 5):
            w = self.mirrored_table(rng, m, 6)
            assert np.array_equal(w[0], w[-1]) and not np.array_equal(w[0], w[0, ::-1])
            path = tmp_path / "grid.csv"
            write_grid_csv(path, xs, ps[:m], w)
            assert_same_text(path.read_text(), grid_csv_text(xs, ps[:m], w))

    def test_csv_mirror_rows_but_one_cell(self, tmp_path, rng):
        w = self.mirrored_table(rng, 4, 5)
        w[3, 2] += 1.0
        w[2, 0] = np.nextafter(w[2, 0], np.inf)  # the same 9-digit text, another float
        xs, ps = np.arange(5.0), np.arange(4.0)
        write_grid_csv(tmp_path / "grid.csv", xs, ps, w)
        assert_same_text((tmp_path / "grid.csv").read_text(), grid_csv_text(xs, ps, w))

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
        write_grid_csv(tmp_path / "grid.csv", xs, ps, w)
        text = (tmp_path / "grid.csv").read_text()
        assert_same_text(text, grid_csv_text(xs, ps, w))
        assert "-0," not in text and "-0\n" not in text

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
        xs, ps = np.array([-1.0, 0.0, 1.0]), np.arange(5.0)
        write_grid_csv(tmp_path / "grid.csv", xs, ps, w)
        assert_same_text((tmp_path / "grid.csv").read_text(), grid_csv_text(xs, ps, w))

    def test_csv_random_table(self, tmp_path, rng):
        xs, ps = rng.normal(size=7), rng.normal(size=6)
        w = rng.normal(size=(6, 7)) * 10.0 ** rng.integers(-12, 12, size=(6, 7))
        write_grid_csv(tmp_path / "grid.csv", xs, ps, w)
        assert_same_text((tmp_path / "grid.csv").read_text(), grid_csv_text(xs, ps, w))

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            GridSpec(nx=1)
        with pytest.raises(ValueError):
            GridSpec(xmin=2.0, xmax=-2.0)


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
        evaluate(condition_on_click(tmsv_covariance(0.3)).state)  # a single member evaluates


class TestOverlap:
    def test_fock1_with_itself(self):
        assert fock_fidelity(fock_state(1), 1) == pytest.approx(1.0, rel=1e-12)

    def test_vacuum_orthogonal_to_fock1(self):
        assert fock_fidelity(fock_state(0), 1) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("nbar", [0.2, 0.7, 1.8])
    def test_thermal_fidelity_against_fock_oracle(self, nbar):
        sigma = (1 + 2 * nbar) * np.eye(2)
        norm = 1.0 / gaussian_poly_integral(np.array([[1.0]]), sigma)
        thermal = GaussPolyState(
            terms=(PolyGaussTerm(coeffs=np.array([[norm]]), sigma=sigma),)
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
