import numpy as np
import pytest

from conftest import assert_same_text, coherence_csv_text

from cwherald.coherence import (
    CoherenceKernel,
    DominantMode,
    conditional_coherence,
    dominant_mode,
    fit_exponential_decay,
    write_coherence_csv,
    write_mode_csv,
)
from cwherald.sources import OpoParams, opo_kernel


def wick_pairing_oracle(kernel, t_c, t, tp):
    """Fourth moment <a+(tc) a+(t) a(t') a(tc)> by enumeration of pairings.

    Operators in product order; every pairing keeps its operators in that
    order, and all pairs here are normally ordered so no commutator terms
    arise.  Pair expectations come straight from the two-time kernels.
    """
    ops = [("dag", t_c), ("dag", t), ("ann", tp), ("ann", t_c)]

    def pair_value(i, j):
        (kind_a, ta), (kind_b, tb) = ops[i], ops[j]
        if kind_a == "dag" and kind_b == "dag":
            return float(kernel.c_aa(ta - tb))
        if kind_a == "ann" and kind_b == "ann":
            return float(kernel.c_aa(ta - tb))
        if kind_a == "dag" and kind_b == "ann":
            return float(kernel.c_ada(ta - tb))
        raise AssertionError("anti-normal pair in a normally ordered product")

    total = 0.0
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        total += pair_value(i, j) * pair_value(k, l)
    return total


class TestConditionalCoherence:
    def test_zero_gain_gives_zero_kernel(self):
        k = opo_kernel(OpoParams(epsilon=0.0))
        ck = conditional_coherence(k)
        assert np.all(ck.g == 0.0)
        with pytest.raises(ValueError, match="zero"):
            dominant_mode(ck)

    def test_matches_wick_enumeration(self, rng):
        k = opo_kernel(OpoParams(epsilon=0.13, gamma2=0.2))
        ck = conditional_coherence(k, t_c=0.5, half_width=8.0, points=81)
        idx = rng.integers(0, 81, size=(10, 2))
        for i, j in idx:
            want = wick_pairing_oracle(k, 0.5, ck.grid[i], ck.grid[j])
            assert ck.g[i, j] == pytest.approx(want, rel=1e-12)

    def test_symmetric_and_positive(self):
        k = opo_kernel(OpoParams(epsilon=0.2))
        ck = conditional_coherence(k)
        assert np.array_equal(ck.g, ck.g.T)
        evals = np.linalg.eigvalsh(ck.g)
        assert evals.min() >= -1e-9 * evals.max()

    @pytest.mark.parametrize("t_c, points", [(-0.37, 201), (0.61, 200)])
    def test_exactly_symmetric_off_centre(self, t_c, points):
        # the CSV writer reuses a transposed cell's text only where G = G^T holds exactly
        k = opo_kernel(OpoParams(epsilon=0.13, gamma2=0.2))
        ck = conditional_coherence(k, t_c=t_c, half_width=7.5, points=points)
        assert np.array_equal(ck.g, ck.g.T)

    def test_near_field_factorisation_at_low_flux(self):
        k = opo_kernel(OpoParams(epsilon=0.01))
        ck = conditional_coherence(k)
        centre = np.abs(ck.grid) <= 0.5
        sub = ck.g[np.ix_(centre, centre)]
        d = np.sqrt(np.diag(sub))
        normalised = sub / np.outer(d, d)
        assert np.min(normalised) > 0.99

    def test_quadratic_scaling_in_gain(self):
        k1 = conditional_coherence(opo_kernel(OpoParams(epsilon=0.01)))
        k2 = conditional_coherence(opo_kernel(OpoParams(epsilon=0.02)))
        ratio = np.max(np.abs(k2.g)) / np.max(np.abs(k1.g))
        assert ratio == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("half_width", [0.0, -2.0])
    def test_non_positive_half_width_raises(self, half_width):
        k = opo_kernel(OpoParams(epsilon=0.01))
        with pytest.raises(ValueError, match="half-width must be positive"):
            conditional_coherence(k, half_width=half_width, points=5)


class TestDominantMode:
    def test_low_flux_single_mode(self):
        k = opo_kernel(OpoParams(epsilon=0.01))
        mode = dominant_mode(conditional_coherence(k))
        assert mode.dominance > 0.95
        alpha = fit_exponential_decay(mode, t_c=0.0)
        assert alpha == pytest.approx(0.5, rel=0.2)

    def test_high_flux_is_multimode(self):
        low = dominant_mode(conditional_coherence(opo_kernel(OpoParams(epsilon=0.01))))
        high = dominant_mode(conditional_coherence(opo_kernel(OpoParams(epsilon=0.2))))
        assert high.dominance < low.dominance

    def test_rank_one_recovery(self, rng):
        ts = np.linspace(-5, 5, 101)
        dt = ts[1] - ts[0]
        u = np.exp(-0.7 * np.abs(ts))
        u = u / np.sqrt(np.sum(u**2) * dt)
        ck = CoherenceKernel(grid=ts, g=np.outer(u, u), t_c=0.0)
        mode = dominant_mode(ck)
        assert mode.dominance == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(mode.samples - u)) < 1e-10

    def test_mode_unit_norm_on_grid(self):
        k = opo_kernel(OpoParams(epsilon=0.1))
        mode = dominant_mode(conditional_coherence(k))
        dt = mode.times[1] - mode.times[0]
        assert np.sum(mode.samples**2) * dt == pytest.approx(1.0, rel=1e-12)


class TestDecayFit:
    @pytest.mark.parametrize(
        "eps, want",
        [(0.01, 0.498808229735), (0.1, 0.401855823291), (0.2, 0.254833869372)],
    )
    def test_matches_pinned_least_squares_values(self, eps, want):
        # values of the former scipy curve_fit, whose own xtol is 1.5e-8
        mode = dominant_mode(conditional_coherence(opo_kernel(OpoParams(epsilon=eps))))
        assert fit_exponential_decay(mode, 0.0) == pytest.approx(want, rel=1e-6)

    def test_exact_exponential_off_centre(self):
        ts = np.linspace(-9.7, 10.3, 201)
        mode = DominantMode(times=ts, samples=2.3 * np.exp(-0.7 * np.abs(ts - 0.3)), dominance=1.0)
        assert fit_exponential_decay(mode, 0.3) == pytest.approx(0.7, rel=0.0, abs=1e-10)

    def test_non_finite_sample_raises(self):
        mode = dominant_mode(conditional_coherence(opo_kernel(OpoParams(epsilon=0.1))))
        samples = mode.samples.copy()
        samples[40] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_exponential_decay(DominantMode(mode.times, samples, mode.dominance), 0.0)


class TestCoherenceCsv:
    def test_matches_per_cell_formatting(self, tmp_path, rng):
        ts = np.array([-1.5, -0.0, 1e-12, 2.0 / 3.0, 7.0])
        g = rng.normal(size=(5, 5)) * 10.0 ** rng.integers(-9, 9, size=(5, 5))
        g[0, 4], g[4, 0], g[3, 3] = np.nan, np.inf, -0.0
        g[1] = g[3]  # equal to its mirror row
        g[2] = [0.5, -0.0, 2e-7, 0.0, 0.5]  # palindromic
        path = tmp_path / "coherence.csv"
        write_coherence_csv(path, CoherenceKernel(grid=ts, g=g, t_c=0.0))
        text = path.read_text()
        assert_same_text(text, coherence_csv_text(ts, g))
        assert "\n0,-1.5," in text  # the -0.0 time prints as 0

    @staticmethod
    def symmetric_table(rng, n):
        g = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-9, 9, size=(n, n))
        return g + g.T

    def test_symmetric_table(self, tmp_path, rng):
        ts = np.linspace(-2.0, 2.0, 7)
        g = self.symmetric_table(rng, 7)
        g[2, 2], g[1, 5], g[5, 1] = -0.0, np.inf, np.inf
        path = tmp_path / "coherence.csv"
        write_coherence_csv(path, CoherenceKernel(grid=ts, g=g, t_c=0.0))
        assert_same_text(path.read_text(), coherence_csv_text(ts, g))

    def test_symmetric_table_with_broken_transposed_pairs(self, tmp_path, rng):
        ts = np.linspace(-2.0, 2.0, 6)
        g = self.symmetric_table(rng, 6)
        g[0, 3] = g[3, 0] = np.nan
        g[1, 4], g[4, 1] = -0.0, 0.0
        g[2, 5], g[5, 2] = 1.0, -0.0
        # one ulp apart across a rounding boundary: 0.123456789 against 0.12345679
        g[0, 5], g[5, 0] = 0.1234567895, np.nextafter(0.1234567895, np.inf)
        g[3, 4] = g[4, 3] + 1.0
        path = tmp_path / "coherence.csv"
        write_coherence_csv(path, CoherenceKernel(grid=ts, g=g, t_c=0.0))
        assert_same_text(path.read_text(), coherence_csv_text(ts, g))


class TestModeCsv:
    def test_rows_in_fmt9_text(self, tmp_path):
        ts = np.array([-0.5, -0.0, 2.0 / 3.0])
        us = np.array([0.125, 1e-12, -0.0])
        path = tmp_path / "dominant_mode.csv"
        write_mode_csv(path, DominantMode(times=ts, samples=us, dominance=1.0))
        # -0.0 prints as 0, as in every other file the program writes
        assert path.read_text() == "t,u\n-0.5,0.125\n0,1e-12\n0.666666667,0\n"
