from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_csv_writers

from cwherald.coherence import (
    CoherenceKernel,
    DominantMode,
    conditional_coherence,
    dominant_mode,
    fit_exponential_decay,
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

    @pytest.mark.parametrize("points", [*range(3, 13), 201])
    def test_time_offsets_exactly_antisymmetric(self, points):
        k = opo_kernel(OpoParams(epsilon=0.13))
        rel = conditional_coherence(k, half_width=7.3, points=points).grid
        assert np.array_equal(rel[::-1], -rel)
        assert rel[-1] == pytest.approx(7.3, rel=1e-15)
        assert np.diff(rel) == pytest.approx(np.full(points - 1, 14.6 / (points - 1)), rel=1e-14)

    @pytest.mark.parametrize("t_c, points", [(-0.37, 201), (0.61, 200), (0.0, 7)])
    def test_exactly_symmetric_off_centre(self, t_c, points):
        # dominant_mode's even block and the CSV writer's reuse of a reversed
        # row both rest on these equalities holding bit for bit
        k = opo_kernel(OpoParams(epsilon=0.13, gamma2=0.2))
        ck = conditional_coherence(k, t_c=t_c, half_width=7.5, points=points)
        assert np.array_equal(ck.g, ck.g.T)
        assert np.array_equal(ck.g, ck.g[::-1, ::-1])

    @pytest.mark.parametrize(
        "half_width, points, ulps",
        [(8.0, 257, 0), (4.0, 9, 0), (7.5, 200, 8), (10.0, 201, 8)],
    )
    def test_lag_table_matches_pairwise_differences(self, half_width, points, ulps):
        # where the step is a binary fraction, |i - j| steps is exactly rel_i - rel_j;
        # elsewhere the pairwise difference rounds by up to an ulp of the half-width
        k = opo_kernel(OpoParams(epsilon=0.13, gamma2=0.2))
        ck = conditional_coherence(k, half_width=half_width, points=points)
        rel = ck.grid
        aa, ada = k.c_aa(rel), k.c_ada(rel)
        lag = float(k.c_ada(0.0)) * k.c_ada(rel[:, None] - rel[None, :])
        want = np.outer(aa, aa) + np.outer(ada, ada) + lag
        # every term is positive, so a term's error of a few ulp is a few ulp of the sum
        assert np.all(np.abs(ck.g - want) <= ulps * np.spacing(want))

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

    @staticmethod
    def full_eigh_mode(ck):
        evals, evecs = np.linalg.eigh(ck.g)
        u = evecs[:, -1] / np.sqrt(np.sum(evecs[:, -1] ** 2) * (ck.grid[1] - ck.grid[0]))
        centre = int(np.argmin(np.abs(ck.grid - ck.t_c)))
        return (-u if u[centre] < 0.0 else u), evals[-1] / np.sum(evals)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        half_width=st.sampled_from([5.0, 10.0, 20.0]),
        points=st.sampled_from([3, 4, 60, 61, 200, 201]),
    )
    def test_even_block_matches_full_eigh(self, seed, half_width, points):
        rng = np.random.default_rng(seed)
        k = opo_kernel(OpoParams(epsilon=rng.uniform(0.01, 0.2), gamma2=rng.uniform(0.0, 0.5)))
        ck = conditional_coherence(k, t_c=rng.uniform(-1.0, 1.0), half_width=half_width, points=points)
        want, want_dominance = self.full_eigh_mode(ck)
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            mode = dominant_mode(ck)
        h = (points + 1) // 2
        assert [c.args[0].shape for c in eigh.call_args_list] == [(h, h)]
        assert np.max(np.abs(mode.samples - want)) <= 1e-13
        assert abs(mode.dominance - want_dominance) <= 1e-13

    def test_odd_leading_vector_takes_full_eigh(self):
        # reversal-symmetric G with negative entries, whose leading vector is odd
        ts = np.linspace(-2.0, 2.0, 9)
        half = np.array([0.3, -1.2, 0.7, 0.4])
        odd = np.concatenate((half, [0.0], -half[::-1]))
        even = np.concatenate((half, [0.9], half[::-1]))
        odd, even = odd / np.linalg.norm(odd), even / np.linalg.norm(even)
        g = 2.0 * np.outer(odd, odd) + np.outer(even, even)
        assert np.array_equal(g, g[::-1, ::-1]) and np.array_equal(g, g.T) and g.min() < 0.0
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            mode = dominant_mode(CoherenceKernel(grid=ts, g=g, t_c=0.0))
        assert [c.args[0].shape for c in eigh.call_args_list] == [(9, 9)]
        scale = np.sqrt(1.0 / (ts[1] - ts[0]))
        assert np.allclose(np.abs(mode.samples), scale * np.abs(odd), rtol=0.0, atol=1e-13)
        assert np.allclose(mode.samples[::-1], -mode.samples, rtol=0.0, atol=1e-13)
        assert mode.dominance == pytest.approx(2.0 / 3.0, rel=1e-14)

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
        _, text = assert_csv_writers(tmp_path, ts, ts, g)
        assert "\n0,-1.5," in text  # the -0.0 time prints as 0

    @staticmethod
    def symmetric_table(rng, n):
        g = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-9, 9, size=(n, n))
        return g + g.T

    def test_symmetric_table(self, tmp_path, rng):
        ts = np.linspace(-2.0, 2.0, 7)
        g = self.symmetric_table(rng, 7)
        g[2, 2], g[1, 5], g[5, 1] = -0.0, np.inf, np.inf
        assert_csv_writers(tmp_path, ts, ts, g)

    def test_symmetric_table_with_broken_transposed_pairs(self, tmp_path, rng):
        ts = np.linspace(-2.0, 2.0, 6)
        g = self.symmetric_table(rng, 6)
        g[0, 3] = g[3, 0] = np.nan
        g[1, 4], g[4, 1] = -0.0, 0.0
        g[2, 5], g[5, 2] = 1.0, -0.0
        # one ulp apart across a rounding boundary: 0.123456789 against 0.12345679
        g[0, 5], g[5, 0] = 0.1234567895, np.nextafter(0.1234567895, np.inf)
        g[3, 4] = g[4, 3] + 1.0
        assert_csv_writers(tmp_path, ts, ts, g)

    @pytest.mark.parametrize("n", [6, 7])
    def test_reversal_symmetric_table_with_broken_pairs(self, tmp_path, rng, n):
        ts = np.linspace(-2.0, 2.0, n)
        g = self.symmetric_table(rng, n)
        g = g + g[::-1, ::-1]
        # each pair is a cell of upper row i and its reversed partner in lower row
        # n-1-i; rows n-2 and n-3 still equal their partners reversed, row n-1 does not
        # one ulp apart across a rounding boundary: 0.123456789 against 0.12345679
        g[0, 1], g[n - 1, n - 2] = 0.1234567895, np.nextafter(0.1234567895, np.inf)
        g[0, 3], g[n - 1, n - 4] = np.nan, np.nan
        g[1, 2], g[n - 2, n - 3] = -0.0, 0.0
        g[1, 0], g[n - 2, n - 1] = np.inf, np.inf
        g[2, 0], g[n - 3, n - 1] = 0.0, -0.0
        g[0, 2], g[n - 1, n - 3] = 1e-300, -np.inf
        assert_csv_writers(tmp_path, ts, ts, g)


class TestModeCsv:
    def test_rows_in_fmt9_text(self, tmp_path):
        ts = np.array([-0.5, -0.0, 2.0 / 3.0])
        us = np.array([0.125, 1e-12, -0.0])
        path = tmp_path / "dominant_mode.csv"
        write_mode_csv(path, DominantMode(times=ts, samples=us, dominance=1.0))
        # -0.0 prints as 0, as in every other file the program writes
        assert path.read_text() == "t,u\n-0.5,0.125\n0,1e-12\n0.666666667,0\n"
