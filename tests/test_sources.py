import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwherald.errors import ThresholdError
from cwherald.covariance import physicality_check
from cwherald.sources import OpoParams, opo_kernel, tmsv_covariance


class TestOpoParams:
    def test_rates_direct_substitution(self):
        p = OpoParams(gamma1=1.0, gamma2=0.0, epsilon=0.01)
        assert p.rate_fast == pytest.approx(0.51, abs=1e-15)
        assert p.rate_slow == pytest.approx(0.49, abs=1e-15)

    def test_threshold_violation_names_parameters(self):
        with pytest.raises(ThresholdError, match="epsilon=0.5"):
            OpoParams(gamma1=1.0, gamma2=0.0, epsilon=0.5)
        with pytest.raises(ThresholdError):
            OpoParams(gamma1=1.0, gamma2=0.0, epsilon=0.7)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            OpoParams(gamma1=0.0)
        with pytest.raises(ValueError):
            OpoParams(gamma2=-0.1)
        with pytest.raises(ValueError):
            OpoParams(epsilon=-0.01)


class TestOpoKernel:
    def test_zero_gain_kernels_vanish(self):
        k = opo_kernel(OpoParams(epsilon=0.0))
        taus = np.linspace(-20, 20, 101)
        assert np.all(k.c_aa(taus) == 0.0)
        assert np.all(k.c_ada(taus) == 0.0)

    def test_occupation_density_closed_form(self):
        # scale * (1/(2 mu) - 1/(2 lam)) with lam=0.7, mu=0.3, scale=0.1
        # evaluates to exactly 2/21
        k = opo_kernel(OpoParams(gamma1=1.0, gamma2=0.0, epsilon=0.2))
        assert k.c_ada(0.0) == pytest.approx(2.0 / 21.0, rel=1e-14)

    def test_decay_rates_exposed(self):
        k = opo_kernel(OpoParams(epsilon=0.2))
        assert k.decay_rate == pytest.approx(0.3)
        assert k.fast_rate == pytest.approx(0.7)

    def test_evenness_exact(self, rng):
        k = opo_kernel(OpoParams(epsilon=0.15, gamma2=0.3))
        taus = rng.uniform(-50, 50, size=1000)
        assert np.array_equal(k.c_aa(taus), k.c_aa(-taus))
        assert np.array_equal(k.c_ada(taus), k.c_ada(-taus))

    def test_monotone_decay(self):
        k = opo_kernel(OpoParams(epsilon=0.2))
        taus = np.linspace(0, 30, 400)
        vals = np.abs(k.c_aa(taus))
        assert np.all(np.diff(vals) <= 1e-16)

    @given(eps=st.floats(min_value=1e-6, max_value=0.49))
    @settings(max_examples=30, deadline=None)
    def test_positive_flux_below_threshold(self, eps):
        k = opo_kernel(OpoParams(epsilon=eps))
        assert k.c_ada(0.0) >= 0.0
        assert k.c_aa(0.0) > 0.0


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        src = tmsv_covariance(0.0)
        assert np.array_equal(src.m, np.eye(4))

    def test_half_squeezing_diagonal(self):
        src = tmsv_covariance(0.5)
        assert src.m[0, 0] == pytest.approx(np.cosh(1.0), rel=1e-15)
        assert src.m[0, 2] == pytest.approx(np.sinh(1.0), rel=1e-15)
        assert src.m[1, 3] == pytest.approx(-np.sinh(1.0), rel=1e-15)

    @given(r=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_always_physical_and_pure(self, r):
        report = physicality_check(tmsv_covariance(r))
        assert report.physical
        assert report.purity == pytest.approx(1.0, abs=1e-9)

