from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    envelope_table,
    opo_moment_oracle,
    output_axis,
    piece_values,
    pieces_norm_sq,
    quadrature_moments,
    trigger_axis,
    window_moment_oracle,
)

from cwherald import modes
from cwherald.modes import (
    OutputModeSpec,
    TriggerModeSpec,
    build_output_mode,
    build_trigger_mode,
    second_moments,
)
from cwherald.piecewise import kernel_moments
from cwherald.quadrature import correlation_moment_once, l2_norm_sq
from cwherald.sources import OpoParams, opo_kernel


class TestBuildTriggerMode:
    def test_collapsed_filter_closed_form(self):
        spec = TriggerModeSpec(
            tap_amplitude=0.1, filter_width=5.0, window_center=0.0, window_width=0.02
        )
        mode = build_trigger_mode(spec, source_fast_rate=0.0)
        expected = 0.1 * np.sqrt(0.02) * 5.0 * np.exp(-1.0)
        assert piece_values(mode, -0.2) == pytest.approx(expected, rel=1e-12)
        assert piece_values(mode, 0.1) == 0.0

    def test_zero_tap_is_vacuum(self):
        spec = TriggerModeSpec(tap_amplitude=0.0, filter_width=5.0)
        mode = build_trigger_mode(spec, source_fast_rate=0.0)
        assert pieces_norm_sq(mode) == pytest.approx(0.0, abs=1e-300)
        ts = np.linspace(-3, 1, 50)
        assert np.all(piece_values(mode, ts) == 0.0)

    def test_full_tap_window_has_unit_norm(self):
        spec = TriggerModeSpec(tap_amplitude=1.0, filter_width=None, window_width=0.02)
        mode = build_trigger_mode(spec, source_fast_rate=0.0)
        assert pieces_norm_sq(mode) == pytest.approx(1.0, rel=1e-12)

    def test_efficiency_folds_into_tap(self):
        full = build_trigger_mode(
            TriggerModeSpec(tap_amplitude=0.2, filter_width=None), source_fast_rate=0.0
        )
        halved = build_trigger_mode(
            TriggerModeSpec(tap_amplitude=0.2, filter_width=None, detector_efficiency=0.25),
            source_fast_rate=0.0,
        )
        assert pieces_norm_sq(halved) == pytest.approx(0.25 * pieces_norm_sq(full), rel=1e-12)

    def test_wide_window_integrates_filter_explicitly(self):
        # dt * gamma = 0.5 > 0.1: window no longer collapsible
        spec = TriggerModeSpec(
            tap_amplitude=0.1, filter_width=5.0, window_center=0.0, window_width=0.1
        )
        mode = build_trigger_mode(spec, source_fast_rate=0.0)
        # inside the window the response saturates toward tau/sqrt(dt)
        inside = piece_values(mode, -0.049)
        pref = 0.1 / np.sqrt(0.1)
        assert inside == pytest.approx(pref * (1 - np.exp(-5.0 * 0.099)), rel=1e-12)
        # unit-norm bound holds
        assert pieces_norm_sq(mode) <= 0.1**2 + 1e-12

    def test_source_rate_decides_the_collapse(self):
        # dt * gamma = 0.05 alone collapses the window; a fast source keeps it whole
        spec = TriggerModeSpec(tap_amplitude=0.1, filter_width=5.0, window_width=0.01)
        assert len(build_trigger_mode(spec, source_fast_rate=1.0)) == 1
        assert len(build_trigger_mode(spec, source_fast_rate=20.0)) == 3

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            TriggerModeSpec(tap_amplitude=0.1, filter_width=None, window_width=0.0)
        with pytest.raises(ValueError):
            TriggerModeSpec(tap_amplitude=0.1, filter_width=-1.0)
        with pytest.raises(ValueError):
            TriggerModeSpec(tap_amplitude=1.5, filter_width=None)
        with pytest.raises(ValueError):
            TriggerModeSpec(tap_amplitude=0.1, filter_width=None, detector_efficiency=1.2)


class TestBuildOutputMode:
    def test_unit_norm_and_peak(self):
        mode = build_output_mode(OutputModeSpec(envelope="exponential", alpha=0.5))
        assert pieces_norm_sq(mode) == pytest.approx(1.0, rel=1e-10)
        assert piece_values(mode, 0.0) == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_reflect_amplitude_scales_weight(self):
        mode = build_output_mode(OutputModeSpec(envelope="exponential", alpha=0.5))
        assert pieces_norm_sq([p.scaled(0.8) for p in mode]) == pytest.approx(0.64, rel=1e-10)

    def test_tabulated_gaussian_normalises(self):
        ts = np.linspace(-6, 6, 241)
        us = np.exp(-(ts**2))
        mode = build_output_mode(
            OutputModeSpec(envelope="tabulated", table=envelope_table(ts, us))
        )
        assert pieces_norm_sq(mode) == pytest.approx(1.0, rel=1e-9)

    def test_bad_envelopes(self):
        with pytest.raises(ValueError):
            OutputModeSpec(envelope="exponential", alpha=0.0)
        with pytest.raises(ValueError):
            OutputModeSpec(envelope="exponential")  # alpha defaults to NaN
        with pytest.raises(ValueError):
            OutputModeSpec(envelope="gaussian")
        with pytest.raises(ValueError, match="table file path"):
            OutputModeSpec(envelope="tabulated")
        bad = OutputModeSpec(
            envelope="tabulated",
            table=envelope_table(np.array([0.0, 1.0]), np.array([1.0, np.inf])),
        )
        with pytest.raises(ValueError, match="non-finite"):
            build_output_mode(bad)
        one_row = OutputModeSpec(
            envelope="tabulated", table=envelope_table(np.array([0.0]), np.array([1.0]))
        )
        with pytest.raises(ValueError, match="at least two rows"):
            build_output_mode(one_row)

    def test_alpha_array_gives_a_unit_norm_family(self):
        alphas = np.array([0.2, 0.5, 3.0])
        mode = build_output_mode(OutputModeSpec(alpha=alphas))
        members = [[replace(p, coeff=p.coeff[k], rate=p.rate[k]) for p in mode] for k in range(3)]
        np.testing.assert_allclose([pieces_norm_sq(f) for f in members], np.ones(3), rtol=1e-14)
        with pytest.raises(ValueError, match="alpha > 0"):
            OutputModeSpec(alpha=np.array([0.5, 0.0]))


class TestSecondMoments:
    def setup_method(self):
        self.kernel = opo_kernel(OpoParams(epsilon=0.01))
        self.trigger_spec = TriggerModeSpec(
            tap_amplitude=0.1, filter_width=5.0, window_center=0.0, window_width=0.02
        )
        self.output_spec = OutputModeSpec(envelope="exponential", alpha=0.5)
        self.trigger = build_trigger_mode(
            self.trigger_spec, source_fast_rate=self.kernel.fast_rate
        )
        self.output = build_output_mode(self.output_spec)

    def test_zero_kernel_gives_zero_moments(self):
        k0 = opo_kernel(OpoParams(epsilon=0.0))
        m = second_moments(self.trigger, self.output, k0)
        assert np.all(m.a == 0.0)
        assert np.all(m.b == 0.0)

    def test_moments_match_analytic_oracle(self):
        m = second_moments(self.trigger, self.output, self.kernel)
        c1 = 0.1 * np.sqrt(0.02) * 5.0
        a11, b11 = opo_moment_oracle("11", 0.01, 5.0, 0.5, c1, 1.0)
        a12, b12 = opo_moment_oracle("12", 0.01, 5.0, 0.5, c1, 1.0)
        a22, b22 = opo_moment_oracle("22", 0.01, 5.0, 0.5, c1, 1.0)
        assert m.a[0, 0] == pytest.approx(a11, rel=1e-8)
        assert m.b[0, 0] == pytest.approx(b11, rel=1e-8)
        assert m.a[0, 1] == pytest.approx(a12, rel=1e-8)
        assert m.b[0, 1] == pytest.approx(b12, rel=1e-8)
        assert m.a[1, 1] == pytest.approx(a22, rel=1e-8)
        assert m.b[1, 1] == pytest.approx(b22, rel=1e-8)

    def test_moment_symmetry(self):
        m = second_moments(self.trigger, self.output, self.kernel)
        assert abs(m.a[0, 1] - m.a[1, 0]) < 1e-10
        assert abs(m.b[0, 1] - m.b[1, 0]) < 1e-10

    def test_one_gram_per_call(self, monkeypatch):
        calls = []
        gram = modes.kernel_moments
        counted = lambda *args: calls.append(args) or gram(*args)  # noqa: E731
        monkeypatch.setattr(modes, "kernel_moments", counted)
        second_moments(self.trigger, self.output, self.kernel)
        assert len(calls) == 1

    def test_scaling_of_trigger(self):
        m = second_moments(self.trigger, self.output, self.kernel)
        half_trigger = tuple(p.scaled(0.5) for p in self.trigger)
        half = second_moments(half_trigger, self.output, self.kernel)
        assert half.a[0, 0] == pytest.approx(0.25 * m.a[0, 0], rel=1e-9)
        assert half.a[0, 1] == pytest.approx(0.5 * m.a[0, 1], rel=1e-9)
        assert half.b[0, 0] == pytest.approx(0.25 * m.b[0, 0], rel=1e-9)

    def test_cauchy_schwarz(self):
        m = second_moments(self.trigger, self.output, self.kernel)
        assert m.b[0, 1] ** 2 <= m.b[0, 0] * m.b[1, 1] + 1e-12

    def test_panel_halving_converged(self):
        k = self.kernel
        ax1 = trigger_axis(self.trigger_spec, k.fast_rate, truncation_rate=min(0.49, 0.5))
        ax2 = output_axis(self.output_spec, truncation_rate=min(0.49, 0.5))
        for kern in (k.c_aa, k.c_ada):
            coarse = correlation_moment_once(ax1, ax2, kern, k.fast_rate, scale=2.0)
            fine = correlation_moment_once(ax1, ax2, kern, k.fast_rate, scale=4.0)
            assert abs(fine - coarse) <= max(1e-8 * abs(fine), 1e-12)

    def test_non_converging_integrand_raises_with_estimate(self):
        from cwherald.quadrature import QuadAxis, QuadratureError, correlation_moment

        axis = QuadAxis(
            amplitude=lambda t: np.ones_like(t), breakpoints=np.array([-1.0, 1.0]), rate=1.0
        )
        # discontinuity away from the diagonal defeats panel refinement
        step_kernel = lambda s: np.where(np.abs(s) < 0.37, 1.0, 0.0)
        with pytest.raises(QuadratureError) as err:
            correlation_moment(axis, axis, step_kernel, 1.0, rtol=1e-10, atol=1e-14)
        assert np.isfinite(err.value.estimate)
        assert err.value.bound > 0.0




def _trigger_spec(kind, center=0.0):
    filt, width = {
        "window": (None, 0.02),
        "collapsed": (5.0, 0.01),
        "explicit": (5.0, 0.1),
        # filter rate times width 4: divided differences wider than their Taylor range
        "explicit_wide": (8.0, 0.5),
    }[kind]
    return TriggerModeSpec(
        tap_amplitude=0.1, filter_width=filt, window_center=center, window_width=width
    )


def _trigger(kind, kernel, center=0.0):
    return build_trigger_mode(_trigger_spec(kind, center), source_fast_rate=kernel.fast_rate)


def _trigger_axis(kind, kernel, center=0.0):
    """Reference amplitude of _trigger, its tail followed to the slowest rate."""
    spec = _trigger_spec(kind, center)
    rates = [kernel.decay_rate] + ([spec.filter_width] if spec.filter_width else [])
    return trigger_axis(spec, kernel.fast_rate, truncation_rate=min(rates))


REFLECT = 0.9


def _output_spec(kind, center=0.0, alpha=0.5):
    if kind == "exponential":
        return OutputModeSpec(alpha=alpha, center=center)
    ts = center + np.linspace(-6.0, 6.0, 41)
    us = np.exp(-alpha * np.abs(ts - center)) * (1.0 + 0.2 * np.sin(ts - center))
    return OutputModeSpec(envelope="tabulated", table=envelope_table(ts, us))


def _reflected(f, reflect=REFLECT):
    return tuple(p.scaled(reflect) for p in f)


def _output(kind, center=0.0):
    return _reflected(build_output_mode(_output_spec(kind, center)))


def _assert_moments(got, want, rtol):
    np.testing.assert_allclose(got.a, want.a, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(got.b, want.b, rtol=rtol, atol=0.0)


coincidence = st.sampled_from([0.0, 1e-9, -1e-9])


class TestExactMoments:
    """Closed-form moments of the built-in modes against quadrature and oracles."""

    @pytest.mark.parametrize("trigger", ["window", "collapsed", "explicit", "explicit_wide"])
    @pytest.mark.parametrize("output", ["exponential", "tabulated"])
    def test_matches_quadrature_off_centre(self, trigger, output):
        kernel = opo_kernel(OpoParams(epsilon=0.15))
        exact = second_moments(
            _trigger(trigger, kernel, center=0.3), _output(output, center=-0.2), kernel
        )
        quad = quadrature_moments(
            _trigger_axis(trigger, kernel, center=0.3),
            output_axis(
                _output_spec(output, center=-0.2),
                truncation_rate=kernel.decay_rate,
                refl=REFLECT,
            ),
            kernel,
        )
        _assert_moments(exact, quad, rtol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        eps=st.floats(0.005, 0.45),
        gamma=st.floats(1.0, 8.0),
        alpha=st.floats(0.15, 1.5),
        tied_to=st.sampled_from(["none", "slow", "fast", "filter"]),
        offset=coincidence,
        tap=st.floats(0.01, 0.5),
        reflect=st.floats(0.5, 1.0),
    )
    def test_collapsed_trigger_matches_oracle(
        self, eps, gamma, alpha, tied_to, offset, tap, reflect
    ):
        kernel = opo_kernel(OpoParams(epsilon=eps))
        alpha = offset + {
            "none": alpha, "slow": kernel.decay_rate, "fast": kernel.fast_rate, "filter": gamma
        }[tied_to]
        width = 0.01
        f1 = build_trigger_mode(
            TriggerModeSpec(tap_amplitude=tap, filter_width=gamma, window_width=width),
            source_fast_rate=kernel.fast_rate,
        )
        f2 = _reflected(build_output_mode(OutputModeSpec(alpha=alpha)), reflect)
        m = second_moments(f1, f2, kernel)
        c1 = tap * np.sqrt(width) * gamma
        for kind, (i, j) in (("11", (0, 0)), ("12", (0, 1)), ("22", (1, 1))):
            a, b = opo_moment_oracle(kind, eps, gamma, alpha, c1, reflect)
            assert m.a[i, j] == pytest.approx(a, rel=1e-12)
            assert m.b[i, j] == pytest.approx(b, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        eps=st.floats(0.005, 0.45),
        alpha=st.floats(0.15, 1.5),
        tied_to=st.sampled_from(["none", "slow", "fast"]),
        offset=coincidence,
        width=st.floats(0.02, 0.5),
        tap=st.floats(0.01, 0.5),
        reflect=st.floats(0.5, 1.0),
    )
    def test_window_trigger_matches_oracle(
        self, eps, alpha, tied_to, offset, width, tap, reflect
    ):
        kernel = opo_kernel(OpoParams(epsilon=eps))
        alpha = offset + {
            "none": alpha, "slow": kernel.decay_rate, "fast": kernel.fast_rate
        }[tied_to]
        f1 = build_trigger_mode(
            TriggerModeSpec(tap_amplitude=tap, filter_width=None, window_width=width),
            source_fast_rate=kernel.fast_rate,
        )
        f2 = _reflected(build_output_mode(OutputModeSpec(alpha=alpha)), reflect)
        m = second_moments(f1, f2, kernel)
        a, b = window_moment_oracle(eps, alpha, tap, width, reflect)
        np.testing.assert_allclose(m.a, a, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(m.b, b, rtol=1e-12, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        trigger=st.sampled_from(["window", "collapsed", "explicit"]),
        output=st.sampled_from(["exponential", "tabulated"]),
        lag=st.floats(-2.0, 2.0),
        shift=st.floats(-3.0, 3.0),
    )
    def test_depends_on_centre_difference_only(self, trigger, output, lag, shift):
        kernel = opo_kernel(OpoParams(epsilon=0.2))
        at = lambda s: second_moments(  # noqa: E731
            _trigger(trigger, kernel, center=lag + s), _output(output, center=s), kernel
        )
        _assert_moments(at(shift), at(0.0), rtol=1e-12)

    @pytest.mark.parametrize("trigger", ["window", "collapsed", "explicit", "explicit_wide"])
    def test_family_members_match_single_modes(self, trigger):
        # alpha on and beside the kernel rates, where divided differences go confluent
        kernel = opo_kernel(OpoParams(epsilon=0.2))
        mu, lam = kernel.decay_rate, kernel.fast_rate
        alphas = np.array([mu, mu + 1e-9, mu - 1e-9, lam, lam + 1e-9, lam - 1e-9, 0.25, 5.0])
        rates = np.array(kernel.terms)[:, 0]
        f1 = _trigger(trigger, kernel, center=0.3)
        family = _reflected(build_output_mode(OutputModeSpec(alpha=alphas, center=-0.2)))
        gram = kernel_moments((f1, family), rates)
        assert gram.shape == (len(alphas), 2, 2, len(rates))
        for member, alpha in zip(gram, alphas):
            f2 = _reflected(build_output_mode(OutputModeSpec(alpha=alpha, center=-0.2)))
            single = kernel_moments((f1, f2), rates)
            np.testing.assert_allclose(member, single, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("trigger", ["collapsed", "explicit"])
    def test_filtered_trigger_norm_matches_reference(self, trigger):
        kernel = opo_kernel(OpoParams(epsilon=0.01))
        norm = pieces_norm_sq(_trigger(trigger, kernel))
        ref = l2_norm_sq(_trigger_axis(trigger, kernel))
        assert norm == pytest.approx(ref, rel=1e-10)
        if trigger == "collapsed":
            scale = 0.1 * np.sqrt(0.01) * 5.0
            assert norm == pytest.approx(scale**2 / 10.0, rel=1e-15)
