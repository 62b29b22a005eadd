"""Acceptance suite: published reference values and property gates.

Each criterion prints one PASS/FAIL line (run pytest with -s to stream
them).  The optimum location of the scan criterion is judged against the
exact argmin of its objective, computed from closed-form moments in
tests/conftest.py, rather than the published alpha = 0.337: that value is
not a stationary point of the objective, whose exact argmin is 0.367,
while the optimum value itself matches the publication.  The analysis,
including an exact-arithmetic sensitivity scan over every ambiguous
configuration parameter, is in docs/reproduction_notes.md.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    opo_moment_oracle,
    output_axis,
    parabolic_grid_argmin,
    quad_axis,
    quadrature_moments,
    random_physical_covariance,
    window_moment_oracle,
)

from cwherald.coherence import conditional_coherence, dominant_mode, fit_exponential_decay
from cwherald.conditioning import (
    click_wigner_direct,
    condition_on_click,
    condition_on_number,
    condition_on_on,
)
from cwherald.config import parse_config
from cwherald.covariance import CovarianceMatrix4, LossParams, apply_loss, assemble
from cwherald.metrics import fock_fidelity, wigner_at_origin
from cwherald.modes import (
    OutputModeSpec,
    SecondMoments,
    second_moments,
)
from cwherald.pipeline import (
    build_covariance,
    build_modes,
    condition_state,
    scan_alpha,
    summarize,
)
from cwherald.sources import OpoParams, opo_kernel, tmsv_covariance
from cwherald.wigner import (
    GridSpec,
    TwoModeGaussianWigner,
    evaluate_grid,
    fock_state,
    integrate_out_trigger,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"

WIGNER_BOUND = 1.0 / np.pi


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def check(criterion, ok, detail):
    report(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def config_a_run():
    cfg = parse_config(FIXTURES / "figure3_upper.cfg")
    t0 = time.perf_counter()
    v = build_covariance(cfg)
    result = condition_state(cfg, v)
    summary = summarize(cfg, result)
    elapsed = time.perf_counter() - t0
    return cfg, v, result, summary, elapsed


@pytest.fixture(scope="module")
def config_b_covariance():
    cfg = parse_config(FIXTURES / "figure4_upper.cfg")
    return cfg, build_covariance(cfg)


@pytest.fixture(scope="module")
def scan_b():
    cfg = parse_config(FIXTURES / "figure4_scan.cfg")
    t0 = time.perf_counter()
    result = scan_alpha(cfg)
    return result, cfg.scan.objective, time.perf_counter() - t0


class TestCriterion1:
    def test_config_a_fock1_fidelity(self, config_a_run):
        _, _, _, summary, elapsed = config_a_run
        f1 = summary["fidelity_fock1"]
        check(
            "1 (fidelity)",
            abs(f1 - 0.9882) <= 0.005,
            f"configuration A Fock-1 fidelity = {f1:.6f} (target 0.9882 +/- 0.005)",
        )
        check(
            "1 (runtime)",
            elapsed < 5.0,
            f"configuration A pipeline took {elapsed:.2f} s (target < 5 s)",
        )


class TestCriterion2:
    def test_config_a_origin_value(self, config_a_run):
        _, _, _, summary, _ = config_a_run
        w00 = summary["wigner_origin"]
        check(
            "2",
            abs(w00 - (-0.3116)) <= 0.005,
            f"configuration A Wigner origin = {w00:.6f} (target -0.3116 +/- 0.005)",
        )


class TestCriterion3:
    def test_config_a_with_output_loss(self, config_a_run):
        cfg, v, _, _, _ = config_a_run
        lossy = apply_loss(v, LossParams(eta2=0.25))
        result = condition_state(cfg, lossy)
        f1 = fock_fidelity(result.state, 1)
        w00 = wigner_at_origin(result.state)
        check(
            "3 (fidelity)",
            abs(f1 - 0.7414) <= 0.005,
            f"A + 25% loss Fock-1 fidelity = {f1:.6f} (target 0.7414 +/- 0.005)",
        )
        check(
            "3 (origin)",
            abs(w00 - (-0.154)) <= 0.005,
            f"A + 25% loss Wigner origin = {w00:.6f} (target -0.154 +/- 0.005)",
        )


class TestCriterion4:
    def test_config_b_origin_values(self, config_b_covariance):
        cfg, v = config_b_covariance
        w00 = wigner_at_origin(condition_state(cfg, v).state)
        check(
            "4 (no loss)",
            abs(w00 - (-0.2499)) <= 0.005,
            f"configuration B Wigner origin = {w00:.6f} (target -0.2499 +/- 0.005)",
        )
        lossy = apply_loss(v, LossParams(eta2=0.25))
        w00l = wigner_at_origin(condition_state(cfg, lossy).state)
        check(
            "4 (25% loss)",
            abs(w00l - (-0.0889)) <= 0.005,
            f"B + 25% loss Wigner origin = {w00l:.6f} (target -0.0889 +/- 0.005)",
        )


class TestCriterion5:
    def test_scan_value_and_budget(self, scan_b):
        result, objective, elapsed = scan_b
        assert objective == "origin_value"
        check(
            "5 (optimum value)",
            abs(result.best_value - (-0.2618)) <= 0.005,
            f"scan optimum origin value = {result.best_value:.6f} "
            f"(target -0.2618 +/- 0.005)",
        )
        check(
            "5 (runtime)",
            elapsed < 120.0,
            f"50-point scan plus refinement took {elapsed:.1f} s (target < 2 min)",
        )
        # refinement never loses to the scanned table
        assert result.best_value <= float(np.min(result.values)) + 1e-15
        # objective is smooth on the scan resolution
        assert np.max(np.abs(np.diff(result.values))) < 0.05

    def test_scan_optimum_location(self, scan_b):
        result, _, _ = scan_b
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        t, sc = cfg.trigger, cfg.scan
        # the closed-form oracle covers exactly this reading of the fixture
        assert (cfg.source.gamma1, cfg.source.gamma2) == (1.0, 0.0)
        assert t.filter_width is None and t.window_center == 0.0
        assert cfg.output.center == 0.0 and cfg.measurement.kind == "click"
        assert cfg.losses == LossParams()
        eps = cfg.source.epsilon
        tap = t.tap_amplitude * np.sqrt(t.detector_efficiency)
        reflect = float(np.sqrt(1.0 - t.tap_amplitude**2))

        def exact_moments(alpha):
            a, b = window_moment_oracle(eps, alpha, tap, t.window_width, reflect)
            return SecondMoments(a=a, b=b)

        # oracle against the program's moments, at the fixture's alpha and
        # at the slow kernel rate, where a partial-fraction form would divide by 0
        for alpha in (0.5, 0.5 - eps):
            f1, f2, kernel = build_modes(replace(cfg, output=replace(cfg.output, alpha=alpha)))
            got = second_moments(f1, f2, kernel)
            want = exact_moments(alpha)
            for g, w in ((got.a, want.a), (got.b, want.b)):
                np.testing.assert_allclose(g, w, rtol=1e-8, atol=0.0)

        def exact_origin(alpha):
            state = condition_on_click(assemble(exact_moments(alpha))).state
            return wigner_at_origin(state)

        exact = parabolic_grid_argmin(
            exact_origin, sc.alpha_min, sc.alpha_max, step=2.5e-4
        )
        best = result.best_param
        check(
            "5 (optimum location)",
            abs(best - exact) <= 1e-3,
            f"scan optimum alpha = {best:.4f}, exact argmin of the objective = "
            f"{exact:.4f} (target +/- 1e-3). The published 0.337 is "
            f"{abs(exact - 0.337):.4f} from the exact argmin; "
            "see docs/reproduction_notes.md.",
        )


class TestCriterion6:
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_projection_exact(self, r):
        res = condition_on_number(tmsv_covariance(r), 1)
        xs = np.linspace(-5, 5, 81)
        got = res.state.evaluate(xs[None, :], xs[:, None])
        want = fock_state(1).evaluate(xs[None, :], xs[:, None])
        err = float(np.max(np.abs(got - want)))
        check(
            f"6 (projection r={r})",
            err < 1e-9,
            f"TMSV n=1 projection pointwise error = {err:.2e} (target < 1e-9)",
        )

    def test_tmsv_click_fidelity(self):
        res = condition_on_click(tmsv_covariance(0.01))
        f1 = fock_fidelity(res.state, 1)
        check(
            "6 (click)",
            f1 >= 0.999,
            f"TMSV r=0.01 click Fock-1 fidelity = {f1:.6f} (target >= 0.999)",
        )


class TestCriterion7:
    def test_vacuum_fixed_points(self):
        rng = np.random.default_rng(7001)
        vac = CovarianceMatrix4(np.eye(4))
        worst = 0.0
        for _ in range(50):
            p = LossParams(eta1=rng.uniform(0, 1), eta2=rng.uniform(0, 1))
            out = apply_loss(vac, p)
            worst = max(worst, float(np.max(np.abs(out.m - np.eye(4)))))
        check(
            "7 (vacuum fixed points)",
            worst == 0.0,
            f"50 random loss channels leave vacuum unchanged (max dev {worst:.1e})",
        )

    def test_on_off_mixture_identity(self):
        rng = np.random.default_rng(7002)
        xs = np.linspace(-4, 4, 21)
        worst = 0.0
        for _ in range(50):
            v = random_physical_covariance(rng, squeeze_max=0.6)
            res0 = condition_on_number(v, 0)
            res_on = condition_on_on(v)
            marginal, _ = integrate_out_trigger(
                TwoModeGaussianWigner(v), np.array([[1.0]])
            )
            mix = res0.probability * res0.state.evaluate(
                xs[None, :], xs[:, None]
            ) + res_on.probability * res_on.state.evaluate(xs[None, :], xs[:, None])
            marg = marginal.evaluate(xs[None, :], xs[:, None])
            worst = max(worst, float(np.max(np.abs(mix - marg))))
        check(
            "7 (on/off mixture)",
            worst < 1e-10,
            f"50 states: max pointwise mixture deviation = {worst:.2e} (target < 1e-10)",
        )

    def test_click_path_equivalence(self):
        rng = np.random.default_rng(7003)
        worst = 0.0
        for _ in range(50):
            v = random_physical_covariance(rng, squeeze_max=0.6, noise=0.15)
            res = condition_on_click(v)
            pts = rng.uniform(-2.5, 2.5, size=(5, 2))
            got = res.state.evaluate(pts[:, 0], pts[:, 1])
            scale = max(float(np.max(np.abs(got))), 1e-12)
            for (x2, p2), g in zip(pts, got):
                direct = click_wigner_direct(v, x2, p2) / res.probability
                worst = max(worst, abs(g - direct) / max(abs(direct), scale))
        check(
            "7 (click path equivalence)",
            worst < 1e-7,
            f"50 states x 5 points: max relative deviation = {worst:.2e} (target < 1e-7)",
        )

    def test_number_completeness(self):
        rng = np.random.default_rng(7004)
        worst_rest = np.inf
        worst_sum = 0.0
        for _ in range(50):
            v = random_physical_covariance(rng, squeeze_max=0.7)
            p0 = condition_on_number(v, 0).probability
            p1 = condition_on_number(v, 1).probability
            p2 = condition_on_number(v, 2).probability
            p_on = condition_on_on(v).probability
            worst_rest = min(worst_rest, p_on - p1 - p2)
            worst_sum = max(worst_sum, abs(p0 + p_on - 1.0))
        ok = worst_rest >= -1e-9 and worst_sum < 1e-9
        check(
            "7 (number completeness)",
            ok,
            f"50 states: min residual probability = {worst_rest:.2e} (>= -1e-9), "
            f"max |P0 + Pon - 1| = {worst_sum:.2e}",
        )

    def test_quadrature_against_analytic_oracle(self):
        rng = np.random.default_rng(7005)
        worst = 0.0
        for _ in range(50):
            eps = rng.uniform(0.005, 0.4)
            gamma = rng.uniform(1.0, 8.0)
            alpha = rng.uniform(0.15, 1.5)
            c1 = rng.uniform(0.02, 0.3)
            kernel = opo_kernel(OpoParams(epsilon=eps))
            trig = quad_axis(
                lambda t, g=gamma, c=c1: np.where(
                    t <= 0.0, c * np.exp(g * np.clip(t, -800 / g, 0.0)), 0.0
                ),
                support=(-30.0 / gamma, 0.0),
                rate=gamma,
            )
            out = output_axis(
                OutputModeSpec(envelope="exponential", alpha=alpha),
                truncation_rate=min(alpha, kernel.decay_rate),
            )
            m = quadrature_moments(trig, out, kernel)
            a11, b11 = opo_moment_oracle("11", eps, gamma, alpha, c1, 1.0)
            a12, b12 = opo_moment_oracle("12", eps, gamma, alpha, c1, 1.0)
            a22, b22 = opo_moment_oracle("22", eps, gamma, alpha, c1, 1.0)
            for got, want in [
                (m.a[0, 0], a11),
                (m.b[0, 0], b11),
                (m.a[0, 1], a12),
                (m.b[0, 1], b12),
                (m.a[1, 1], a22),
                (m.b[1, 1], b22),
            ]:
                worst = max(worst, abs(got - want) / max(abs(want), 1e-14))
        check(
            "7 (quadrature oracle)",
            worst < 1e-8,
            f"50 random mode/kernel sets x 6 moments: max relative error = "
            f"{worst:.2e} (target < 1e-8)",
        )

    def test_wigner_magnitude_bound(self):
        rng = np.random.default_rng(7006)
        grid = GridSpec()
        worst = 0.0
        for _ in range(50):
            v = random_physical_covariance(rng, squeeze_max=0.7)
            for res in (condition_on_click(v), condition_on_number(v, 1)):
                _, _, w = evaluate_grid(res.state, grid)
                worst = max(worst, float(np.max(np.abs(w))))
        check(
            "7 (Wigner bound)",
            worst <= WIGNER_BOUND + 1e-9,
            f"50 states x 2 conditionings: max |W| = {worst:.6f} "
            f"(bound 1/pi = {WIGNER_BOUND:.6f})",
        )


class TestCriterion8:
    def test_coherence_factorisation_contrast(self):
        low = dominant_mode(conditional_coherence(opo_kernel(OpoParams(epsilon=0.01))))
        high = dominant_mode(conditional_coherence(opo_kernel(OpoParams(epsilon=0.2))))
        check(
            "8 (contrast)",
            low.dominance > high.dominance,
            f"dominance ratio {low.dominance:.4f} at low flux > "
            f"{high.dominance:.4f} at high flux",
        )
        alpha = fit_exponential_decay(low, t_c=0.0)
        check(
            "8 (mode decay)",
            abs(alpha - 0.5) <= 0.1,
            f"fitted dominant-mode decay = {alpha:.4f} (target 0.5 +/- 20%)",
        )
