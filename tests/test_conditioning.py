from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OCCUPATION_POWERS, random_physical_covariance

from cwherald.conditioning import (
    _number_core,
    _occupation_expectation,
    click_wigner_direct,
    condition_on_click,
    condition_on_number,
    condition_on_on,
    vacuum_projection,
)
from cwherald.config import parse_config
from cwherald.covariance import (
    CovarianceMatrix4,
    LossParams,
    apply_loss,
    assemble,
    physicality_check,
)
from cwherald.errors import ImpossibleOutcomeError
from cwherald import conditioning, metrics, polynomials, wigner
from cwherald.metrics import fock_fidelity, negativity_volume, wigner_at_origin
from cwherald.modes import SecondMoments, second_moments
from cwherald.pipeline import build_modes, summarize
from cwherald.polynomials import GaussianCore, expected_poly_of_shifted_gaussian
from cwherald.sources import tmsv_covariance
from cwherald.wigner import (
    GaussPolyState,
    GridSpec,
    TwoModeGaussianWigner,
    evaluate_grid,
    fock_state,
    integrate_out_trigger,
    trigger_given_output,
)

VACUUM = CovarianceMatrix4(np.eye(4))
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"
SCAN_FIXTURE = FIXTURES / "figure4_scan.cfg"


# two-mode-squeezed moments plus thermal noise, physical for any downscaling
# of the trigger source part
WEAK_TRIGGER_BASE = SecondMoments(
    a=np.array([[0.0, np.sinh(0.6) / 2], [np.sinh(0.6) / 2, 0.0]]),
    b=np.eye(2) * (np.sinh(0.3) ** 2 + 0.01),
)


def tmsv_number_probability(r, n):
    """Schmidt-expansion oracle: P_n = tanh(r)^(2n) / cosh(r)^2."""
    return np.tanh(r) ** (2 * n) / np.cosh(r) ** 2


class TestNumberDetection:
    def test_vacuum_projects_to_vacuum(self):
        res = condition_on_number(VACUUM, 0)
        assert res.probability == pytest.approx(1.0, rel=1e-12)
        xs = np.linspace(-3, 3, 21)
        got = res.state.evaluate(xs[None, :], xs[:, None])
        want = fock_state(0).evaluate(xs[None, :], xs[:, None])
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_single_photon_heralds_fock1(self, r):
        res = condition_on_number(tmsv_covariance(r), 1)
        assert res.probability == pytest.approx(tmsv_number_probability(r, 1), rel=1e-10)
        xs = np.linspace(-4, 4, 41)
        got = res.state.evaluate(xs[None, :], xs[:, None])
        want = fock_state(1).evaluate(xs[None, :], xs[:, None])
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("r", [0.3, 0.8])
    def test_tmsv_two_photon_probability(self, r):
        res = condition_on_number(tmsv_covariance(r), 2)
        assert res.probability == pytest.approx(tmsv_number_probability(r, 2), rel=1e-10)
        # heralded state is the two-photon Fock state
        assert fock_fidelity(res.state, 2) == pytest.approx(1.0, abs=1e-9)

    def test_impossible_outcome_on_vacuum(self):
        with pytest.raises(ImpossibleOutcomeError):
            condition_on_number(VACUUM, 1)

    @pytest.mark.parametrize("s", [1e-5, 1e-8])
    def test_single_photon_meets_click_at_low_flux(self, s):
        # a weak trigger holds at most one photon: its n = 1 and click states agree
        v = assemble(WEAK_TRIGGER_BASE.scaled_trigger(s))
        xs = np.linspace(-4, 4, 41)
        got = condition_on_number(v, 1).state.evaluate(xs[None, :], xs[:, None])
        want = condition_on_click(v).state.evaluate(xs[None, :], xs[:, None])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            condition_on_number(VACUUM, 3)

    def test_vacuum_projection_alias_is_gaussian(self, rng):
        v = random_physical_covariance(rng)
        res = vacuum_projection(v)
        ref = condition_on_number(v, 0)
        assert res.probability == ref.probability
        assert len(res.state.terms) == 1
        coeffs = res.state.terms[0].coeffs
        assert coeffs.shape == (1, 1)  # polynomial part is a constant


class TestOnOffDetection:
    def test_vacuum_never_fires(self):
        with pytest.raises(ImpossibleOutcomeError):
            condition_on_on(VACUUM)

    def test_tmsv_on_probability(self):
        res = condition_on_on(tmsv_covariance(0.5))
        assert res.probability == pytest.approx(1 - 1 / np.cosh(0.5) ** 2, rel=1e-10)

    @pytest.mark.parametrize("s", [1e-3, 1e-5, 1e-8])
    def test_on_probability_meets_occupation_at_low_flux(self, s):
        # p_on = <a+a> (1 - O(<a+a>)) for a weak trigger
        v = assemble(WEAK_TRIGGER_BASE.scaled_trigger(s))
        occupation = condition_on_click(v).probability
        assert condition_on_on(v).probability / occupation == pytest.approx(1.0, abs=2 * occupation)

    def test_mixture_identity_pointwise(self, rng):
        xs = np.linspace(-4, 4, 41)
        for _ in range(10):
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
            assert np.max(np.abs(mix - marg)) < 1e-10

    def test_on_state_normalised(self, rng):
        v = random_physical_covariance(rng)
        res = condition_on_on(v)
        assert res.state.total_integral() == pytest.approx(1.0, abs=1e-12)


class TestClickDetection:
    def test_vacuum_has_nothing_to_subtract(self):
        with pytest.raises(ImpossibleOutcomeError):
            condition_on_click(VACUUM)

    def test_weak_tmsv_click_heralds_fock1(self):
        res = condition_on_click(tmsv_covariance(0.01))
        assert fock_fidelity(res.state, 1) >= 0.999

    def test_click_rate_is_trigger_occupation(self, rng):
        for _ in range(10):
            v = random_physical_covariance(rng)
            res = condition_on_click(v)
            occ = (v.m[0, 0] + v.m[1, 1] - 2.0) / 4.0
            assert res.probability == pytest.approx(occ, rel=1e-12)

    def test_reduced_form_agrees_with_differential_form(self, rng):
        # paths (i) and (ii): 20 random states, 25 random points each
        for _ in range(20):
            v = random_physical_covariance(rng, squeeze_max=0.6, noise=0.15)
            res = condition_on_click(v)
            occ = res.probability
            pts = rng.uniform(-2.5, 2.5, size=(25, 2))
            got = res.state.evaluate(pts[:, 0], pts[:, 1])
            scale = max(np.max(np.abs(got)), 1e-12)
            for (x2, p2), g in zip(pts, got):
                direct = click_wigner_direct(v, x2, p2) / occ
                assert abs(g - direct) <= 1e-7 * max(abs(direct), scale)

    def test_trigger_scale_invariance(self):
        # scaling the trigger mode rescales probabilities but not the state,
        # down to a trigger occupation of 1e-20
        xs = np.linspace(-4, 4, 41)
        states = []
        probs = []
        scales = (1.0, 0.1, 0.013, 1e-5, 3.3e-10)
        for s in scales:
            res = condition_on_click(assemble(WEAK_TRIGGER_BASE.scaled_trigger(s)))
            states.append(res.state.evaluate(xs[None, :], xs[:, None]))
            probs.append(res.probability)
        assert probs[-1] == pytest.approx(1e-20, rel=0.02)
        for s, state, prob in zip(scales[1:], states[1:], probs[1:]):
            assert np.max(np.abs(state - states[0])) < 1e-9
            assert prob == pytest.approx(probs[0] * s**2, rel=1e-9)

    def test_click_state_parity(self, rng):
        v = random_physical_covariance(rng)
        res = condition_on_click(v)
        xs = np.linspace(-3.5, 3.5, 29)
        w = res.state.evaluate(xs[None, :], xs[:, None])
        assert np.max(np.abs(w - w[::-1, ::-1])) < 1e-13


class TestNumberCompleteness:
    def test_outcome_probabilities_complete(self, rng):
        for _ in range(50):
            v = random_physical_covariance(rng, squeeze_max=0.7)
            p0 = condition_on_number(v, 0).probability
            p1 = condition_on_number(v, 1).probability
            p2 = condition_on_number(v, 2).probability
            p_on = condition_on_on(v).probability
            p_rest = p_on - p1 - p2
            assert p0 + p_on == pytest.approx(1.0, abs=1e-12)
            assert p_rest >= -1e-9
            assert p0 + p1 + p2 <= 1.0 + 1e-9


# 0 at the x-p entries of a 4x4 covariance: V times this mask is (V + D V D)/2 with
# D = diag(1, -1, 1, -1), the covariance of an equal mixture of a state and its
# transpose, so physical if V is
SAME_QUADRATURE = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]] * 2)


class TestOccupationExpectation:
    """The closed-form trigger weights against the generic Isserlis expansion."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), family=st.booleans(), decoupled=st.booleans())
    def test_matches_generic_expansion(self, seed, family, decoupled):
        rng = np.random.default_rng(seed)
        members = [random_physical_covariance(rng).m for _ in range(3 if family else 1)]
        if decoupled:
            members = [m * SAME_QUADRATURE for m in members]
        v = CovarianceMatrix4(np.stack(members) if family else members[0])
        _, g, e = trigger_given_output(v)
        # the number outcomes' mean map and covariance, then the click's
        for lin, cov in (_number_core(v)[:2], (2.0 * g, e)):
            for n in (0, 1, 2):
                got = _occupation_expectation(n, lin, cov)
                want = expected_poly_of_shifted_gaussian(OCCUPATION_POWERS[n], lin, cov)
                assert got.shape == want.shape
                assert np.array_equal(got == 0.0, want == 0.0)
                if decoupled:  # no odd power of x, so a grid takes its parity quarter
                    assert not got[..., 1::2, :].any()
                largest = np.abs(want).max(axis=(-2, -1), keepdims=True)
                assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * largest)


class TestFamilies:
    """A family of covariances conditioned at once equals its members conditioned alone."""

    CONDITIONERS = {
        "n0": lambda v: condition_on_number(v, 0),
        "n1": lambda v: condition_on_number(v, 1),
        "n2": lambda v: condition_on_number(v, 2),
        "on": condition_on_on,
        "click": condition_on_click,
        "vacuum": vacuum_projection,
    }

    @staticmethod
    def scan_family(losses):
        """The 50 covariances of the scan fixture's alpha grid, as one family."""
        cfg = parse_config(SCAN_FIXTURE)
        alphas = np.linspace(cfg.scan.alpha_min, cfg.scan.alpha_max, cfg.scan.samples)
        f1, f2, kernel = build_modes(replace(cfg, output=replace(cfg.output, alpha=alphas)))
        v = assemble(second_moments(f1, f2, kernel))
        return v if losses is None else apply_loss(v, losses)

    @pytest.mark.parametrize("losses", [None, LossParams(eta1=0.1, eta2=0.25)])
    @pytest.mark.parametrize("kind", list(CONDITIONERS))
    def test_family_equals_members_alone(self, kind, losses):
        condition = self.CONDITIONERS[kind]
        family = self.scan_family(losses)
        assert family.n.shape == (50, 4, 4)
        together = condition(family)
        alone = [condition(CovarianceMatrix4.from_excess(n)) for n in family.n]
        np.testing.assert_array_equal(together.probability, [r.probability for r in alone])
        np.testing.assert_array_equal(
            wigner_at_origin(together.state), [wigner_at_origin(r.state) for r in alone]
        )
        np.testing.assert_array_equal(
            fock_fidelity(together.state, 1), [fock_fidelity(r.state, 1) for r in alone]
        )

    def test_first_failing_member_is_reported(self):
        family = CovarianceMatrix4(np.stack([tmsv_covariance(0.3).m, np.eye(4), np.eye(4)]))
        with pytest.raises(ImpossibleOutcomeError) as alone:
            condition_on_click(VACUUM)
        with pytest.raises(ImpossibleOutcomeError) as together:
            condition_on_click(family)
        assert str(together.value) == str(alone.value)


CONDITIONERS = TestFamilies.CONDITIONERS
SUMMARY_CFG = parse_config(FIXTURES / "figure4_lower.cfg")
SMALL_GRID = GridSpec(nx=21, np_=21)


def same_bits(a, b) -> bool:
    """Equal shapes and values, sign bits included."""
    a, b = np.asarray(a), np.asarray(b)
    same_signs = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and same_signs


def same_result(got, want) -> bool:
    return (
        same_bits(got.probability, want.probability)
        and len(got.state.terms) == len(want.state.terms)
        and all(
            same_bits(g.coeffs, w.coeffs) and same_bits(g.sigma, w.sigma)
            for g, w in zip(got.state.terms, want.state.terms)
        )
    )


class TestSharedReductions:
    """A covariance reduces once for every conditioner; sharing changes no bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.booleans(),
        order=st.permutations(list(CONDITIONERS)),
        between=st.lists(st.sampled_from(["summarize", "grid", "check"]), max_size=3),
    )
    def test_any_order_equals_fresh_covariance(self, seed, family, order, between):
        rng = np.random.default_rng(seed)
        members = [random_physical_covariance(rng).n for _ in range(3 if family else 1)]
        v = CovarianceMatrix4.from_excess(np.stack(members) if family else members[0])
        results = {}
        for kind in order:
            results[kind] = result = CONDITIONERS[kind](v)
            for step in between:
                if step == "summarize":
                    summarize(SUMMARY_CFG, result)
                elif step == "grid" and not family:
                    evaluate_grid(result.state, SMALL_GRID)
                elif step == "check":
                    physicality_check(v)
        fresh_report = physicality_check(CovarianceMatrix4.from_excess(v.n.copy()))
        report = physicality_check(v)
        assert same_bits(report.min_eigenvalue, fresh_report.min_eigenvalue)
        assert same_bits(report.physical, fresh_report.physical)
        for kind, result in results.items():
            fresh = CONDITIONERS[kind](CovarianceMatrix4.from_excess(v.n.copy()))
            assert same_result(result, fresh)
            got, want = summarize(SUMMARY_CFG, result), summarize(SUMMARY_CFG, fresh)
            assert list(got) == list(want)
            assert all(same_bits(got[key], want[key]) for key in got)
            if not family:
                assert same_bits(
                    evaluate_grid(result.state, SMALL_GRID)[2],
                    evaluate_grid(fresh.state, SMALL_GRID)[2],
                )

    def test_sweep_reduces_each_object_once(self, rng, monkeypatch):
        # a sweep as the state_sweep benchmark runs it: every kind, its
        # summary, its negativity volume and its grid
        calls = {}

        def counted(name, func):
            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return func(*args)

            return wrapper

        vacuum = fock_state(0).terms[0].core
        vacuum.sigma_inv  # shared by every Fock state: warm, so that test order does not count
        margin = CovarianceMatrix4.__dict__["margin"]
        monkeypatch.setattr(margin, "func", counted("margin", margin.func))
        for name in ("sigma_inv", "_moments"):
            prop = GaussianCore.__dict__[name]
            monkeypatch.setattr(prop, "func", counted(name, prop.func))
        # the trigger reduction, the number core and each product build one core
        monkeypatch.setattr(
            GaussianCore, "__post_init__", counted("core", GaussianCore.__post_init__)
        )
        monkeypatch.setattr(
            GaussPolyState, "evaluate", counted("evaluate", GaussPolyState.evaluate)
        )
        monkeypatch.setattr(polynomials, "_contract", counted("contract", polynomials._contract))
        # every conditioner takes its trigger weight in closed form, wherever
        # the generic expansion is bound
        expansion = counted("expansion", expected_poly_of_shifted_gaussian)
        for module in (polynomials, wigner, conditioning):
            monkeypatch.setattr(
                module, "expected_poly_of_shifted_gaussian", expansion, raising=False
            )
        used = []  # the grid each negativity volume reads

        def recorded(state, grid, evaluate_grid=metrics.evaluate_grid):
            used.append(evaluate_grid(state, grid))
            return used[-1]

        monkeypatch.setattr(metrics, "evaluate_grid", recorded)
        v = random_physical_covariance(rng)
        results = []
        for kind in CONDITIONERS:
            results.append(result := CONDITIONERS[kind](v))
            summarize(SUMMARY_CFG, result)
            negativity_volume(result.state, SMALL_GRID)
            assert evaluate_grid(result.state, SMALL_GRID)[2] is used[-1][2]
        physicality_check(v)
        # two Gaussian cores, V22 and the number core, each with one inverse, and
        # five products: each with the vacuum for the fidelities and each with
        # each for the purities, V22 x number once for both orders.  Moment
        # tables: the number core's for P_n, and one per product.  Contracted
        # tables: the three Fock tables on each product with the vacuum, kept
        # there for the 21 fidelities of the 7 terms, and one per pair of terms
        # for the purities, 4 of the on state's and 1 of each other kind's.  One
        # grid per kind, shared by its negativity volume.  No call to the
        # generic expansion
        assert calls == {
            "margin": 1, "core": 7, "sigma_inv": 2, "_moments": 6, "contract": 15, "evaluate": 6
        }
        assert len(used) == len(CONDITIONERS)
        v22, number = trigger_given_output(v)[0], _number_core(v)[2]
        cores = {id(t.core) for r in results for t in r.state.terms}
        assert cores == {id(v22), id(number)}
        for core in (v22, number):
            assert set(core.__dict__["_products"]) == {vacuum, v22, number}
            assert len(core.times(vacuum).__dict__["_contractions"]) == 3
            for other in (v22, number):
                assert "_contractions" not in core.times(other).__dict__
        assert v22.times(number) is number.times(v22)

    def test_inputs_become_read_only_copies(self, rng):
        m = random_physical_covariance(rng).m
        for v, given_array in ((CovarianceMatrix4(m), m), (CovarianceMatrix4.from_excess(m), m)):
            with pytest.raises(ValueError):
                v.n[0, 0] = 1.0
            assert given_array.flags.writeable
        sigma = np.eye(2)
        core = GaussianCore(sigma)
        with pytest.raises(ValueError):
            core.sigma[0, 0] = 2.0
        assert sigma.flags.writeable
        term = condition_on_click(tmsv_covariance(0.3)).state.terms[0]
        with pytest.raises(ValueError):
            term.sigma[0, 0] = 2.0
