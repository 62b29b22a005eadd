import numpy as np
import pytest

from conftest import fresh_fock_poly, random_physical_covariance

from cwherald.conditioning import (
    condition_on_click,
    condition_on_number,
    condition_on_on,
    vacuum_projection,
)
from cwherald.config import parse_config
from cwherald.covariance import CovarianceMatrix4, LossParams, apply_loss
from cwherald.metrics import fock_fidelity, negativity_volume, purity, wigner_at_origin
from cwherald.pipeline import build_covariance, condition_state
from cwherald.polynomials import gaussian_poly_integral, poly_mul
from cwherald.wigner import GridSpec, evaluate_grid, fock_state

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"


class TestOriginValue:
    def test_vacuum(self):
        assert wigner_at_origin(fock_state(0)) == pytest.approx(1 / np.pi, rel=1e-15)

    def test_fock1(self):
        assert wigner_at_origin(fock_state(1)) == pytest.approx(-1 / np.pi, rel=1e-15)


class TestNegativityVolume:
    def test_vacuum_has_none(self):
        assert negativity_volume(fock_state(0), GridSpec()) == 0.0

    def test_gaussian_states_have_none(self, rng):
        for _ in range(5):
            v = random_physical_covariance(rng)
            state = vacuum_projection(v).state
            assert negativity_volume(state, GridSpec()) == 0.0

    def test_fock1_volume_stable_under_grid_halving(self):
        coarse = negativity_volume(fock_state(1), GridSpec(nx=201, np_=201))
        fine = negativity_volume(fock_state(1), GridSpec(nx=401, np_=401))
        assert type(fine) is float
        assert fine == pytest.approx(coarse, abs=1e-4)
        # closed form of the radial integral: 2 exp(-1/2) - 1
        assert fine == pytest.approx(2 * np.exp(-0.5) - 1, abs=1e-4)


class TestFidelities:
    def test_fidelity_sum_bounded(self, rng):
        for _ in range(10):
            v = random_physical_covariance(rng)
            state = condition_on_click(v).state
            total = sum(fock_fidelity(state, n) for n in (0, 1, 2))
            assert total <= 1.0 + 1e-9

    def test_vacuum_fidelity(self):
        assert fock_fidelity(fock_state(0), 0) == pytest.approx(1.0, rel=1e-12)


class TestLossMonotonicity:
    @pytest.mark.parametrize("fixture", ["figure3_upper", "figure4_upper"])
    def test_origin_value_rises_toward_zero_with_loss(self, fixture):
        cfg = parse_config(FIXTURES / f"{fixture}.cfg")
        v = build_covariance(cfg)
        origins = []
        for eta2 in (0.0, 0.1, 0.25):
            lossy = apply_loss(v, LossParams(eta2=eta2)) if eta2 else v
            res = condition_state(cfg, lossy)
            origins.append(wigner_at_origin(res.state))
        assert origins[0] < origins[1] < origins[2] < 0.0


class TestPurity:
    def test_click_state_purity_below_one(self, rng):
        v = random_physical_covariance(rng)
        state = condition_on_click(v).state
        p = purity(state)
        assert 0.0 < p <= 1.0 + 1e-9


# Each term computes its inverse and its Fock moment table once; these
# in-test formulas invert, build the Fock table and integrate afresh at
# every call, and must give the same floating-point numbers.


def fresh_fock_fidelity(s, n):
    fock = fresh_fock_poly(n)
    acc = 0.0
    for t in s.terms:
        merged = np.linalg.inv(np.linalg.inv(t.sigma) + np.eye(2))
        acc += gaussian_poly_integral(poly_mul(t.coeffs, fock), merged)
    return 2.0 * np.pi * acc


def fresh_purity(s):
    acc = 0.0
    for ta in s.terms:
        for tb in s.terms:
            merged = np.linalg.inv(np.linalg.inv(ta.sigma) + np.linalg.inv(tb.sigma))
            acc += gaussian_poly_integral(poly_mul(ta.coeffs, tb.coeffs), merged)
    return 2.0 * np.pi * acc


CONDITIONERS = {
    "click": condition_on_click,
    "number 0": lambda v: condition_on_number(v, 0),
    "number 1": lambda v: condition_on_number(v, 1),
    "number 2": lambda v: condition_on_number(v, 2),
    "on": condition_on_on,
    "vacuum": vacuum_projection,
}


def metric_values(s):
    return [fock_fidelity(s, n) for n in (0, 1, 2)] + [purity(s)]


def fresh_values(s):
    return [fresh_fock_fidelity(s, n) for n in (0, 1, 2)] + [fresh_purity(s)]


class TestSharedTermTables:
    @pytest.mark.parametrize("kind", CONDITIONERS)
    def test_equal_to_fresh_formulas(self, kind, rng):
        for _ in range(4):
            state = CONDITIONERS[kind](random_physical_covariance(rng)).state
            assert metric_values(state) == fresh_values(state)

    @pytest.mark.parametrize("kind", CONDITIONERS)
    def test_family_equal_to_fresh_formulas(self, kind, rng):
        n = np.stack([random_physical_covariance(rng).n for _ in range(3)])
        state = CONDITIONERS[kind](CovarianceMatrix4.from_excess(n)).state
        for got, want in zip(metric_values(state), fresh_values(state)):
            assert got.shape == (3,)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", CONDITIONERS)
    def test_any_order_and_after_grid(self, kind, rng):
        v = random_physical_covariance(rng)
        grid = GridSpec(nx=41, np_=41)
        first = CONDITIONERS[kind](v).state
        want = metric_values(first)
        w = evaluate_grid(first, grid)[2]
        assert metric_values(first) == want
        assert np.array_equal(evaluate_grid(first, grid)[2], w)
        # a fresh state of the same covariance, grid first, metrics in reverse
        second = CONDITIONERS[kind](v).state
        assert np.array_equal(evaluate_grid(second, grid)[2], w)
        assert [purity(second)] + [fock_fidelity(second, n) for n in (2, 1, 0)] == want[::-1]
