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
from cwherald.polynomials import (
    MOMENT_DEGREE,
    GaussianCore,
    central_moments,
    det2,
    gaussian_poly_integral,
    inv2,
    nonzero_entries,
    poly_mul,
)
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


# Each term computes its inverse, its moment table and its contracted Fock
# tables once; these in-test formulas invert (by the program's one 2x2
# inverse), build the moment table and contract afresh at every call, and
# must give the same floating-point numbers.


def fresh_overlap(a, b, merged):
    """``pi sqrt(det merged) sum(a * T_b)``, ``T_b`` contracted from a fresh moment table."""
    table = central_moments(merged / 2.0, MOMENT_DEGREE)
    rows, cols = a.shape[-2:]
    t = np.zeros(np.broadcast_shapes(b.shape[:-2], merged.shape[:-2]) + (rows, cols))
    for k, l in nonzero_entries(b):
        t += b[..., k, l, None, None] * table[..., k : k + rows, l : l + cols]
    return np.pi * np.sqrt(det2(merged)) * (a * t).sum(axis=(-2, -1))


def fresh_fock_fidelity(s, n):
    fock = fresh_fock_poly(n)
    acc = 0.0
    for t in s.terms:
        merged = inv2(inv2(t.sigma) + np.eye(2))
        acc += fresh_overlap(t.coeffs, fock, merged)
    return 2.0 * np.pi * acc


def fresh_purity(s):
    acc = 0.0
    for ta in s.terms:
        for tb in s.terms:
            merged = inv2(inv2(ta.sigma) + inv2(tb.sigma))
            acc += fresh_overlap(ta.coeffs, tb.coeffs, merged)
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


class TestBilinearOverlap:
    """The bilinear form agrees with integrating the product table, within the
    roundings of the contraction's absolute sum."""

    @staticmethod
    def assert_agrees(a, b, core):
        got = core.overlap(a, b)
        want = gaussian_poly_integral(poly_mul(a, b), core.sigma)
        # |got - want| <= 8 eps * scale * sum |a_ij b_kl m[i+k, j+l]|, which is
        # |want| times the contraction's cancellation ratio; measured at most
        # 2.5 eps over 720 states at squeezing up to 2.5, family and single
        product = poly_mul(np.abs(a), np.abs(b))
        rows, cols = product.shape[-2:]
        table = np.abs(central_moments(core.sigma / 2.0, max(rows, cols) - 1))
        scale = np.pi * np.sqrt(det2(core.sigma))
        absolute = scale * (product * table[..., :rows, :cols]).sum(axis=(-2, -1))
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * absolute)

    @pytest.mark.parametrize("family", [False, True], ids=["single", "family"])
    @pytest.mark.parametrize("kind", CONDITIONERS)
    def test_every_pair_of_terms(self, kind, family, rng):
        for _ in range(3):
            members = [random_physical_covariance(rng, squeeze_max=1.5).n for _ in range(3)]
            v = CovarianceMatrix4.from_excess(np.stack(members) if family else members[0])
            state = CONDITIONERS[kind](v).state
            others = [t for n in (0, 1, 2) for t in fock_state(n).terms] + list(state.terms)
            for a in state.terms:
                for b in others:
                    self.assert_agrees(a.coeffs, b.coeffs, a.core.times(b.core))

    def test_past_the_kept_moment_table(self, rng):
        # degree 10 in x: the core builds a table of its own, as integral does,
        # and keeps no contraction even of a read-only table
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        core = GaussianCore(np.array([[0.8, 0.3], [0.3, 0.6]]))
        self.assert_agrees(a, b, core)
        b.flags.writeable = False
        self.assert_agrees(a, b, core)
        assert "_contractions" not in core.__dict__
