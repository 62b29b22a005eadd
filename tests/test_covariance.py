import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_physical_covariance

from cwherald.conditioning import condition_on_click
from cwherald.covariance import (
    CovarianceMatrix4,
    LossParams,
    apply_loss,
    assemble,
    load_covariance,
    physicality_check,
    save_covariance,
)
from cwherald.errors import UnphysicalCovarianceError
from cwherald.modes import OutputModeSpec, SecondMoments
from cwherald.piecewise import Piece
from cwherald.polynomials import GaussianCore
from cwherald.sources import tmsv_covariance
from cwherald.wigner import PolyGaussTerm


class TestAssemble:
    def test_zero_moments_is_vacuum(self):
        m = SecondMoments(a=np.zeros((2, 2)), b=np.zeros((2, 2)))
        assert np.array_equal(assemble(m).m, np.eye(4))

    def test_tmsv_moments_assemble_to_block_form(self):
        # Schmidt-form moments of the two-mode squeezed vacuum
        r = 0.3
        a = np.array([[0.0, np.sinh(2 * r) / 2], [np.sinh(2 * r) / 2, 0.0]])
        b = np.eye(2) * np.sinh(r) ** 2
        v = assemble(SecondMoments(a=a, b=b))
        assert np.allclose(v.m, tmsv_covariance(r).m, atol=1e-14)

    def test_diagonal_entries_from_moments(self):
        a = np.array([[0.001, 0.002], [0.002, 0.03]])
        b = np.array([[0.0005, 0.001], [0.001, 0.01]])
        v = assemble(SecondMoments(a=a, b=b))
        assert v.m[2, 2] == pytest.approx(1 + 2 * (0.03 + 0.01), rel=1e-15)
        assert v.m[3, 3] == pytest.approx(1 + 2 * (0.01 - 0.03), rel=1e-15)
        assert v.m[0, 2] == pytest.approx(2 * (0.002 + 0.001), rel=1e-15)
        # x-p cross blocks vanish for real moments
        assert v.m[0, 1] == 0.0 and v.m[0, 3] == 0.0 and v.m[2, 1] == 0.0

    def test_unphysical_moments_rejected(self):
        a = np.array([[0.0, 0.9], [0.9, 0.0]])
        b = np.zeros((2, 2))
        v = assemble(SecondMoments(a=a, b=b))
        with pytest.raises(UnphysicalCovarianceError, match="eigenvalue"):
            condition_on_click(v)

    def test_diagonal_lower_bound(self):
        # every diagonal entry of V stays above 1 - 2 |A_ii|
        for r in (0.1, 0.4, 0.9):
            for s in (1.0, 0.3, 0.05):
                c = np.sinh(2 * r) / 2
                m = SecondMoments(
                    a=np.array([[0.0, c], [c, 0.0]]),
                    b=np.eye(2) * np.sinh(r) ** 2,
                ).scaled_trigger(s)
                v = assemble(m)
                for i in range(2):
                    bound = 1.0 - 2.0 * abs(m.a[i, i])
                    assert v.m[2 * i, 2 * i] >= bound - 1e-12
                    assert v.m[2 * i + 1, 2 * i + 1] >= bound - 1e-12


class TestApplyLoss:
    def test_identity_channel(self, rng):
        v = random_physical_covariance(rng)
        out = apply_loss(v, LossParams())
        assert np.array_equal(out.m, v.m)

    def test_full_loss_gives_vacuum(self, rng):
        v = random_physical_covariance(rng)
        out = apply_loss(v, LossParams(eta1=1.0, eta2=1.0))
        assert np.allclose(out.m, np.eye(4), atol=1e-12)

    def test_vacuum_fixed_point(self):
        vac = CovarianceMatrix4(np.eye(4))
        out = apply_loss(vac, LossParams(eta1=0.3, eta2=0.25))
        assert np.array_equal(out.m, np.eye(4))

    def test_loss_composability(self, rng):
        v = random_physical_covariance(rng)
        ea, eb = 0.2, 0.35
        twice = apply_loss(apply_loss(v, LossParams(eta2=ea)), LossParams(eta2=eb))
        once = apply_loss(v, LossParams(eta2=1 - (1 - ea) * (1 - eb)))
        assert np.allclose(twice.m, once.m, atol=1e-12)

    def test_purity_never_increases_for_pure_states(self, rng):
        for _ in range(20):
            v = random_physical_covariance(rng, noise=0.0)
            p0 = physicality_check(v).purity
            p1 = physicality_check(apply_loss(v, LossParams(eta2=0.3))).purity
            assert p1 <= p0 + 1e-12

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            LossParams(eta1=1.5)
        with pytest.raises(ValueError):
            LossParams(xi2=-0.1)


class TestPhysicality:
    def test_vacuum_report(self):
        rep = physicality_check(CovarianceMatrix4(np.eye(4)))
        assert rep.physical
        assert rep.purity == pytest.approx(1.0, abs=1e-12)

    def test_tmsv_is_pure(self):
        rep = physicality_check(tmsv_covariance(0.5))
        assert rep.purity == pytest.approx(1.0, abs=1e-9)

    def test_lossy_tmsv_is_mixed(self):
        v = apply_loss(tmsv_covariance(0.5), LossParams(eta2=0.25))
        rep = physicality_check(v)
        assert rep.physical
        assert rep.purity < 1.0

    @given(r=st.floats(min_value=0.0, max_value=1.5), eta=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_loss_channel_preserves_physicality(self, r, eta):
        v = apply_loss(tmsv_covariance(r), LossParams(eta1=eta, eta2=eta / 2))
        assert physicality_check(v).physical


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        v = random_physical_covariance(rng)
        path = tmp_path / "cov.txt"
        save_covariance(path, v)
        back = load_covariance(path)
        assert np.array_equal(back.m, v.m)

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        with pytest.raises(ValueError, match="4x4"):
            load_covariance(path)


# each class built from one value and from a family of three
FAMILY_DATACLASSES = {
    "Piece": lambda f: Piece(-np.inf, 0.0, 0.0, f(1.0), rate=f(0.5)),
    "OutputModeSpec": lambda f: OutputModeSpec(alpha=f(0.4)),
    "SecondMoments": lambda f: SecondMoments(a=f(np.zeros((2, 2))), b=f(np.eye(2))),
    "CovarianceMatrix4": lambda f: CovarianceMatrix4(f(np.eye(4))),
    "GaussianCore": lambda f: GaussianCore(f(np.eye(2))),
    "PolyGaussTerm": lambda f: PolyGaussTerm(
        coeffs=f(np.ones((1, 1))), core=GaussianCore(f(np.eye(2)))
    ),
    "PhysicalityReport": lambda f: physicality_check(CovarianceMatrix4(f(np.eye(4)))),
    "ConditionResult": lambda f: condition_on_click(CovarianceMatrix4(f(tmsv_covariance(0.3).m))),
}


@pytest.mark.parametrize("family", [False, True])
@pytest.mark.parametrize("name", list(FAMILY_DATACLASSES))
def test_equality_and_hash_of_array_dataclasses_do_not_raise(name, family):
    # equality is identity: the generated field-wise == raises on array fields
    stack = (lambda x: np.stack([np.asarray(x, dtype=float)] * 3)) if family else np.asarray
    obj = FAMILY_DATACLASSES[name](stack)
    assert obj == obj
    assert obj != copy.copy(obj)
    assert hash(obj) == hash(obj)
