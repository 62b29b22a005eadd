"""Physics invariances of conditioning, as property tests over random physical covariances.

Number, on/off and click detection are all blind to the trigger's phase, so
rotating the trigger's quadratures changes no outcome.  Rotating the
output's quadratures rotates the conditioned state, ``W'(R y) = W(y)``, and
leaves every rotation-invariant number alone.  Two loss channels compose
into one whose transmissions are their product.  Every state is a density
operator, so its Wigner function, Fock populations and purity are bounded.
Each kind is checked on single covariances and on families of three.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_physical_covariance, rot2

from cwherald.conditioning import (
    condition_on_click,
    condition_on_number,
    condition_on_on,
    vacuum_projection,
)
from cwherald.covariance import CovarianceMatrix4, LossParams, apply_loss
from cwherald.metrics import SCALARS, fock_fidelity, purity
from cwherald.wigner import GridSpec, evaluate_grid

KINDS = {
    "n0": lambda v: condition_on_number(v, 0),
    "n1": lambda v: condition_on_number(v, 1),
    "n2": lambda v: condition_on_number(v, 2),
    "on": condition_on_on,
    "click": condition_on_click,
    "vacuum": vacuum_projection,
}
RTOL = 1e-10
FLOOR = 1e-3
# output points at which a rotated state is compared with the original
POINTS = np.array([(x, p) for x in (-1.5, -0.4, 0.0, 0.7, 2.0) for p in (-1.0, 0.0, 0.3, 1.8)])


def assert_close(got, want):
    """``|got - want| <= RTOL * max(|want|, FLOOR)``, elementwise."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= RTOL * np.maximum(np.abs(want), FLOOR)).all(), (got, want)


def covariance(seed, family):
    """One random physical covariance, or a family of three."""
    rng = np.random.default_rng(seed)
    members = [random_physical_covariance(rng).n for _ in range(3 if family else 1)]
    return CovarianceMatrix4.from_excess(np.stack(members) if family else members[0])


def rotated(v, trigger_angle, output_angle):
    """``v`` with its trigger and output quadratures rotated, ``S n S^T``."""
    s = np.zeros((4, 4))
    s[:2, :2], s[2:, 2:] = rot2(trigger_angle), rot2(output_angle)
    return CovarianceMatrix4.from_excess(s @ v.n @ s.T)


def scalars(result):
    return {key: value(result) for key, value in SCALARS.items()}


draws = dict(
    seed=st.integers(0, 2**32 - 1),
    family=st.booleans(),
    theta=st.floats(0.0, 2.0 * np.pi),
)


@pytest.mark.parametrize("kind", list(KINDS))
class TestRotations:
    @settings(max_examples=15, deadline=None)
    @given(**draws)
    def test_trigger_phase_changes_nothing(self, kind, seed, family, theta):
        v = covariance(seed, family)
        want = scalars(KINDS[kind](v))
        got = scalars(KINDS[kind](rotated(v, theta, 0.0)))
        for key in want:
            assert_close(got[key], want[key])

    @settings(max_examples=15, deadline=None)
    @given(**draws)
    def test_output_rotation_rotates_the_state(self, kind, seed, family, theta):
        v = covariance(seed, family)
        before = KINDS[kind](v)
        after = KINDS[kind](rotated(v, 0.0, theta))
        want, got = scalars(before), scalars(after)
        for key in want:
            assert_close(got[key], want[key])
        if not family:
            x, p = POINTS.T
            rx, rp = rot2(theta) @ POINTS.T
            assert_close(after.state.evaluate(rx, rp), before.state.evaluate(x, p))


# losses on a grid of 2^-20: every transmission 1 - eta, every product of
# two and the loss 1 - t_a t_b it gives are exact floats, so the check sees
# apply_loss alone and not the rounding of eta near total loss
dyadic_loss = st.integers(0, 2**20).map(lambda k: k / 2**20)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.booleans(),
    etas=st.lists(dyadic_loss, min_size=4, max_size=4),
)
def test_two_losses_compose_into_one(seed, family, etas):
    v = covariance(seed, family)
    a1, a2, b1, b2 = etas
    twice = apply_loss(apply_loss(v, LossParams(eta1=a1, eta2=a2)), LossParams(eta1=b1, eta2=b2))
    once = apply_loss(
        v, LossParams(eta1=1.0 - (1.0 - a1) * (1.0 - b1), eta2=1.0 - (1.0 - a2) * (1.0 - b2))
    )
    assert_close(twice.n, once.n)


BOUNDS_GRID = GridSpec(xmin=-4.0, xmax=4.0, pmin=-4.0, pmax=4.0, nx=41, np_=41)


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.booleans())
def test_states_are_bounded(kind, seed, family):
    """|W| <= 1/pi, F_n >= 0, F0 + F1 + F2 <= 1 and 0 < purity <= 1."""
    v = covariance(seed, family)
    state = KINDS[kind](v).state
    for member in v.n.reshape(-1, 4, 4):  # a family's member alone is that member's state
        single = KINDS[kind](CovarianceMatrix4.from_excess(member)).state
        assert np.abs(evaluate_grid(single, BOUNDS_GRID)[2]).max() <= 1.0 / np.pi + 1e-9
    fidelities = np.array([fock_fidelity(state, n) for n in (0, 1, 2)])
    assert (fidelities >= -1e-12).all(), fidelities
    assert (fidelities.sum(axis=0) <= 1.0 + 1e-9).all(), fidelities
    p = np.asarray(purity(state))
    assert ((p > 0.0) & (p <= 1.0 + 1e-9)).all(), p
