import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import envelope_table, window_pair

from cwherald.modes import OutputModeSpec, TriggerModeSpec, build_output_mode, build_trigger_mode
from cwherald.piecewise import _TAYLOR_SPAN, Piece, dd_exp, kernel_moments

RATES = [0.05, 0.3, 1.0, 8.0]


def pair_moment(f, g, r):
    """The (f, g) entry of the two-mode Gram at one rate."""
    return kernel_moments((f, g), [r])[0, 1, 0]


def three_modes():
    """Explicitly filtered trigger, exponential output, tabulated output, off-centre."""
    trigger = build_trigger_mode(
        TriggerModeSpec(tap_amplitude=0.3, filter_width=5.0, window_center=0.3, window_width=0.5),
        source_fast_rate=0.0,
    )
    exponential = build_output_mode(OutputModeSpec(alpha=0.4, center=-0.2))
    ts = np.linspace(-2.0, 2.5, 13)
    table = envelope_table(ts, np.exp(-ts**2) * (1.0 + 0.3 * ts))
    tabulated = build_output_mode(OutputModeSpec(envelope="tabulated", table=table))
    return trigger, exponential, tabulated


def dd_distinct(z):
    """Textbook divided-difference table; only for well-separated nodes."""
    vals = list(np.exp(z))
    for k in range(1, len(z)):
        vals = [(vals[i + 1] - vals[i]) / (z[i + k] - z[i]) for i in range(len(vals) - 1)]
    return vals[0]


def dd_mp(z):
    """exp[z] in 50-digit arithmetic: the recursive table, exp(z)/k! on k+1 equal nodes."""
    with mpmath.workdps(50):
        z = sorted(mpmath.mpf(float(x)) for x in z)

        @functools.cache
        def dd(i, j):
            if z[i] == z[j]:
                return mpmath.exp(z[i]) / mpmath.factorial(j - i)
            return (dd(i + 1, j) - dd(i, j - 1)) / (z[j] - z[i])

        return dd(0, len(z) - 1)


class TestDividedDifferences:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("z", [-40.0, -1.5, 0.0, 0.7])
    def test_confluent_nodes_give_derivative(self, n, z):
        got = dd_exp(np.full((1, n + 1), z))[0]
        assert got == pytest.approx(math.exp(z) / math.factorial(n), rel=1e-15)

    @pytest.mark.parametrize("x", [1e-12, 1e-6, 0.3, 1.99, 2.01, 7.0, 300.0])
    def test_two_nodes(self, x):
        for xv in (x, -x):
            got = dd_exp(np.array([[0.0, xv]]))[0]
            assert got == pytest.approx(math.expm1(xv) / xv, rel=2e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(-30.0, 1.0),
        gaps=st.lists(st.floats(2.5, 12.0), min_size=1, max_size=4),
    )
    def test_separated_nodes_match_table(self, base, gaps):
        z = base + np.concatenate([[0.0], np.cumsum(gaps)])
        want = dd_distinct(z)
        assert dd_exp(z[None, ::-1])[0] == pytest.approx(want, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.floats(-30.0, 1.0),
        span=st.sampled_from([1e-3, 0.4, 1.0, 1.75, _TAYLOR_SPAN, _TAYLOR_SPAN + 1e-7, 2.25]),
        # eighths of the span: repeats are exact, distinct nodes at least span / 8 apart
        inner=st.lists(st.integers(0, 8), max_size=3),
    )
    def test_matches_50_digit_reference(self, base, span, inner):
        z = base + span * np.array([0, *inner, 8]) / 8.0
        want = dd_mp(z)
        got = dd_exp(z[None, ::-1])[0]
        assert abs(got - want) <= 1e-14 * abs(want)

    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(st.floats(-6.0, 1.0), min_size=2, max_size=5),
        eps=st.sampled_from([1e-9, -1e-9, 1e-6]),
    )
    def test_continuous_through_coincidence(self, nodes, eps):
        z = np.array(nodes + [nodes[0]])
        near = z.copy()
        near[-1] += eps
        got = dd_exp(np.stack([z, near]))
        assert got[1] == pytest.approx(got[0], rel=10 * abs(eps) + 1e-14)


class TestKernelMoments:
    @pytest.mark.parametrize("rw", [1e-3, 1e-6, 1e-9])
    def test_narrow_window_series(self, rw):
        # window pair (2w/r)(1 - phi(rw)) = w^2 sum_k 2 (-rw)^(k-1) / (k+1)!
        r = 0.7
        w = rw / r
        box = [Piece(0.0, w, 0.0, 1.0)]
        series = w**2 * sum(2.0 * (-r * w) ** (k - 1) / math.factorial(k + 1) for k in range(1, 8))
        assert kernel_moments((box,), [r])[0, 0, 0] == pytest.approx(series, rel=1e-14)

    @pytest.mark.parametrize("r", [0.05, 0.3, 1.0, 8.0])
    def test_linear_piece_by_reflection(self, r):
        # t -> 1 - t maps t onto 1 - t, so Int Int t k = Int Int (1 - t) k = window / 2
        ramp = [Piece(0.0, 1.0, 0.0, 1.0, power=1)]
        box = [Piece(0.0, 1.0, 0.0, 1.0)]
        got = pair_moment(ramp, box, r)
        assert got == pytest.approx(0.5 * window_pair(1.0, r), rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        cut=st.floats(0.05, 1.95),
        slope=st.floats(-2.0, 2.0),
        rate=st.floats(-3.0, 3.0),
        r=st.floats(0.05, 5.0),
    )
    def test_splitting_a_piece_changes_nothing(self, cut, slope, rate, r):
        def piece(lo, hi, anchor):
            # (1 + slope t) e^{rate t} on [lo, hi], re-anchored at ``anchor``
            e = math.exp(rate * anchor)
            return [
                Piece(lo, hi, anchor, (1.0 + slope * anchor) * e, 0, rate),
                Piece(lo, hi, anchor, slope * e, 1, rate),
            ]

        whole = piece(0.0, 2.0, 0.0)
        split = piece(0.0, cut, 0.0) + piece(cut, 2.0, 2.0)
        tail = [Piece(-np.inf, 0.5, 0.5, 1.0, rate=1.3)]
        for other in (whole, tail):
            a = pair_moment(whole, other, r)
            b = pair_moment(split, other, r)
            assert b == pytest.approx(a, rel=1e-12)

    def test_half_infinite_tails_are_exact(self):
        # II_{t,t'<0} e^{g (t+t')} e^{-r|t-t'|} = 1 / (g (g + r))
        g, r = 2.0, 0.3
        causal = [Piece(-np.inf, 0.0, 0.0, 1.0, rate=g)]
        assert kernel_moments((causal,), [r])[0, 0, 0] == pytest.approx(
            1.0 / (g * (g + r)), rel=1e-15
        )

    def test_gram_is_exactly_symmetric(self):
        g = kernel_moments(three_modes(), RATES)
        assert g.shape == (3, 3, len(RATES))
        assert np.array_equal(g, g.transpose(1, 0, 2))

    def test_extra_modes_change_no_entry(self):
        # the third mode's cells cut the other two finer; no entry may move
        modes = three_modes()
        g = kernel_moments(modes, RATES)
        for pair in ((0, 1), (0, 2), (1, 2)):
            sub = kernel_moments([modes[i] for i in pair], RATES)
            np.testing.assert_allclose(g[np.ix_(pair, pair)], sub, rtol=1e-15, atol=0.0)

    def test_empty_function_has_zero_moments(self):
        # an empty mode gives a zero row and column of the Gram
        box = [Piece(0.0, 1.0, 0.0, 1.0)]
        g = kernel_moments(((), box, ()), [0.3, 0.7])
        assert np.all(g[[0, 2]] == 0.0) and np.all(g[:, [0, 2]] == 0.0)
        assert np.all(g[1, 1] > 0.0)
        assert np.all(kernel_moments(((), ()), [0.3]) == 0.0)

    def test_piece_validation(self):
        with pytest.raises(ValueError, match="empty"):
            Piece(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite end"):
            Piece(0.0, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="power"):
            Piece(0.0, 1.0, 0.0, 1.0, power=2)
        with pytest.raises(ValueError, match="decay"):
            Piece(0.0, np.inf, 0.0, 1.0, rate=0.0)
        with pytest.raises(ValueError, match="decay"):
            Piece(-np.inf, 0.0, 0.0, 1.0, rate=-1.0)
        # a family is checked member by member, and its arrays must agree
        with pytest.raises(ValueError, match="decay"):
            Piece(0.0, np.inf, 0.0, 1.0, rate=np.array([-1.0, 0.0, -2.0]))
        with pytest.raises(ValueError, match="1-d arrays of one length"):
            Piece(0.0, 1.0, 0.0, np.ones(3), rate=np.ones(2))
        with pytest.raises(ValueError, match="1-d arrays of one length"):
            Piece(0.0, 1.0, 0.0, np.ones((2, 2)))
