import functools
import math
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import envelope_table, window_pair

from cwherald import piecewise
from cwherald.config import parse_config
from cwherald.modes import OutputModeSpec, TriggerModeSpec, build_output_mode, build_trigger_mode
from cwherald.piecewise import _TAYLOR_SPAN, Piece, dd_exp, kernel_moments
from cwherald.pipeline import build_modes

RATES = [0.05, 0.3, 1.0, 8.0]
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"


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


# The all-terms formulas, which form every c1 term whether or not a piece is
# linear: the oracle of kernel_moments' skip of the c1 terms of power-0 pieces.


def end_moments_all_terms(t, r, L, linear):
    if np.isinf(L).all():
        g = r - t.rate
        return np.exp(t.shift) * (t.c0 / g + t.c1 / g**2)
    z = np.empty((2,) + t.shift.shape[:2] + (len(r), 3))
    z[0, ..., 0] = t.shift
    z[1, ..., 0] = t.shift - r * L
    z[0, ..., 1] = t.shift + (t.rate - r) * L
    z[1, ..., 1] = t.shift + t.rate * L
    z[..., 2] = z[..., 1]
    return L * t.c0 * piecewise._dd(z[..., :2]) + L**2 * t.c1 * piecewise._dd(z)


def triangles_all_terms(p, q, r, L, linear):
    s = p.shift + q.shift
    if np.isinf(L).all():
        a = p.rate - r
        c = p.rate + q.rate
        m0a, m1a = -1.0 / a, 1.0 / a**2
        m0c, m1c, m2c = -1.0 / c, 1.0 / c**2, -2.0 / c**3
        return np.exp(s) * (
            p.c0 * q.c0 * m0a * m0c
            + (p.c0 * q.c1 + p.c1 * q.c0) * m0a * m1c
            + p.c1 * q.c1 * (m0a * m2c + m1a * m1c)
            + p.c1 * q.c0 * m1a * m0c
        )
    x1 = s + (p.rate - r) * L
    x2 = s + (p.rate + q.rate) * L
    z = np.empty((2,) + np.broadcast_shapes(x1.shape, x2.shape) + (5,))
    z[..., 0] = s
    z[..., 1] = x1
    z[..., 2:] = x2[..., None]
    z[0, ..., 3] = x1
    d0 = piecewise._dd(z[0, ..., :3])
    d1, d2 = piecewise._dd(z[..., :4])
    d12, d22 = piecewise._dd(z)
    return L**2 * (
        p.c0 * q.c0 * d0
        + p.c0 * q.c1 * L * d2
        + p.c1 * q.c0 * L * (d1 + d2)
        + p.c1 * q.c1 * L**2 * (d12 + 2.0 * d22)
    )


def assert_same_as_all_terms(modes, rates):
    """kernel_moments equals the all-terms formulas bit for bit."""
    got = kernel_moments(modes, rates)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(piecewise, "_end_moments", end_moments_all_terms)
        mp.setattr(piecewise, "_triangles", triangles_all_terms)
        want = kernel_moments(modes, rates)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


ENDS = [-1.0, -0.3, 0.0, 0.4, 1.1]


@st.composite
def piece_sets(draw, powers, family):
    """Two or three modes of one to three pieces, finite or half-infinite, on shared ends."""

    def value(lo, hi):
        # a family member per entry when ``family``, else a scalar
        if family:
            return np.array(draw(st.lists(st.floats(lo, hi), min_size=3, max_size=3)))
        return draw(st.floats(lo, hi))

    def piece():
        where = draw(st.sampled_from(["finite", "left", "right"]))
        power = draw(st.sampled_from(powers))
        coeff = value(-2.0, 2.0)
        if where == "left":
            end = draw(st.sampled_from(ENDS))
            return Piece(-np.inf, end, end, coeff, power, value(0.1, 3.0))
        if where == "right":
            end = draw(st.sampled_from(ENDS))
            return Piece(end, np.inf, end, coeff, power, value(-3.0, -0.1))
        lo, hi = sorted(draw(st.lists(st.sampled_from(ENDS), min_size=2, max_size=2, unique=True)))
        anchor = draw(st.sampled_from([lo, hi]))
        return Piece(lo, hi, anchor, coeff, power, value(-3.0, 3.0))

    return tuple(
        tuple(piece() for _ in range(draw(st.integers(1, 3)))) for _ in range(draw(st.integers(2, 3)))
    )


class TestLinearTermsSkipped:
    """The c1 terms are formed only for power-1 pieces; the Gram keeps every bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        modes=st.sampled_from([(0,), (1,), (0, 1)]).flatmap(
            lambda powers: st.booleans().flatmap(lambda family: piece_sets(powers, family))
        ),
        rates=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3),
    )
    def test_random_piece_sets(self, modes, rates):
        assert_same_as_all_terms(modes, rates)

    def test_finite_and_half_infinite_cells(self):
        # a power-0 set that cuts the line into both kinds of cell, alone and as a family
        for coeff, rate in ((0.7, 1.3), (np.array([0.7, -1.1, 2.0]), np.array([1.3, 0.2, 2.5]))):
            modes = (
                (Piece(-np.inf, 0.0, 0.0, coeff, rate=rate), Piece(0.0, 0.5, 0.5, 1.0, rate=-0.4)),
                (Piece(-0.2, 0.5, -0.2, coeff), Piece(0.5, np.inf, 0.5, 0.3, rate=-rate)),
            )
            assert_same_as_all_terms(modes, RATES)
        assert_same_as_all_terms(three_modes(), RATES)

    @pytest.mark.parametrize("stem", sorted(p.stem for p in FIXTURES.glob("*.cfg")))
    def test_fixture_mode_pairs(self, stem):
        # each fixture's bare trigger, and filtered ones in the collapsed and explicit branches
        cfg = parse_config(FIXTURES / f"{stem}.cfg")
        alphas = [cfg.output.alpha]
        if cfg.scan is not None:
            alphas += [np.linspace(cfg.scan.alpha_min, cfg.scan.alpha_max, cfg.scan.samples), 0.367]
        triggers = [
            cfg.trigger,
            replace(cfg.trigger, filter_width=2.0, window_width=0.01),
            replace(cfg.trigger, filter_width=8.0, window_width=0.04),
        ]
        for alpha in alphas:
            for trigger in triggers:
                at = replace(cfg, trigger=trigger, output=replace(cfg.output, alpha=alpha))
                f1, f2, kernel = build_modes(at)
                assert_same_as_all_terms((f1, f2), [rate for rate, _, _ in kernel.terms])


def revalued(modes, factor):
    """The modes with every coeff and rate scaled by ``factor`` > 0: the same layout."""
    return tuple(
        tuple(replace(p, coeff=factor * p.coeff, rate=factor * p.rate) for p in f) for f in modes
    )


def fresh(modes, rates):
    """kernel_moments' bytes from a plan built for this call alone."""
    piecewise._plan.cache_clear()
    return kernel_moments(modes, rates).tobytes()


def plan_arrays(x):
    """Every array in a plan, its nested tuples included."""
    if isinstance(x, np.ndarray):
        return [x]
    return [a for item in x for a in plan_arrays(item)] if isinstance(x, tuple) else []


class TestKeptPlan:
    """The one plan kept between calls changes no bit of any Gram."""

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.sampled_from([(0,), (1,), (0, 1)]).flatmap(
            lambda powers: st.booleans().flatmap(lambda family: piece_sets(powers, family))
        ),
        b=st.booleans().flatmap(lambda family: piece_sets((0, 1), family)),
        factor=st.floats(0.5, 2.0),
        rates=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3),
    )
    def test_layouts_a_b_a_match_fresh_plans(self, a, b, factor, rates):
        # a and its revalued copy share a plan; b in between replaces it, and
        # so do new kernel rates
        other = [2.0 * x for x in rates]
        calls = [(a, rates), (revalued(a, factor), rates), (b, rates), (a, rates), (a, other)]
        want = [fresh(*call) for call in calls]
        piecewise._plan.cache_clear()
        got = [kernel_moments(*call).tobytes() for call in calls]
        assert got == want
        info = piecewise._plan.cache_info()
        assert info.hits >= 1 and info.currsize == 1

    @pytest.mark.parametrize("change", ["ends", "anchor", "power", "counts", "rates"])
    def test_each_part_of_the_layout_keys_the_plan(self, change):
        left = Piece(-np.inf, 0.0, 0.0, 0.7, rate=1.3)
        ramp = Piece(0.0, 0.5, 0.5, 1.0, power=1, rate=-0.4)
        box = Piece(-0.2, 0.5, -0.2, 0.9)
        right = Piece(0.5, np.inf, 0.5, 0.3, rate=-1.1)
        base = ((left, ramp), (box, right))
        variant, rates = {
            "ends": (((left, ramp), (replace(box, lo=-0.3, anchor=-0.3), right)), RATES),
            "anchor": (((left, replace(ramp, anchor=0.0)), (box, right)), RATES),
            "power": (((left, replace(ramp, power=0)), (box, right)), RATES),
            "counts": (((left,), (ramp, box, right)), RATES),
            "rates": (base, RATES[::-1]),
        }[change]
        calls = [(base, RATES), (variant, rates), (base, RATES)]
        want = [fresh(*call) for call in calls]
        piecewise._plan.cache_clear()
        assert [kernel_moments(*call).tobytes() for call in calls] == want
        assert piecewise._plan.cache_info().misses == 3

    def test_signed_zero_ends_get_their_own_plans(self):
        # the other mode's -0.0 end comes first, so the cells cut the line at -0.0
        tail = Piece(0.0, np.inf, 0.0, 0.8, power=1, rate=-1.2)
        minus = ((Piece(-0.5, -0.0, -0.0, 1.0),), (tail,))
        plus = ((Piece(-0.5, 0.0, 0.0, 1.0),), (tail,))
        want = [fresh(modes, RATES) for modes in (minus, plus, minus)]
        piecewise._plan.cache_clear()
        got = [kernel_moments(modes, RATES).tobytes() for modes in (minus, plus, minus)]
        assert got == want
        assert piecewise._plan.cache_info().misses == 3
        # the tail's offset from its cell's end to its anchor is -0.0 in one plan only
        plans = [piecewise._plan_of(modes, np.array(RATES)) for modes in (minus, plus)]
        assert [np.signbit(p.d[p.no_end]).tolist() for p in plans] == [[[True]], [[False]]]

    def test_plan_is_read_only(self):
        plan = piecewise._plan_of(three_modes(), np.array(RATES))
        arrays = plan_arrays(tuple(plan))
        assert len(arrays) > 10
        assert not any(a.flags.writeable for a in arrays)
