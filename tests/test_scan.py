import warnings

import numpy as np
import pytest

from cwherald.scan import MAX_STEPS, golden_section_minimize, scan_and_refine


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0, xtol=1e-5)
        assert x == pytest.approx(0.3, abs=1e-4)
        assert fx == pytest.approx(0.0, abs=1e-8)

    def test_cosine(self):
        x, _ = golden_section_minimize(np.cos, 2.0, 4.5, xtol=1e-6)
        assert x == pytest.approx(np.pi, abs=1e-5)


def counted(f):
    """f, recording every argument it is called with after the grid call."""
    calls = []

    def g(x):
        if np.ndim(x):
            assert not calls, "the grid is the first call"
            calls.append("grid")
        else:
            calls.append(x)
        return f(x)

    return g, calls


class TestScanAndRefine:
    def test_refines_past_grid_resolution(self):
        res = scan_and_refine(lambda x: (x - 0.31) ** 2, 0.0, 1.0, samples=11)
        assert res.best_param == pytest.approx(0.31, abs=1e-3)
        assert len(res.params) == 11

    def test_exact_parabola_in_one_step(self):
        f, calls = counted(lambda x: 2.0 * (x - 0.3137) ** 2 + 1.0)
        res = scan_and_refine(f, 0.0, 1.0, samples=11)
        assert res.best_param == pytest.approx(0.3137, abs=1e-12)
        assert res.best_value == pytest.approx(1.0, abs=1e-15)
        assert len(calls) == 2

    @pytest.mark.parametrize("samples", [6, 11, 21, 51, 101])
    def test_cosine_reaches_pi(self, samples):
        res = scan_and_refine(np.cos, 2.0, 4.5, samples=samples)
        assert res.best_param == pytest.approx(np.pi, abs=1e-7)
        assert res.best_value == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_returns_end_sample(self, sign):
        f, calls = counted(lambda x: np.exp(3.0 * sign * x))
        res = scan_and_refine(f, 0.0, 1.0, samples=11)
        assert res.best_param == (0.0 if sign > 0 else 1.0)
        assert res.best_value == np.min(res.values)
        assert all(0.0 <= x <= 1.0 for x in calls[1:])

    def test_constant_returns_best_sample_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = scan_and_refine(lambda x: np.full(np.shape(x), 0.5), 0.0, 1.0, samples=7)
        assert res.best_param == 0.0 and res.best_value == 0.5

    @pytest.mark.parametrize(
        "f",
        [lambda x: np.sin(5 * x) + 0.1 * x, lambda x: np.abs(x - 1.234) ** 1.5, np.cos],
    )
    def test_refinement_calls_are_scalar_and_capped(self, f):
        g, calls = counted(f)
        scan_and_refine(g, 0.0, 3.0, samples=31)
        steps = calls[1:]
        assert calls[0] == "grid" and len(steps) <= MAX_STEPS == 8
        assert all(type(x) is float for x in steps)

    def test_never_worse_than_best_sample(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.sin(5 * x) + 0.1 * x

        res = scan_and_refine(f, 0.0, 3.0, samples=31)
        assert res.best_value <= np.min([f(p) for p in res.params]) + 1e-15

    def test_degenerate_range_single_evaluation(self):
        res = scan_and_refine(lambda x: x**2, 0.5, 0.5, samples=50)
        assert len(res.params) == 1
        assert res.best_param == 0.5
        assert res.best_value == 0.25

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            scan_and_refine(lambda x: x, 1.0, 0.0, samples=5)
        with pytest.raises(ValueError):
            scan_and_refine(lambda x: x, 0.0, 1.0, samples=2)
