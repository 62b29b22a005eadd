import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_physical_covariance

from cwherald import modes, piecewise, pipeline
from cwherald.conditioning import condition_on_number
from cwherald.config import ScanConfig, parse_config
from cwherald.covariance import save_covariance
from cwherald.errors import UnphysicalCovarianceError
from cwherald.metrics import fock_fidelity, wigner_at_origin
from cwherald.pipeline import (
    build_covariance,
    condition_state,
    load_state,
    run_experiment,
    save_state,
    scan_alpha,
)
from cwherald.sources import tmsv_covariance

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"


class TestRunExperiment:
    def test_artifact_shapes_and_keys(self):
        cfg = parse_config(FIXTURES / "figure3_upper.cfg")
        result = run_experiment(cfg)
        xs, ps, w = result.grid
        assert w.shape == (201, 201)
        assert xs[0] == -5.0 and ps[-1] == 5.0
        assert list(result.summary) == [
            "probability",
            "wigner_origin",
            "fidelity_fock0",
            "fidelity_fock1",
            "fidelity_fock2",
            "purity",
        ]
        assert 0.9 < result.summary["purity"] <= 1.0 + 1e-9


class TestDirectSource:
    def test_covariance_file_source_with_loss(self, tmp_path):
        cov_path = tmp_path / "tmsv.txt"
        save_covariance(cov_path, tmsv_covariance(0.4))
        cfg_path = tmp_path / "direct.cfg"
        cfg_path.write_text(
            "[source]\nkind = direct\ncovariance = "
            + str(cov_path)
            + "\n\n[losses]\neta2 = 0.25\n\n[measurement]\nkind = number\nn = 1\n"
        )
        cfg = parse_config(cfg_path)
        v = build_covariance(cfg)
        assert v.m[0, 0] == pytest.approx(np.cosh(0.8), rel=1e-12)  # trigger unlossed
        assert v.m[2, 2] == pytest.approx(0.75 * np.cosh(0.8) + 0.25, rel=1e-12)
        res = condition_state(cfg, v)
        assert 0.0 < res.probability < 1.0


class TestScanObjectives:
    def test_fidelity_objective_maximised(self):
        sc = ScanConfig(alpha_min=0.4, alpha_max=0.6, samples=3, objective="fock1_fidelity")
        cfg = replace(parse_config(FIXTURES / "figure3_upper.cfg"), scan=sc)
        result = scan_alpha(cfg)
        # table holds raw fidelities and the refined best is the largest
        assert np.all((result.values > 0.9) & (result.values <= 1.0))
        assert result.best_value >= np.max(result.values) - 1e-12

    def test_grid_takes_one_moment_pass(self, monkeypatch):
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        families = []
        gram = modes.kernel_moments

        def counted(mode_list, rates):
            families.append(np.shape(mode_list[1][0].rate))
            return gram(mode_list, rates)

        monkeypatch.setattr(modes, "kernel_moments", counted)
        scan_alpha(cfg)
        # the whole grid first, then one single-alpha (scalar) call per refinement step
        assert families[0] == (cfg.scan.samples,)
        assert families[1:] == [()] * (len(families) - 1)

    def test_one_moment_plan_for_the_whole_scan(self, monkeypatch):
        # the grid's family and the scalar refinement steps share one layout
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        calls = []
        gram = modes.kernel_moments
        monkeypatch.setattr(modes, "kernel_moments", lambda *args: calls.append(1) or gram(*args))
        piecewise._plan.cache_clear()
        scan_alpha(cfg)
        info = piecewise._plan.cache_info()
        assert len(calls) > 2
        assert (info.misses, info.hits) == (1, len(calls) - 1)

    def test_grid_takes_one_conditioning_pass(self, monkeypatch):
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        assembled, conditioned = [], []

        def counted(record, fn, shape):
            def wrapper(arg):
                record.append(np.shape(shape(arg)))
                return fn(arg)

            return wrapper

        monkeypatch.setattr(pipeline, "assemble", counted(assembled, pipeline.assemble, lambda m: m.a))
        monkeypatch.setattr(
            pipeline, "condition_on_click", counted(conditioned, pipeline.condition_on_click, lambda v: v.m)
        )
        scan_alpha(cfg)
        steps = len(assembled) - 1
        assert steps > 0
        assert assembled == [(cfg.scan.samples, 2, 2)] + [(2, 2)] * steps
        assert conditioned == [(cfg.scan.samples, 4, 4)] + [(4, 4)] * steps

    @staticmethod
    def scan_and_per_alpha_states(objective):
        """The scan of the scan fixture, and each of its alphas through the run steps alone."""
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        cfg = replace(cfg, scan=replace(cfg.scan, objective=objective))
        result = scan_alpha(cfg)
        one = [
            condition_state(cfg, build_covariance(replace(cfg, output=replace(cfg.output, alpha=a))))
            for a in result.params
        ]
        return result, [r.state for r in one]

    def test_table_equals_per_alpha_pipeline(self):
        result, states = self.scan_and_per_alpha_states("origin_value")
        np.testing.assert_array_equal(result.values, [wigner_at_origin(s) for s in states])

    def test_fidelity_table_equals_per_alpha_pipeline(self):
        result, states = self.scan_and_per_alpha_states("fock1_fidelity")
        np.testing.assert_array_equal(result.values, [fock_fidelity(s, 1) for s in states])

    @staticmethod
    def alone_error(cfg, alpha):
        """The error that one alpha raises through the run steps alone."""
        at = replace(cfg, output=replace(cfg.output, alpha=alpha))
        with pytest.raises(UnphysicalCovarianceError) as alone:
            condition_state(at, build_covariance(at))
        return f"at alpha = {alpha:g}: {alone.value}"

    @pytest.mark.parametrize("unphysical, nonfinite", [(0, 20), (6, 20), (30, 49)])
    def test_failing_grid_alpha_is_named(self, monkeypatch, unphysical, nonfinite):
        # one grid member is unphysical, which the conditioning finds; a later
        # one holds a non-finite moment, which the assembly finds one stage
        # earlier in the stacked pass.  The error still names the unphysical
        # member, first in grid order, with the message it gives alone.
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        grid = np.linspace(cfg.scan.alpha_min, cfg.scan.alpha_max, cfg.scan.samples)
        moments = pipeline.second_moments

        def corrupted(f1, f2, kernel):
            m = moments(f1, f2, kernel)
            alpha = np.asarray(f2[0].rate)
            b = m.b - 2.0 * np.multiply.outer(alpha == grid[unphysical], np.diag([0.0, 1.0]))
            b = b + np.multiply.outer(np.where(alpha == grid[nonfinite], np.nan, 0.0), np.ones((2, 2)))
            return replace(m, b=b)

        monkeypatch.setattr(pipeline, "second_moments", corrupted)
        want = self.alone_error(cfg, grid[unphysical])
        with pytest.raises(UnphysicalCovarianceError, match=f"^{re.escape(want)}$"):
            scan_alpha(cfg)

    def test_failing_refinement_alpha_is_named(self, monkeypatch):
        # the grid passes and every single-alpha call is unphysical, so the
        # first refinement step fails: the error names its off-grid alpha
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        grid = np.linspace(cfg.scan.alpha_min, cfg.scan.alpha_max, cfg.scan.samples)
        moments = pipeline.second_moments
        scalar = []

        def corrupted(f1, f2, kernel):
            m = moments(f1, f2, kernel)
            if np.ndim(f2[0].rate):
                return m
            scalar.append(float(f2[0].rate))
            return replace(m, b=m.b - 2.0 * np.diag([0.0, 1.0]))

        monkeypatch.setattr(pipeline, "second_moments", corrupted)
        with pytest.raises(UnphysicalCovarianceError) as failed:
            scan_alpha(cfg)
        step = scalar[0]
        assert len(scalar) == 1 and not np.any(np.isclose(grid, step, rtol=0.0, atol=1e-9))
        assert str(failed.value) == self.alone_error(cfg, step)

    def test_scan_requires_parameters(self):
        cfg = parse_config(FIXTURES / "figure3_upper.cfg")
        with pytest.raises(ValueError, match="scan"):
            scan_alpha(cfg)


class TestStateSerialisation:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(FIXTURES / "figure3_upper.cfg")
        res = condition_state(cfg, build_covariance(cfg))
        path = tmp_path / "state.json"
        save_state(path, res)
        back = load_state(path)
        assert back.probability == res.probability
        xs = np.linspace(-3, 3, 11)
        assert np.array_equal(
            back.state.evaluate(xs[None, :], xs[:, None]),
            res.state.evaluate(xs[None, :], xs[:, None]),
        )

    def test_round_trip_keeps_an_inverted_core_as_written(self, tmp_path):
        # this one-photon state's core comes out of an inverse, exactly symmetric
        res = condition_on_number(random_physical_covariance(np.random.default_rng(0)), 1)
        sigma = res.state.terms[0].sigma
        assert sigma[0, 1] == sigma[1, 0]
        path = tmp_path / "state.json"
        save_state(path, res)
        assert np.array_equal(load_state(path).state.terms[0].sigma, sigma)
