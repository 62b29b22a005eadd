import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cwherald import modes, pipeline
from cwherald.config import ScanConfig, parse_config
from cwherald.covariance import save_covariance
from cwherald.metrics import wigner_at_origin
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
        # the whole grid first, then one single-alpha call per refinement step
        assert families[0] == (cfg.scan.samples,)
        assert families[1:] == [(1,)] * (len(families) - 1)

    def test_table_equals_per_alpha_pipeline(self):
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        result = scan_alpha(cfg)
        one = [
            condition_state(cfg, build_covariance(replace(cfg, output=replace(cfg.output, alpha=a))))
            for a in result.params
        ]
        np.testing.assert_array_equal(result.values, [wigner_at_origin(r.state) for r in one])

    def test_failing_grid_alpha_is_named(self, monkeypatch):
        cfg = parse_config(FIXTURES / "figure4_scan.cfg")
        calls = []

        def fails_seventh(state):
            calls.append(state)
            if len(calls) == 7:
                raise ValueError("boom")
            return 0.0

        monkeypatch.setattr(pipeline, "wigner_at_origin", fails_seventh)
        alpha = np.linspace(cfg.scan.alpha_min, cfg.scan.alpha_max, cfg.scan.samples)[6]
        want = f"at alpha = {alpha:g}: boom"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            scan_alpha(cfg)

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
