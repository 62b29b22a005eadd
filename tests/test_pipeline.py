from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cwherald.config import ScanConfig, parse_config
from cwherald.covariance import save_covariance
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
