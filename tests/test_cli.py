import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cwherald.covariance import load_covariance

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "cwherald" / "fixtures"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cwherald", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cold_import_loads_no_scipy(tmp_path):
    """The package imports, and a run completes, with numpy and the standard
    library only; the test-only quadrature reference stays unloaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args = [
        "run", "--config", str(FIXTURES / "figure3_upper.cfg"), "--out", str(tmp_path),
        "--grid=-1,1,-1,1,3,3", "--quiet",
    ]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import cwherald, cwherald.cli, sys; "
            f"assert cwherald.cli.main({args!r}) == 0; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m in ('scipy', 'cwherald.quadrature') or m.startswith('scipy.'))))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def read_summary(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        key, _, raw = line.partition(" = ")
        if not key.startswith("config."):
            values[key] = float(raw)
    return values


@pytest.fixture(scope="module")
def run_a(tmp_path_factory):
    """One full CLI run on the weak-pump click fixture, shared across tests."""
    out = tmp_path_factory.mktemp("run_a")
    proc = run_cli(
        "run", "--config", str(FIXTURES / "figure3_upper.cfg"), "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    return out


class TestRun:
    def test_summary_values(self, run_a):
        values = read_summary(run_a / "summary.txt")
        assert values["fidelity_fock1"] == pytest.approx(0.9882, abs=0.005)
        assert values["wigner_origin"] == pytest.approx(-0.3116, abs=0.005)
        assert set(values) == {
            "probability",
            "wigner_origin",
            "fidelity_fock0",
            "fidelity_fock1",
            "fidelity_fock2",
            "purity",
        }

    def test_summary_echoes_config(self, run_a):
        text = (run_a / "summary.txt").read_text()
        assert "config.source.epsilon = 0.01" in text
        assert "config.measurement.kind = click" in text

    def test_grid_includes_origin_row(self, run_a):
        lines = (run_a / "wigner_grid.csv").read_text().splitlines()
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 201 * 201
        origin = [l for l in lines if l.startswith("0,0,")]
        assert len(origin) == 1
        w00 = float(origin[0].split(",")[2])
        assert w00 == pytest.approx(-0.3116, abs=0.005)

    def test_determinism_byte_identical(self, run_a, tmp_path):
        proc = run_cli(
            "run", "--config", str(FIXTURES / "figure3_upper.cfg"), "--out", str(tmp_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "summary.txt").read_bytes() == (run_a / "summary.txt").read_bytes()
        assert (tmp_path / "wigner_grid.csv").read_bytes() == (
            run_a / "wigner_grid.csv"
        ).read_bytes()


class TestStageComposition:
    def test_run_equals_staged_pipeline(self, run_a, tmp_path):
        cfg = str(FIXTURES / "figure3_upper.cfg")
        p = run_cli("covariance", "--config", cfg, "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        p = run_cli("condition", "--config", cfg, "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        p = run_cli("metrics", "--config", cfg, "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        staged = read_summary(tmp_path / "summary.txt")
        direct = read_summary(run_a / "summary.txt")
        assert staged.keys() == direct.keys()
        for key in direct:
            assert staged[key] == pytest.approx(direct[key], abs=1e-12)


class TestCovarianceStage:
    def test_zero_gain_writes_identity(self, tmp_path):
        cfg = tmp_path / "eps0.cfg"
        cfg.write_text(
            (FIXTURES / "figure3_upper.cfg").read_text().replace(
                "epsilon = 0.01", "epsilon = 0.0"
            )
        )
        p = run_cli("covariance", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        v = load_covariance(tmp_path / "covariance.txt")
        assert np.allclose(v.m, np.eye(4), atol=1e-12)

    def test_unphysical_direct_covariance_is_rejected(self, tmp_path):
        cov = tmp_path / "in.txt"
        np.savetxt(cov, np.diag([0.5, 0.5, 1.0, 1.0]))
        cfg = tmp_path / "direct.cfg"
        cfg.write_text(
            f"[source]\nkind = direct\ncovariance = {cov}\n\n[measurement]\nkind = click\n"
        )
        out = tmp_path / "out"
        p = run_cli("covariance", "--config", str(cfg), "--out", str(out))
        assert p.returncode == 3
        assert "error [covariance]" in p.stderr and "unphysical" in p.stderr
        assert not (out / "covariance.txt").exists()

    def test_condition_click_on_tmsv_covariance(self, tmp_path):
        src_cfg = tmp_path / "tmsv.cfg"
        src_cfg.write_text(
            "[source]\nkind = tmsv\nr = 0.01\n\n[measurement]\nkind = click\n"
        )
        p = run_cli("covariance", "--config", str(src_cfg), "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        p = run_cli("condition", "--config", str(src_cfg), "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        p = run_cli("metrics", "--config", str(src_cfg), "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        values = read_summary(tmp_path / "summary.txt")
        assert values["fidelity_fock1"] >= 0.999


class TestScanStage:
    def test_scan_writes_table_and_best(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            (FIXTURES / "figure4_scan.cfg")
            .read_text()
            .replace("alpha_min = 0.25", "alpha_min = 0.35")
            .replace("alpha_max = 0.5", "alpha_max = 0.39")
            .replace("samples = 50", "samples = 3")
        )
        p = run_cli("scan-alpha", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "alpha,objective"
        assert len(lines) == 4
        best = (tmp_path / "scan_best.txt").read_text()
        assert "best_alpha = " in best and "objective = origin_value" in best


class TestTabulatedEnvelope:
    def test_sampled_exponential_matches_closed_form(self, run_a, tmp_path):
        from cwherald.config import parse_config
        from cwherald.pipeline import build_covariance, condition_state, summarize

        ts = np.linspace(-15, 15, 301)
        us = np.exp(-0.5 * np.abs(ts))
        table = tmp_path / "envelope.txt"
        np.savetxt(table, np.column_stack([ts, us]))
        cfg_text = (FIXTURES / "figure3_upper.cfg").read_text().replace(
            "envelope = exponential\nalpha = 0.5",
            f"envelope = tabulated\ntable = {table}",
        )
        cfg_path = tmp_path / "tab.cfg"
        cfg_path.write_text(cfg_text)
        cfg = parse_config(cfg_path)
        summary = summarize(cfg, condition_state(cfg, build_covariance(cfg)))
        direct = read_summary(run_a / "summary.txt")
        assert summary["wigner_origin"] == pytest.approx(
            direct["wigner_origin"], rel=2e-3
        )
        assert summary["fidelity_fock1"] == pytest.approx(
            direct["fidelity_fock1"], rel=2e-3
        )


    def test_center_moves_the_table(self, tmp_path):
        # the source is stationary: moving the envelope and the window together changes nothing
        from cwherald.config import parse_config
        from cwherald.pipeline import build_covariance, condition_state, summarize

        ts = np.linspace(-4.0, 6.0, 81)
        us = np.exp(-0.5 * np.abs(ts - 0.7)) * (1.0 + 0.3 * np.sin(ts))
        table = tmp_path / "envelope.txt"
        np.savetxt(table, np.column_stack([ts, us]))
        text = (FIXTURES / "figure3_upper.cfg").read_text().replace(
            "envelope = exponential\nalpha = 0.5",
            f"envelope = tabulated\ntable = {table}",
        )

        def summary(shift):
            cfg_path = tmp_path / f"shift{shift}.cfg"
            cfg_path.write_text(
                text.replace("window_center = 0.0", f"window_center = {shift}").replace(
                    "\ncenter = 0.0", f"\ncenter = {shift}"
                )
            )
            cfg = parse_config(cfg_path)
            return summarize(cfg, condition_state(cfg, build_covariance(cfg)))

        assert summary(1.5) == pytest.approx(summary(0.0), rel=1e-12)


class TestCoherenceStage:
    def test_writes_kernel_and_mode(self, tmp_path):
        cfg = tmp_path / "coh.cfg"
        cfg.write_text(
            (FIXTURES / "figure3_upper.cfg").read_text().replace(
                "[outputs]", "[outputs]\ncoherence = true\ncoherence_points = 41"
            )
        )
        p = run_cli("coherence", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 0, p.stderr
        assert (tmp_path / "coherence.csv").read_text().startswith("t,tp,g")
        mode_lines = (tmp_path / "dominant_mode.csv").read_text().splitlines()
        assert mode_lines[0] == "t,u"
        assert len(mode_lines) == 42

    def test_zero_half_width_writes_nothing(self, tmp_path):
        cfg = tmp_path / "coh.cfg"
        cfg.write_text(
            (FIXTURES / "figure3_upper.cfg").read_text().replace(
                "[outputs]", "[outputs]\ncoherence_halfwidth = 0\ncoherence_points = 5"
            )
        )
        p = run_cli("coherence", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 2
        assert "error [config]: [outputs] coherence_halfwidth must be positive" in p.stderr
        assert not (tmp_path / "dominant_mode.csv").exists()


def _fixture_with(name, old, new):
    text = (FIXTURES / name).read_text()
    assert text.count(old) == 1, old
    return text.replace(old, new)


TABULATED_SCAN = "envelope = tabulated\ntable = envelope.txt"
# each breaks a config rule, which run must report before it writes a file
REJECTED = {
    "alpha_zero": _fixture_with("figure3_upper.cfg", "alpha = 0.5", "alpha = 0"),
    "scan_tabulated": _fixture_with(
        "figure4_scan.cfg", "envelope = exponential\nalpha = 0.5", TABULATED_SCAN
    ),
    "scan_tmsv": "[source]\nkind = tmsv\nr = 0.3\n\n[measurement]\nkind = click\n\n"
    "[scan]\nalpha_min = 0.25\nalpha_max = 0.5\n",
    "coherence_tmsv": "[source]\nkind = tmsv\nr = 0.3\n\n[measurement]\nkind = click\n\n"
    "[outputs]\ncoherence = true\n",
    "coherence_points": _fixture_with(
        "figure3_upper.cfg", "[outputs]", "[outputs]\ncoherence = true\ncoherence_points = 2"
    ),
    "coherence_halfwidth": _fixture_with(
        "figure3_upper.cfg", "[outputs]", "[outputs]\ncoherence_halfwidth = 0"
    ),
    "samples_zero": _fixture_with("figure4_scan.cfg", "samples = 50", "samples = 0"),
    "samples_two": _fixture_with("figure4_scan.cfg", "samples = 50", "samples = 2"),
}


@pytest.mark.parametrize("text", REJECTED.values(), ids=list(REJECTED))
def test_rejected_config_writes_no_file(tmp_path, text):
    ts = np.linspace(-4.0, 4.0, 41)
    np.savetxt(tmp_path / "envelope.txt", np.column_stack([ts, np.exp(-np.abs(ts))]))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace("envelope.txt", str(tmp_path / "envelope.txt")))
    out = tmp_path / "out"
    p = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert p.returncode == 2
    assert p.stderr.startswith("error [config]: ")
    assert not (out / "summary.txt").exists() and not (out / "wigner_grid.csv").exists()


def test_infinite_window_center_writes_no_coherence(tmp_path):
    cfg = tmp_path / "coh.cfg"
    cfg.write_text(
        _fixture_with("figure3_upper.cfg", "window_center = 0.0", "window_center = inf")
    )
    p = run_cli("coherence", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert p.returncode == 2
    assert p.stderr == "error [config]: [trigger] window_center = 'inf' is not a finite number\n"
    assert not (tmp_path / "out").exists()


class TestErrors:
    def test_empty_measurement_section(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            (FIXTURES / "figure3_upper.cfg")
            .read_text()
            .replace("[measurement]\nkind = click", "[measurement]")
        )
        p = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 2
        assert "measurement" in p.stderr

    def test_unknown_key_is_hard_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            (FIXTURES / "figure3_upper.cfg").read_text().replace(
                "tap_amplitude = 0.1", "tap_amplitude = 0.1\nbogus_knob = 3"
            )
        )
        p = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 2
        assert "bogus_knob" in p.stderr

    def test_impossible_outcome_names_stage(self, tmp_path):
        cfg = tmp_path / "vac.cfg"
        cfg.write_text("[source]\nkind = tmsv\nr = 0.0\n\n[measurement]\nkind = click\n")
        p = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 3
        assert "error [run]" in p.stderr

    def test_above_threshold_source(self, tmp_path):
        cfg = tmp_path / "thr.cfg"
        cfg.write_text(
            (FIXTURES / "figure3_upper.cfg").read_text().replace(
                "epsilon = 0.01", "epsilon = 0.51"
            )
        )
        p = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
        assert p.returncode == 3
        assert "threshold" in p.stderr

    def test_grid_override(self, tmp_path):
        p = run_cli(
            "run",
            "--config",
            str(FIXTURES / "figure3_upper.cfg"),
            "--out",
            str(tmp_path),
            "--grid=-3,3,-3,3,11,21",
        )
        assert p.returncode == 0, p.stderr
        lines = (tmp_path / "wigner_grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 11 * 21
