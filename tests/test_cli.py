import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_text,
    coherence_csv_text,
    grid_csv_text,
    random_physical_covariance,
)

from cwherald import cli, pipeline
from cwherald.coherence import conditional_coherence
from cwherald.config import parse_config
from cwherald.covariance import EXCESS_HEADER, load_covariance, save_covariance
from cwherald.pipeline import build_kernel, run_experiment
from cwherald.sources import tmsv_covariance

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "cwherald" / "fixtures"
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "cwherald", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cold_import_loads_no_scipy(tmp_path):
    """The package imports, and a run completes, with numpy and the standard
    library only; the test-only quadrature reference stays unloaded, and the
    top level exports no oracle, no name only the benchmark keeps and no
    deleted name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args = [
        "run", "--config", str(FIXTURES / "figure3_upper.cfg"), "--out", str(tmp_path),
        "--grid=-1,1,-1,1,3,3", "--quiet",
    ]
    proc = subprocess.run(
        [
            sys.executable,
            "-W",
            "error",
            "-c",
            "import cwherald, cwherald.cli, sys; "
            f"assert cwherald.cli.main({args!r}) == 0; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m in ('scipy', 'cwherald.quadrature') or m.startswith('scipy.'))), "
            "*sorted(set(dir(cwherald)) & {'click_wigner_direct', 'TwoModeGaussianWigner', "
            "'integrate_out_trigger', 'golden_section_minimize', 'NegativityResult'}))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def diagonal(x):
    """A covariance file's 4x4 text with ``x`` on the diagonal."""
    return "".join(" ".join(x if i == j else "0" for j in range(4)) + "\n" for i in range(4))


V_BOUND = "det V multiplies four entries of V, so those of V must be below 5.79e+76"


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

    def test_negative_zero_echoes_as_zero(self, run_a, tmp_path):
        # the echo writes values as every summary line does, so -0.0 reads 0
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(
            _fixture_with("figure3_upper.cfg", "window_center = 0.0", "window_center = -0.0")
        )
        p = run_cli("run", "--config", str(cfg), "--out", str(tmp_path), "--grid=-1,1,-1,1,3,3")
        assert p.returncode == 0, p.stderr
        assert (tmp_path / "summary.txt").read_bytes() == (run_a / "summary.txt").read_bytes()

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


class TestMetricsStage:
    def test_two_term_on_state_round_trips(self, tmp_path):
        # the on state is the difference of two Gaussians: state.json carries
        # both terms, and the staged metrics equal those of one run
        cfg = tmp_path / "on.cfg"
        cfg.write_text(
            (FIXTURES / "figure4_upper.cfg").read_text().replace("kind = click", "kind = on")
        )
        small = ["--config", str(cfg), "--grid=-1,1,-1,1,3,3", "--quiet"]
        assert cli.main(["run", "--out", str(tmp_path / "run"), *small]) == 0
        for stage in ("covariance", "condition", "metrics"):
            assert cli.main([stage, "--out", str(tmp_path / "staged"), *small]) == 0
        state = json.loads((tmp_path / "staged" / "state.json").read_text())
        assert len(state["terms"]) == 2
        assert (tmp_path / "staged" / "summary.txt").read_bytes() == (
            tmp_path / "run" / "summary.txt"
        ).read_bytes()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"terms": [{"coeffs": [[1.0]], "sigma": IDENTITY}]}, "'probability' must be a finite number"),
            ([0.5, [{"coeffs": [[1.0]], "sigma": IDENTITY}]], "not a JSON object"),
            ({"probability": 0.5, "terms": [{"coeffs": [1.0], "sigma": IDENTITY}]},
             "term 0: 'coeffs' must be a finite 2-D table"),
            ({"probability": 0.5, "terms": [{"coeffs": [[1.0]]}]},
             "term 0: 'sigma' must be a finite 2x2 matrix"),
            ({"probability": 0.5, "terms": []}, "'terms' must be a non-empty list"),
            ({"probability": 0.5, "terms": [{"coeffs": [[1.0]], "sigma": np.eye(3).tolist()}]},
             "term 0: 'sigma' must be a finite 2x2 matrix"),
            ({"probability": 0.5, "terms": [{"coeffs": [[1.0]], "sigma": [[1.0, 2.0], [0.0, 1.0]]}]},
             "term 0: 'sigma' must be symmetric positive definite"),
            ({"probability": 0.5, "terms": [{"coeffs": [[1.0]], "sigma": [[1.0, 0.0], [0.0, -1.0]]}]},
             "term 0: 'sigma' must be symmetric positive definite"),
            ({"probability": 0.5, "terms": [{"coeffs": [[1.0]], "sigma": [[-1.0, 0.0], [0.0, -1.0]]}]},
             "term 0: 'sigma' must be symmetric positive definite"),
            ({"probability": 0.5, "terms": [{"coeffs": [[1.0]], "sigma": [[1.0, 1.0], [1.0, 1.0]]}]},
             "term 0: 'sigma' must be symmetric positive definite"),
            ({"probability": 0.5, "terms": [
                {"coeffs": [[1.0]], "sigma": IDENTITY},
                {"coeffs": [[1.0]], "sigma": [[1.0, 1e-9], [0.0, 1.0]]},
            ]}, "term 1: 'sigma' must be symmetric positive definite"),
            # older versions wrote cores whose off-diagonals differ in the last bits
            ({"probability": 0.5, "terms": [{"coeffs": [[1.0]], "sigma": [
                [1.5, 0.25], [float(np.nextafter(0.25, 1.0)), 0.75]]}]},
             "term 0: 'sigma' must be symmetric positive definite"),
            ({"probability": 0.0, "terms": [{"coeffs": [[1.0]], "sigma": IDENTITY}]},
             "'probability' must be positive"),
            ({"probability": -0.5, "terms": [{"coeffs": [[1.0]], "sigma": IDENTITY}]},
             "'probability' must be positive"),
        ],
        ids=[
            "no-probability", "list", "1d-coeffs", "no-sigma", "no-terms", "3x3-sigma",
            "asymmetric-sigma", "indefinite-sigma", "negative-sigma", "singular-sigma",
            "second-term-skew-sigma", "ulp-skew-sigma", "zero-probability",
            "negative-probability",
        ],
    )
    def test_malformed_state_file_is_rejected(self, tmp_path, capsys, doc, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["metrics", "--config", str(FIXTURES / "figure3_upper.cfg"), "--state", str(path)]
        assert cli.main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [metrics]: state file {path}: {message}\n"
        assert not out.exists()

    def test_malformed_covariance_file_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "covariance.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        out = tmp_path / "out"
        args = ["condition", "--config", str(FIXTURES / "figure3_upper.cfg")]
        assert cli.main([*args, "--covariance", str(path), "--out", str(out)]) == 1
        want = f"error [condition]: expected 4x4 covariance in {path}, got shape (3, 3)\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            # det V overflowed with a numpy warning; run went on to exit 0, at
            # 1e200 with purity = nan
            (diagonal("1e100"), "covariance in {path} has an entry of 1e+100: " + V_BOUND),
            (diagonal("1e200"), "covariance in {path} has an entry of 1e+200: " + V_BOUND),
            (
                EXCESS_HEADER + "\n" + diagonal("3e76"),
                "covariance in {path} has an entry of 3e+76: det V multiplies four entries "
                "of V, so those of N must be below 2.895e+76",
            ),
        ],
        ids=["V-1e100", "V-1e200", "N-3e76"],
    )
    def test_overflowing_covariance_file_is_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "covariance.txt"
        path.write_text(text)
        out = tmp_path / "out"
        args = ["condition", "--config", str(FIXTURES / "figure3_upper.cfg")]
        assert cli.main([*args, "--covariance", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error [condition]: {message.format(path=path)}\n"
        assert not out.exists()


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


# sha256 of (summary.txt, wigner_grid.csv) of each shipped fixture: a change
# that leaves the numbers alone leaves these files byte-identical
FIXTURE_SHA256 = {
    "figure3_upper": (
        "c52a06d8131a977d1ae14c1c4e0d91f4fa349ebcc50293229b2b8edaf1c8ad43",
        "23275707ee00cc1f9c5e3662068032b606bbca0fb6b9fe7515e49730ca2c4436",
    ),
    "figure3_lower": (
        "94a7e134fd73f8656e2ab3629c25c5d2d386b405ccfd874ae266753c3d61977d",
        "6f62aaa125ecd349edb60497f0969725b6a23e20f6d23176b83920cb812fb0bb",
    ),
    "figure4_upper": (
        "8b56c8c1ec2092667208153e0cfb16afc67bc0e0e0121f1020d0e5f11a521100",
        "bade8e3920dc8b55356aa91eafd518e7320c4d23e47377a9c66a8c223c80479f",
    ),
    "figure4_lower": (
        "61002447b6644c4daa65cb38e7e1178e4f919c18626f46f8983390326ea20460",
        "91842159a1f40a67f0d0f4f2c4e432b084a825f9c1e9b52a368b587147359b5a",
    ),
}


@pytest.mark.parametrize("stem", FIXTURE_SHA256)
def test_fixture_outputs_pinned(stem, tmp_path):
    cfg = str(FIXTURES / f"{stem}.cfg")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("summary.txt", "wigner_grid.csv")
    )
    assert digests == FIXTURE_SHA256[stem]


# sha256 of wigner_grid.csv of a click on a seeded direct covariance: its
# terms are even, but the x-p correlations leave W(-x, p) != W(x, p), so the
# grid is exact under a half turn only and every lower row is its mirror reversed
DIRECT_GRID_SHA256 = "7dbfc0914f8ed954852274046605ff0d561944b6561063354bbb3bc80a8e7bd8"


def test_parity_half_grid_pinned(tmp_path):
    cov = tmp_path / "covariance.txt"
    save_covariance(cov, random_physical_covariance(np.random.default_rng(7)))
    cfg = tmp_path / "direct.cfg"
    cfg.write_text(f"[source]\nkind = direct\ncovariance = {cov}\n\n[measurement]\nkind = click\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    w = run_experiment(parse_config(cfg)).grid[2]
    lower = range(101, 201)
    assert not any(np.array_equal(w[k], w[200 - k]) for k in lower)
    assert all(np.array_equal(w[k], w[200 - k, ::-1]) for k in lower)
    digest = hashlib.sha256((tmp_path / "wigner_grid.csv").read_bytes()).hexdigest()
    assert digest == DIRECT_GRID_SHA256


# sha256 of (coherence.csv, dominant_mode.csv) written for FILTERED_COHERENCE
FILTERED_COHERENCE_SHA256 = (
    "8203a9b78af47fd64291d3a8a7b7d70870e1f773f5144182bbaf6a2853edc30b",
    "f664f03de0600cac07938f16f34dd6d3f9ece8b07346a6e0d113e93c6f115f18",
)


def test_coherence_outputs_pinned(tmp_path):
    path = tmp_path / "filtered.cfg"
    path.write_text(FILTERED_COHERENCE)
    assert cli.main(["coherence", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("coherence.csv", "dominant_mode.csv")
    )
    assert digests == FILTERED_COHERENCE_SHA256


class TestScanPipeline:
    # sha256 of scan.csv for the scan fixture; the grid values it holds do
    # not depend on how the optimum is refined
    SCAN_CSV_SHA256 = "e94a27d56ee3532e39224501f1b2f868f11afdb555fbf5c6227361127b176810"

    def test_fixture_outputs_and_refinement_steps(self, tmp_path, monkeypatch):
        inner = pipeline.scan_and_refine
        steps = []

        def counted(f, *args):
            def g(x):
                if not np.ndim(x):
                    steps.append(x)
                return f(x)

            return inner(g, *args)

        monkeypatch.setattr(pipeline, "scan_and_refine", counted)
        cfg = str(FIXTURES / "figure4_scan.cfg")
        assert cli.main(["scan-alpha", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        digest = hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest()
        assert digest == self.SCAN_CSV_SHA256
        assert (tmp_path / "scan_best.txt").read_text().splitlines() == [
            "objective = origin_value",
            "best_alpha = 0.36720802",
            "best_objective = -0.261547438",
        ]
        # the refinement caps itself at 8 scalar steps; this smooth objective needs at most 4
        assert 1 <= len(steps) <= 4


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


@pytest.mark.parametrize(
    "stage, fixture",
    [("run", "figure4_upper.cfg"), ("covariance", "figure4_upper.cfg"),
     ("scan-alpha", "figure4_scan.cfg")],
)
def test_threshold_source_leaves_no_out(tmp_path, capsys, stage, fixture):
    cfg = tmp_path / "thr.cfg"
    cfg.write_text(_fixture_with(fixture, "epsilon = 0.2", "epsilon = 0.6"))
    out = tmp_path / "out"
    assert cli.main([stage, "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(f"error [{stage}]: ")
    assert not out.exists()


# [source] edits of the scan fixture, and the exit code and message each ends every stage with
BAD_SOURCES = {
    "gamma1_zero": ("gamma1 = 1.0", "gamma1 = 0", 2, "[source] gamma1 must be positive, got 0.0"),
    "gamma2_negative": (
        "gamma2 = 0.0", "gamma2 = -1", 2, "[source] gamma2 must be nonnegative, got -1.0"
    ),
    "epsilon_negative": (
        "epsilon = 0.2", "epsilon = -0.1", 2, "[source] epsilon must be nonnegative, got -0.1"
    ),
    "above_threshold": (
        "epsilon = 0.2", "epsilon = 0.6", 3,
        "at or above threshold: (gamma1 + gamma2)/2 - epsilon = -0.1 <= 0 "
        "for gamma1=1, gamma2=0, epsilon=0.6",
    ),
    # the kernel squares the fast rate, which would overflow
    "gamma1_huge": (
        "gamma1 = 1.0", "gamma1 = 1e300", 2,
        "[source] (gamma1 + gamma2)/2 + epsilon = 5e+299 is too large: the kernel squares it",
    ),
    "gamma2_huge": (
        "gamma2 = 0.0", "gamma2 = 1e300", 2,
        "[source] (gamma1 + gamma2)/2 + epsilon = 5e+299 is too large: the kernel squares it",
    ),
}


@pytest.mark.parametrize("old, new, code, message", BAD_SOURCES.values(), ids=list(BAD_SOURCES))
@pytest.mark.parametrize(
    "stage", ["run", "covariance", "condition", "metrics", "coherence", "scan-alpha"]
)
def test_bad_source_fails_every_stage_first(tmp_path, capsys, stage, old, new, code, message):
    """Each stage checks [source] as it reads the config: condition and metrics,
    which never build the source, refuse it too, given inputs they would accept."""
    v = tmsv_covariance(0.3)
    save_covariance(tmp_path / "covariance.txt", v)
    good = parse_config(FIXTURES / "figure4_scan.cfg")
    pipeline.save_state(tmp_path / "state.json", pipeline.condition_state(good, v))
    inputs = {
        "condition": ["--covariance", str(tmp_path / "covariance.txt")],
        "metrics": ["--state", str(tmp_path / "state.json")],
    }
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_fixture_with("figure4_scan.cfg", old, new))
    out = tmp_path / "out"
    argv = [stage, "--config", str(cfg), "--out", str(out), "--quiet", *inputs.get(stage, [])]
    assert cli.main(argv) == code
    where = "config" if code == 2 else stage
    assert capsys.readouterr().err == f"error [{where}]: {message}\n"
    assert not out.exists()


SOURCE_VALUES = ["0", "1e-12", "-1e-12", "1e-300", "1", "1e12", "1e300", "nan", "inf"]
# the [measurement] lines of each detection kind; every fixture measures click
MEASUREMENTS = {
    "number 0": "kind = number\nn = 0",
    "number 1": "kind = number\nn = 1",
    "number 2": "kind = number\nn = 2",
    "on": "kind = on",
    "click": "kind = click",
    "vacuum": "kind = vacuum",
}
KINDS = st.sampled_from(list(MEASUREMENTS))


def _measuring(kind, text):
    """A fixture's config text with its click measurement switched to ``kind``."""
    return text.replace("[measurement]\nkind = click", f"[measurement]\n{MEASUREMENTS[kind]}")


@settings(max_examples=100, deadline=None)
@given(
    gamma1=st.sampled_from(SOURCE_VALUES),
    gamma2=st.sampled_from(SOURCE_VALUES),
    epsilon=st.sampled_from(SOURCE_VALUES),
    kind=KINDS,
)
# the fast rate's square overflows
@example(gamma1="1e300", gamma2="0", epsilon="1e-12", kind="click")
@example(gamma1="1e-12", gamma2="1e300", epsilon="0", kind="click")
@example(gamma1="1e12", gamma2="1e12", epsilon="1e12", kind="click")  # above threshold
# no squeezing: the trigger has no photon
@example(gamma1="1e-300", gamma2="0", epsilon="0", kind="click")
@example(gamma1="1e12", gamma2="1e12", epsilon="1", kind="click")  # runs
# without squeezing, no photon is certain: number 0 and vacuum run, the others are impossible
@example(gamma1="1", gamma2="0", epsilon="0", kind="number 0")
@example(gamma1="1", gamma2="0", epsilon="0", kind="vacuum")
@example(gamma1="1", gamma2="0", epsilon="0", kind="number 2")
@example(gamma1="1", gamma2="0", epsilon="0", kind="on")
def test_source_edits_keep_the_cli_contract(gamma1, gamma2, epsilon, kind):
    """Any [source] values and detection kind end run with exit 0-3, and a
    failure with one error line and no file; no value makes numpy warn."""
    text = _fixture_with("figure3_upper.cfg", "gamma1 = 1.0", f"gamma1 = {gamma1}")
    text = text.replace("gamma2 = 0.0", f"gamma2 = {gamma2}")
    text = text.replace("epsilon = 0.01", f"epsilon = {epsilon}")
    assert_stage_keeps_the_cli_contract("run", _measuring(kind, text), "--grid=-1,1,-1,1,3,3")


# a nan or infinite number as %g, repr or JSON writes it
NON_FINITE = re.compile(r"(?<![\w./])[-+]?(nan|inf(inity)?)(?![\w./])", re.IGNORECASE)


def assert_stage_keeps_the_cli_contract(stage, text, *args):
    """``stage`` on a config text exits 0-3, and a failure with one error line
    and no file; nothing warns, and a success writes no non-finite number."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "edit.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([stage, "--config", str(cfg), "--out", str(out), "--quiet", *args])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2, 3)
        if code:
            where = "config" if code == 2 else stage
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error [{where}]: ")
            assert not out.exists()
        else:
            assert err.getvalue() == ""
            for path in out.iterdir():
                assert not NON_FINITE.search(path.read_text()), path.name



# the line of figure3_upper.cfg that each edited key replaces
TIME_AND_NOISE_LINES = {
    "window_width": "window_width = 0.02",
    "window_center": "window_center = 0.0",
    "center": "\ncenter = 0.0",
    "alpha": "alpha = 0.5",
    "filter_width": "filter_width = none",
    "xi1": "xi1 = 0.0",
    "xi2": "xi2 = 0.0",
}


@settings(max_examples=100, deadline=None)
@given(
    edits=st.dictionaries(
        st.sampled_from(list(TIME_AND_NOISE_LINES)),
        st.sampled_from([*SOURCE_VALUES, "none"]),
        min_size=1,
        max_size=3,
    ),
    kind=KINDS,
)
@example(edits={"window_width": "1e300"}, kind="click")  # the kernel would square the window
@example(edits={"window_center": "1e300"}, kind="click")  # the window lies past the squarable times
# empty in floating point
@example(edits={"window_center": "1e12", "window_width": "1e-12"}, kind="click")
@example(edits={"window_center": "1e12"}, kind="click")  # the window's float width is off by 0.6 %
# the output envelope lies past the squarable times
@example(edits={"center": "1e300"}, kind="click")
@example(edits={"xi1": "1e300"}, kind="click")  # det V overflows
@example(edits={"xi2": "1e300"}, kind="click")  # det V overflows
@example(edits={"filter_width": "1e-300"}, kind="click")  # no trigger occupation: a physics error
# rate x time overflows
@example(edits={"filter_width": "1e300", "window_width": "1e12"}, kind="click")
@example(edits={"alpha": "1e300", "window_center": "1e12"}, kind="click")
# runs
@example(edits={"filter_width": "1e12", "window_width": "1e12", "xi2": "1e12"}, kind="click")
# no trigger occupation: the vacuum projection is certain, a number-1 outcome impossible
@example(edits={"filter_width": "1e-300"}, kind="vacuum")
@example(edits={"filter_width": "1e-300"}, kind="number 1")
def test_trigger_output_and_loss_edits_keep_the_cli_contract(edits, kind):
    """Any window, filter, output envelope or added-noise values and any
    detection kind keep run's contract."""
    text = (FIXTURES / "figure3_upper.cfg").read_text()
    for key, value in edits.items():
        line = TIME_AND_NOISE_LINES[key]
        text = text.replace(line, line.replace(line.split(" = ")[1], value))
    assert_stage_keeps_the_cli_contract("run", _measuring(kind, text), "--grid=-1,1,-1,1,3,3")


SOURCE_LINES = {"gamma1": "gamma1 = 1.0", "gamma2": "gamma2 = 0.0", "epsilon": "epsilon = 0.2"}
# each stage but run: the config it edits, and the line each edited key replaces there
STAGE_EDITS = {
    "covariance": (
        (FIXTURES / "figure4_upper.cfg").read_text(), {**SOURCE_LINES, **TIME_AND_NOISE_LINES}
    ),
    "coherence": (
        _fixture_with("figure4_upper.cfg", "[outputs]",
                      "[outputs]\ncoherence_halfwidth = 10.0\ncoherence_points = 9"),
        {
            **SOURCE_LINES,
            "window_center": "window_center = 0.0",
            "coherence_halfwidth": "coherence_halfwidth = 10.0",
            "coherence_points": "coherence_points = 9",
        },
    ),
    "scan-alpha": (
        (FIXTURES / "figure4_scan.cfg").read_text(),
        {
            **SOURCE_LINES,
            **{key: line for key, line in TIME_AND_NOISE_LINES.items() if key != "alpha"},
            "alpha_min": "alpha_min = 0.25",
            "alpha_max": "alpha_max = 0.5",
            "samples": "samples = 50",
        },
    ),
}


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(list(STAGE_EDITS)).flatmap(
        lambda stage: st.tuples(
            st.just(stage),
            st.dictionaries(
                st.sampled_from(list(STAGE_EDITS[stage][1])),
                st.sampled_from([*SOURCE_VALUES, "none"]),
                min_size=1,
                max_size=3,
            ),
        )
    ),
    kind=KINDS,
)
# each warned and exited 0: the grid's times round together; a lag times a rate overflows
@example(case=("coherence", {"coherence_halfwidth": "1e-12", "window_center": "1e6"}), kind="click")
@example(
    case=("coherence", {"coherence_halfwidth": "1e300", "gamma1": "1e12", "epsilon": "3"}),
    kind="click",
)
# the kernel would square the window
@example(case=("covariance", {"window_width": "1e300"}), kind="click")
@example(case=("covariance", {"epsilon": "1e12"}), kind="click")  # above threshold
@example(case=("scan-alpha", {"alpha_max": "1e300"}), kind="click")  # past the rate bound
# runs from a vanishing decay rate
@example(case=("scan-alpha", {"alpha_min": "1e-300"}), kind="click")
@example(case=("scan-alpha", {"xi2": "1e12", "window_width": "1e12"}), kind="click")  # runs
# without squeezing, number 0 scans a certain outcome and an on outcome never fires
@example(case=("scan-alpha", {"epsilon": "0"}), kind="number 0")
@example(case=("scan-alpha", {"epsilon": "0"}), kind="on")
def test_other_stages_keep_the_cli_contract(case, kind):
    """Any source, window, output, noise, coherence or scan values and any
    detection kind keep the contract of covariance, coherence and scan-alpha."""
    stage, edits = case
    text, lines = STAGE_EDITS[stage]
    for key, value in edits.items():
        line = lines[key]
        assert text.count(line) == 1, line
        text = text.replace(line, line.replace(line.split(" = ")[1], value))
    assert_stage_keeps_the_cli_contract(stage, _measuring(kind, text))


GRID_ENDS = ["1", "1e12", "1e38", "1.7e38", "1e77", "1.2e77", "1e100", "1e155", "1e200"]
SQUEEZINGS = ["0", "1e-12", "0.3", "-1", "10", "88.7", "88.8", "400", "-400", "1e3"]
# the entries of a covariance file's diagonal, which holds V or, after
# EXCESS_HEADER, N = (V - I)/2
COVARIANCE_SCALES = ["0", "1", "1e12", "1e76", "2.8e76", "5.7e76", "1e77", "1e100", "1e200"]


@settings(max_examples=100, deadline=None)
@given(
    source=st.one_of(
        st.just(("opo", "")),
        st.tuples(st.just("tmsv"), st.sampled_from(SQUEEZINGS)),
        st.tuples(st.sampled_from(["V file", "N file"]), st.sampled_from(COVARIANCE_SCALES)),
    ),
    ends=st.tuples(st.sampled_from(GRID_ENDS), st.sampled_from(GRID_ENDS)),
    kind=KINDS,
)
# a cell's fourth power overflowed, and nan cells were written
@example(source=("opo", ""), ends=("1e100", "1"), kind="number 2")
@example(source=("opo", ""), ends=("1", "1e155"), kind="click")
@example(source=("tmsv", "400"), ends=("1", "1"), kind="click")  # sinh(r)^2 overflowed
@example(source=("V file", "1e100"), ends=("1", "1"), kind="click")  # det V overflowed
@example(source=("V file", "1e200"), ends=("1", "1"), kind="click")  # purity = nan
@example(source=("N file", "5.7e76"), ends=("1.7e38", "1.7e38"), kind="on")  # runs
def test_squeezing_file_and_grid_edits_keep_the_cli_contract(source, ends, kind):
    """Any tmsv squeezing, diagonal covariance file and grid ends, on any
    detection kind, keep run's contract."""
    kind_of, value = source
    grid = f"--grid=-{ends[0]},{ends[0]},-{ends[1]},{ends[1]},3,3"
    text = _measuring(kind, (FIXTURES / "figure3_upper.cfg").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        if kind_of == "tmsv":
            text = f"[source]\nkind = tmsv\nr = {value}\n"
        elif kind_of != "opo":
            path = Path(tmp) / "covariance.txt"
            path.write_text((EXCESS_HEADER + "\n") * (kind_of == "N file") + diagonal(value))
            text = f"[source]\nkind = direct\ncovariance = {path}\n"
        if kind_of != "opo":
            text += f"\n[measurement]\n{MEASUREMENTS[kind]}\n"
        assert_stage_keeps_the_cli_contract("run", text, grid)


UNUSABLE_VALUES = {
    "window_width_huge": (
        "window_width = 0.02", "window_width = 1e300",
        "[trigger] the window [-5e+299, 5e+299] reaches past +-8.38e+152: "
        "the kernel multiplies the time between piece ends by rates",
    ),
    "window_center_huge": (
        "window_center = 0.0", "window_center = 1e300",
        "[trigger] the window [1e+300, 1e+300] reaches past +-8.38e+152: "
        "the kernel multiplies the time between piece ends by rates",
    ),
    "window_lost_in_rounding": (
        "window_center = 0.0", "window_center = 1e15",
        "[trigger] window_width = 0.02 at window_center = 1e+15 "
        "leaves the window empty in floating point",
    ),
    "window_width_off_in_rounding": (
        "window_center = 0.0", "window_center = 1e14",
        "[trigger] window_width = 0.02 at window_center = 1e+14 is 0.03125 wide in "
        "floating point, more than 1e-09 off relative to the width asked",
    ),
    "coherence_halfwidth_huge": (
        "[outputs]", "[outputs]\ncoherence_halfwidth = 1e300",
        "[outputs] coherence_halfwidth = 1e+300 reaches past +-8.38e+152: "
        "the kernel multiplies the lags by rates",
    ),
    "output_center_huge": (
        "\ncenter = 0.0", "\ncenter = -1e300",
        "[output] center = -1e+300 lies past +-8.38e+152: "
        "the kernel multiplies the time between piece ends by rates",
    ),
    "filter_width_huge": (
        "filter_width = none", "filter_width = 1e300",
        "[trigger] filter_width = 1e+300 is too large: a rate must be below 1.341e+154",
    ),
    "alpha_huge": (
        "alpha = 0.5", "alpha = 1e300",
        "[output] alpha = 1e+300 is too large: a rate must be below 1.341e+154",
    ),
    "xi1_huge": (
        "xi1 = 0.0", "xi1 = 1e300",
        "[losses] xi1 = 1e+300 is too large: det V multiplies four such entries, "
        "so it must be below 5.79e+76",
    ),
    "xi2_huge": (
        "xi2 = 0.0", "xi2 = 1e78",
        "[losses] xi2 = 1e+78 is too large: det V multiplies four such entries, "
        "so it must be below 5.79e+76",
    ),
}


@pytest.mark.parametrize("old, new, message", UNUSABLE_VALUES.values(), ids=list(UNUSABLE_VALUES))
def test_unusable_time_or_noise_is_a_config_error(tmp_path, capsys, old, new, message):
    # each ran into an overflow warning, an empty piece (exit 1) or a false
    # unphysical covariance (exit 3), or, for a huge rate, overflowed once a
    # long window came with it, before it was checked as it is read
    cfg = tmp_path / "edit.cfg"
    cfg.write_text(_fixture_with("figure3_upper.cfg", old, new))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error [config]: {message}\n"
    assert not out.exists()


def test_coherence_grid_lost_in_rounding_is_an_input_error(tmp_path, capsys):
    # its times rounded together, and the mode's norm divided by a zero step
    cfg = tmp_path / "coh.cfg"
    cfg.write_text(
        _fixture_with("figure4_upper.cfg", "window_center = 0.0", "window_center = 1e6").replace(
            "[outputs]", "[outputs]\ncoherence_halfwidth = 1e-12\ncoherence_points = 9"
        )
    )
    out = tmp_path / "out"
    assert cli.main(["coherence", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error [coherence]: a coherence grid 2e-12 wide of 9 points around t_c = 1e+06 "
        "has times that round together\n"
    )
    assert not out.exists()


def test_tabulated_times_past_the_time_bound_are_an_input_error(tmp_path, capsys):
    # they overflowed the kernel's squared lengths with numpy warnings, then
    # ended as a non-finite covariance
    table = tmp_path / "envelope.txt"
    np.savetxt(table, [[0.0, 1.0], [1e200, 0.5]])
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(
        _fixture_with("figure3_upper.cfg", "envelope = exponential\nalpha = 0.5",
                      f"envelope = tabulated\ntable = {table}")
    )
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert capsys.readouterr().err == (
        "error [run]: tabulated envelope times reach past +-8.38e+152 at center = 0: "
        "the kernel multiplies the time between piece ends by rates\n"
    )
    assert not out.exists()


def test_tabulated_samples_whose_norm_overflows_are_an_input_error(tmp_path, capsys):
    # the squared norm overflowed with a numpy warning, and run wrote an all-zero mode's files
    table = tmp_path / "envelope.txt"
    np.savetxt(table, [[0.0, 1.0], [1.0, 1e200], [2.0, 0.5]])
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(
        _fixture_with("figure3_upper.cfg", "envelope = exponential\nalpha = 0.5",
                      f"envelope = tabulated\ntable = {table}")
    )
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert capsys.readouterr().err == (
        "error [run]: tabulated envelope's squared norm overflows: its samples are too large\n"
    )
    assert not out.exists()


def test_scan_past_the_rate_bound_is_a_config_error(tmp_path, capsys):
    # it ended in an OverflowError traceback in the scan's parabola step
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(_fixture_with("figure4_scan.cfg", "alpha_max = 0.5", "alpha_max = 1e300"))
    out = tmp_path / "out"
    assert cli.main(["scan-alpha", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error [config]: [scan] alpha_max = 1e+300 is too large: a rate must be below 1.341e+154\n"
    )
    assert not out.exists()


def test_vanishing_filter_width_is_a_physics_error(tmp_path, capsys):
    # a 1e-300 filter leaves the trigger no occupation; its tail is a power-0
    # piece, so no 1/c^2 slope term overflows on the way to saying so
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(_fixture_with("figure3_upper.cfg", "filter_width = none", "filter_width = 1e-300"))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert [str(w.message) for w in caught] == []
    assert code == 3
    assert capsys.readouterr().err == (
        "error [run]: trigger mode occupation is zero (<a+a> = 0); "
        "no photon available to subtract\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("stage", ["run", "coherence"])
def test_zero_coherence_kernel_leaves_no_out(tmp_path, capsys, stage):
    # without squeezing G is zero, so dominant_mode fails after the run's state and grid
    text = _fixture_with("figure3_upper.cfg", "epsilon = 0.01", "epsilon = 0.0")
    text = text.replace("kind = click", "kind = number\nn = 0")
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(text.replace("grid = -5,5,-5,5,201,201", "grid = -1,1,-1,1,3,3\ncoherence = true"))
    out = tmp_path / "out"
    assert cli.main([stage, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error [{stage}]: coherence kernel is zero; no dominant mode\n"
    assert not out.exists()


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


def test_parser_keeps_no_options_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()  # built once per process
    cfg = str(FIXTURES / "figure3_upper.cfg")
    small = ["--grid=-1,1,-1,1,3,3", "--quiet"]
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a"), *small]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {tmp_path / 'b' / 'summary.txt'} ")
    assert len((tmp_path / "b" / "wigner_grid.csv").read_text().splitlines()) == 1 + 201 * 201


@pytest.mark.parametrize("cfg", sorted(FIXTURES.glob("*.cfg")), ids=lambda p: p.stem)
def test_run_grid_file_matches_per_cell_rendering(tmp_path, cfg):
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    xs, ps, w = run_experiment(parse_config(cfg)).grid
    assert_same_text((tmp_path / "wigner_grid.csv").read_text(), grid_csv_text(xs, ps, w))


FILTERED_COHERENCE = """[source]
kind = opo
epsilon = 0.148

[trigger]
tap_amplitude = 0.186
filter_width = 3.05
window_center = -0.169
window_width = 0.04
detector_efficiency = 0.722

[output]
envelope = exponential
alpha = 0.318
center = -0.169

[losses]
eta2 = 0.223

[measurement]
kind = click

[outputs]
grid = -4,4,-4,4,101,101
coherence = true
"""


def test_run_coherence_file_matches_per_cell_rendering(tmp_path):
    path = tmp_path / "filtered.cfg"
    path.write_text(FILTERED_COHERENCE)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    cfg = parse_config(path)
    ck = conditional_coherence(
        build_kernel(cfg),
        t_c=cfg.trigger.window_center,
        half_width=cfg.outputs.coherence_halfwidth,
        points=cfg.outputs.coherence_points,
    )
    want = coherence_csv_text(ck.grid, ck.g)
    assert_same_text((tmp_path / "coherence.csv").read_text(), want)
