"""Tests of the benchmark itself: python3 -m pytest benchmarks"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cwherald  # noqa: E402
import cwherald.cli  # noqa: E402
import cwherald.pipeline  # noqa: E402
from cwherald.covariance import CovarianceMatrix4  # noqa: E402
from cwherald.errors import ImpossibleOutcomeError  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings():
    return {
        (key, name): val
        for key, mod in list(sys.modules.items())
        if key == "cwherald" or key.startswith("cwherald.")
        for name, val in vars(mod).items()
    }


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        mods = sys.modules
        for key, name in [
            ("cwherald.pipeline", "second_moments"),
            ("cwherald.conditioning", "physicality_check"),
            ("cwherald.sources", "physicality_check"),
            ("cwherald.modes", "correlation_moment"),
            ("cwherald.pipeline", "opo_kernel"),
        ]:
            assert getattr(mods[key], name) is not before[(key, name)], (key, name)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_child_self_times_within_parent_duration(tmp_path):
    tracer = Tracer()
    tracer.install()
    fixture = ROOT / "src" / "cwherald" / "fixtures" / "figure3_upper.cfg"
    try:
        tracer.active = True
        code = cwherald.cli.main(["run", "--config", str(fixture), "--out", str(tmp_path),
                                  "--grid=-5,5,-5,5,21,21", "--quiet"])
    finally:
        tracer.active = False
        tracer.restore()
    assert code == 0
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _op in tracer.spans:
        assert end >= start
        if parent >= 0:
            child[parent] += end - start
    for (parent, _name), (secs, _calls) in tracer.leaves.items():
        child[parent] += secs
    for i, (_name, start, end, _parent, _op) in enumerate(tracer.spans):
        assert child[i] <= (end - start) + 1e-9
    self_s = tracer.self_times()
    assert min(self_s.values()) >= -1e-9
    assert self_s["sources.kernel"] > 0 and tracer.counts["sources.kernel.elements"] > 0
    total = sum(end - start for _n, start, end, parent, _op in tracer.spans if parent < 0)
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("cls", [workloads.FilteredTrigger, workloads.StateSweep])
def test_seed_gives_byte_identical_inputs(tmp_path, cls):
    def inputs(seed, tag):
        w = cls(ROOT, seed, tmp_path / tag)
        return {p.name: p.read_bytes() for p in sorted(w.inputs.iterdir())}

    first, again, other = inputs(7, "a"), inputs(7, "b"), inputs(8, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_injected_unphysical_covariance_is_counted_not_raised(tmp_path):
    sweep = workloads.StateSweep(ROOT, 1, tmp_path)
    rec = workloads.Recorder()
    bad = CovarianceMatrix4(np.diag([0.5, 0.5, 1.0, 1.0]))
    sweep.run_state(rec, "injected", bad)
    sweep.run_state(rec, "good", sweep.states[0][1])
    assert rec.attempted == 2
    assert len(rec.failures) == 1 and "UnphysicalCovarianceError" in rec.failures[0]
    assert rec.unexpected == rec.failures


def test_low_flux_defect_is_counted_as_known(tmp_path):
    sweep = workloads.StateSweep(ROOT, 1, tmp_path)
    rec = workloads.Recorder()
    sweep.run_round(rec)
    ladder = [f for f in rec.failures if f.startswith("ladder")]
    assert ladder and all("ImpossibleOutcomeError" in f for f in ladder)
    assert rec.unexpected == []
    assert rec.values["lowflux_origin_err"] < sweep.lowflux_sanity


@pytest.mark.parametrize("exc", [ImpossibleOutcomeError("injected"), TypeError("injected")])
def test_failed_objective_call_is_counted_and_passed_to_the_program(
    tmp_path, monkeypatch, capsys, exc
):
    scan = workloads.AlphaScan(ROOT, 1, tmp_path)
    real = cwherald.pipeline.condition_state
    calls = []

    def flaky(cfg, v):
        calls.append(1)
        if len(calls) == 3:
            raise exc
        return real(cfg, v)

    monkeypatch.setattr(cwherald.pipeline, "condition_state", flaky)
    rec = workloads.Recorder()
    scan.run_round(rec)
    assert rec.attempted == 3
    assert len(rec.failures) == 1 and f"{type(exc).__name__}: at alpha" in rec.failures[0]
    assert rec.unexpected == rec.failures
    assert rec.credited == scan.calls_per_scan and len(rec.scan_s) == 1
    # the program's own error path saw the exception it handles
    handled = "error [scan-alpha]: at alpha" in capsys.readouterr().err
    assert handled == isinstance(exc, ImpossibleOutcomeError)


def test_speed_scale_uses_the_reference_samples_around_each_operation():
    import speed

    ref = speed.Speed()
    ref.samples = [speed.REFERENCE_S, 2 * speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert ref.scale_at(0) == pytest.approx(1 / 1.5)
    assert ref.scale_at(2) == pytest.approx(1 / 3)
    rec = workloads.Recorder(speed=speed.Speed())
    for _ in range(3):
        rec.op("noop", lambda: None)
    assert rec.speed_at[0] == 0 and len(rec.speed_at) == rec.attempted == 3
    assert rec.reference_spent() > 0
