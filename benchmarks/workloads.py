"""The four benchmark workloads: inputs, operations and output checks.

Every workload runs in one process as a closed loop: one operation at a
time, the next only after the previous returns, no threads on the
benchmark side.  An operation's output is checked after its timed
interval ends.  An operation that raises or fails its check counts as
failed and the run goes on.

Operations are issued in rounds, a fixed mix of operations (all fixtures,
one full scan, all generated configurations, one sweep cycle), so that the
statistics of a run do not depend on where the time limit cut it.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import oracles
from tracer import patch_everywhere, restore

PACKAGE = "cwherald"
FIXTURE_TOL = 0.005  # tolerance of the acceptance suite
MOMENT_RTOL = 1e-8  # quadrature tolerance the moments are refined to
WIGNER_BOUND = 1.0 / math.pi
# Window and stencil of the click_wigner_direct reference.  Its default
# window, 7 standard deviations of the wider trigger quadrature, truncates
# the integrand of some seeded covariances (a residual of 2.0e-7 against the
# 1e-7 tolerance, the same at any order); at 10 standard deviations and 240
# points it agrees with the reduced form to 1e-14 on 300 random covariances.
CLICK_HALF_WIDTH = 10.0
CLICK_ORDER = 240


class Recorder:
    """Times operations, counts failures and drives the tracer if there is one."""

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed  # machine-speed reference, sampled between operations
        self.speed_at: list[int] = []  # latest reference sample before each operation
        self.times: list[float] = []
        self.labels: list[str] = []
        self.busy = 0.0  # seconds of the timed phase
        self.failures: list[str] = []  # one entry per failed operation
        self.unexpected: list[str] = []  # failures not on the known-defect list
        self.values: dict[str, float] = {}  # accuracy figures, worst case kept
        self.scan_s: list[float] = []  # wall time of each whole scan
        # Operations that ops_per_s counts, if not the operations attempted:
        # a workload whose operation count is the program's choice credits
        # a fixed number per unit of work instead.
        self.credited: int | None = None
        self.nested = False  # operations run inside a timed call of the workload
        self._depth = 0
        self._op_failed = False

    @property
    def attempted(self) -> int:
        return len(self.times)

    @contextmanager
    def traced(self):
        """Activate the tracer, if any, for the enclosed program calls."""
        if self.tracer is not None and self._depth == 0:
            self.tracer.active = True
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self.tracer is not None and self._depth == 0:
                self.tracer.active = False

    def op(self, label, fn, *args, known_defect=None, span=None, reraise=False):
        """Run one timed operation; return its result, or None if it raised.

        ``known_defect`` names an exception type that this operation is
        documented to raise today; it still counts as failed.  With
        ``reraise`` the exception is recorded and then passed on, for an
        operation called from inside the program, whose own error handling
        must see it.
        """
        self._op_failed = False
        if self.tracer is not None:
            self.tracer.op = len(self.times)
            if span is not None:
                fn = self.tracer.span(span, fn)
        if self.speed is not None:
            self.speed_at.append(self.speed.before_op())
        self.labels.append(label)
        with self.traced():
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # a failed operation is counted, never raised
                dt = time.perf_counter() - t0
                self._add_time(dt)
                expected = known_defect is not None and isinstance(exc, known_defect)
                self.fail(label, f"{type(exc).__name__}: {exc}", expected=expected)
                if reraise:
                    raise
                return None
            dt = time.perf_counter() - t0
        self._add_time(dt)
        return result

    def _add_time(self, dt):
        self.times.append(dt)
        if not self.nested:
            self.busy += dt

    def reference_spent(self) -> float:
        """Wall time spent so far in the machine-speed reference kernel."""
        return self.speed.spent if self.speed is not None else 0.0

    def fail(self, label, reason, expected=False):
        """Mark the latest operation failed (once) with a reason."""
        if self._op_failed:
            return
        self._op_failed = True
        msg = f"{label}: {reason}"
        self.failures.append(msg)
        if not expected:
            self.unexpected.append(msg)

    def check(self, label, problems):
        if problems:
            self.fail(label, "; ".join(problems))

    def worst(self, key, value):
        self.values[key] = max(self.values.get(key, 0.0), float(value))


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_summary(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition(" = ")
        try:
            out[key] = float(val)
        except ValueError:  # configuration echo and names
            pass
    return out


class Workload:
    """Inputs are made in ``__init__`` (part of set-up); ``run_round`` issues one round."""

    name = ""
    trace_rounds = 1  # fixed amount of work measured by the traced run

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def out_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))

    def run_round(self, rec: Recorder) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


PUBLISHED = {
    "figure3_upper": {"fidelity_fock1": 0.9882, "wigner_origin": -0.3116},
    "figure3_lower": {"fidelity_fock1": 0.7414, "wigner_origin": -0.154},
    "figure4_upper": {"wigner_origin": -0.2499},
    "figure4_lower": {"wigner_origin": -0.0889},
}
PUBLISHED_SCAN_VALUE = -0.2618
PUBLISHED_SCAN_ALPHA = 0.337  # not reproduced (0.3672): the documented expected failure


class Fixtures(Workload):
    """The shipped reference configurations through ``cwherald run``.

    One operation runs all four fixtures, one ``cwherald run`` each: the
    two figure-4 fixtures cost nearly twice the two figure-3 ones, so the
    median of single runs would fall in the gap between the two groups
    and jump from run to run.
    """

    name = "fixtures"
    trace_rounds = 3

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        src = root / "src" / PACKAGE / "fixtures"
        self.configs = []
        for stem in PUBLISHED:
            dst = self.inputs / f"{stem}.cfg"
            dst.write_bytes((src / f"{stem}.cfg").read_bytes())
            self.configs.append((stem, dst))
        self.first: dict[str, tuple[str, str]] = {}

    def run_round(self, rec):
        import cwherald.cli as cli

        outs = [(stem, cfg, self.out_dir()) for stem, cfg in self.configs]

        def op():
            return [cli.main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
                    for _, cfg, out in outs]

        codes = rec.op("fixtures", op)
        if codes is not None:
            problems = []
            for (stem, _, out), code in zip(outs, codes):
                problems += [f"{stem}: {p}" for p in self.check(stem, code, out, rec)]
            rec.check("fixtures", problems)
        for _, _, out in outs:
            shutil.rmtree(out)

    def check(self, stem, code, out, rec):
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        summary = _read_summary(out / "summary.txt")
        for key, want in PUBLISHED[stem].items():
            dev = abs(summary[key] - want)
            rec.worst("ref_dev_max", dev)
            if dev > FIXTURE_TOL:
                problems.append(f"{key} = {summary[key]:.6f}, published {want}")
        digests = (_digest(out / "summary.txt"), _digest(out / "wigner_grid.csv"))
        if self.first.setdefault(stem, digests) != digests:
            problems.append("summary.txt or wigner_grid.csv differs from the first repeat")
        return problems


class AlphaScan(Workload):
    """``cwherald scan-alpha`` on the scan fixture; one operation per objective call.

    Throughput credits ``calls_per_scan`` operations per whole scan, the
    number the program makes today, whatever number it makes: ``ops_per_s``
    then stays proportional to one over the scan time, so a change that
    needs fewer objective calls shows as a gain, not a loss.
    """

    name = "alpha_scan"
    calls_per_scan = 58  # 50 samples, golden-section refinement to 1e-3

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        src = root / "src" / PACKAGE / "fixtures" / "figure4_scan.cfg"
        self.cfg = self.inputs / "figure4_scan.cfg"
        self.cfg.write_bytes(src.read_bytes())

    def run_round(self, rec):
        import cwherald.cli as cli

        scan_mod = sys.modules[f"{PACKAGE}.scan"]
        inner = scan_mod.scan_and_refine

        def timed_scan(f, *args, **kwargs):
            # a failed objective call is counted, then raised on to the program
            return inner(
                lambda x: rec.op("objective", f, x, span="scan.objective", reraise=True),
                *args, **kwargs,
            )

        undo = patch_everywhere(PACKAGE, "scan", "scan_and_refine", timed_scan)
        out = self.out_dir()
        argv = ["scan-alpha", "--config", str(self.cfg), "--out", str(out), "--quiet"]
        rec.nested = True
        try:
            with rec.traced():
                spent = rec.reference_spent()
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # one the program does not handle
                    code = f"{type(exc).__name__}: {exc}"
                # the reference kernel runs between objective calls
                wall = time.perf_counter() - t0 - (rec.reference_spent() - spent)
        finally:
            rec.nested = False
            restore(undo)
        rec.busy += wall
        rec.scan_s.append(wall)
        rec.credited = (rec.credited or 0) + self.calls_per_scan
        rec.check("scan", self.check(code, out, rec))
        shutil.rmtree(out)

    def check(self, code, out, rec):
        if code != 0:
            return [f"exit code {code}" if isinstance(code, int) else f"raised {code}"]
        best = _read_summary(out / "scan_best.txt")
        table = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1)
        dev = abs(best["best_objective"] - PUBLISHED_SCAN_VALUE)
        rec.worst("ref_dev_max", dev)
        rec.values["scan_best_alpha"] = best["best_alpha"]
        problems = []
        if dev > FIXTURE_TOL:
            problems.append(f"optimum value {best['best_objective']}, published {PUBLISHED_SCAN_VALUE}")
        if table.shape != (50, 2):
            problems.append(f"scan table has shape {table.shape}, expected (50, 2)")
        elif best["best_objective"] > table[:, 1].min() + 1e-8:
            problems.append("refined optimum is worse than the best scanned sample")
        return problems


class FilteredTrigger(Workload):
    """Seeded configurations with the single-pole trigger filter, through ``cwherald run``.

    Twelve configurations per seed.  The filter rate is drawn from the
    middle half of one of twelve equal strata of [1, 8], one stratum per
    configuration, so every seed has the same spread of costs.  The
    squeezing rate epsilon takes twelve evenly spaced values from the
    paper's strong pump, 0.2, down to its weak pump, 0.01, and the output
    decay rate alpha twelve from 0.25 up to the fixtures' 0.5, the range of
    the shipped scan.  The quadrature cost grows with the filter rate and
    epsilon and falls with alpha, so epsilon falls and alpha rises as the
    filter rate rises: that keeps every operation within about 1.3-2.1 s on
    a 2-vCPU Xeon (a random pairing reached 3.8 s).  Parameters that do not
    change the cost (tap, detector efficiency, output loss, centre,
    measurement kind) are drawn freely.  Five of the twelve use a window
    wide enough for the explicit-window branch, the rest the collapsed one.
    """

    name = "filtered_trigger"
    count = 12
    explicit = {3, 5, 7, 9, 11}
    kinds = ("click", "on", "number 1", "number 0", "vacuum", "number 2")

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        rng = np.random.default_rng([seed, 3])
        kinds = [self.kinds[i % len(self.kinds)] for i in rng.permutation(self.count)]
        self.configs = []

        def stratum(lo, hi, j):
            return lo + (hi - lo) * (j + rng.uniform(0.25, 0.75)) / self.count

        def evenly(lo, hi, j):
            return lo + (hi - lo) * j / (self.count - 1)

        for k in range(self.count):
            p = {
                "gamma": stratum(1.0, 8.0, k),
                "width": 0.04 if k in self.explicit else 0.01,
                "epsilon": evenly(0.01, 0.2, self.count - 1 - k),
                "alpha": evenly(0.25, 0.5, k),
                "tap": rng.uniform(0.05, 0.3),
                "efficiency": rng.uniform(0.7, 1.0),
                "eta2": rng.uniform(0.0, 0.3),
                "center": rng.uniform(-1.0, 1.0),
                "kind": kinds[k],
            }
            # the program's rule for collapsing the window onto its centre
            p["collapsed"] = p["width"] * max(p["gamma"], 0.5 + p["epsilon"]) <= 0.1
            path = self.inputs / f"filtered_{k:02d}.cfg"
            _write(path, self.config_text(p))
            self.configs.append((f"filtered_{k:02d}", path, p))
        self.moments_checked: set[str] = set()

    @staticmethod
    def config_text(p) -> str:
        f = {key: f"{val:.17g}" for key, val in p.items() if isinstance(val, float)}
        kind, _, n = p["kind"].partition(" ")
        measurement = f"kind = {kind}\n" + (f"n = {n}\n" if n else "")
        return (
            "[source]\nkind = opo\ngamma1 = 1.0\ngamma2 = 0.0\n"
            f"epsilon = {f['epsilon']}\n\n"
            f"[trigger]\ntap_amplitude = {f['tap']}\nfilter_width = {f['gamma']}\n"
            f"window_center = {f['center']}\nwindow_width = {f['width']}\n"
            f"detector_efficiency = {f['efficiency']}\n\n"
            f"[output]\nenvelope = exponential\nalpha = {f['alpha']}\n"
            f"center = {f['center']}\n\n"
            f"[losses]\neta1 = 0.0\nxi1 = 0.0\neta2 = {f['eta2']}\nxi2 = 0.0\n\n"
            f"[measurement]\n{measurement}\n"
            "[outputs]\ngrid = -4,4,-4,4,101,101\ncoherence = true\n"
        )

    def run_round(self, rec):
        import cwherald.cli as cli

        for label, cfg, p in self.configs:
            out = self.out_dir()
            argv = ["run", "--config", str(cfg), "--out", str(out), "--quiet"]
            code = rec.op(label, cli.main, argv)
            if code is not None:
                rec.check(label, self.check(label, cfg, p, code, out, rec))
            shutil.rmtree(out)

    def check(self, label, cfg_path, p, code, out, rec):
        from cwherald.coherence import DominantMode, fit_exponential_decay

        if code != 0:
            return [f"exit code {code}"]
        # The heralded mode written by the run must decay.  The fit is not
        # part of ``cwherald run``, so it is made here, untimed, but traced.
        try:
            data = np.loadtxt(out / "dominant_mode.csv", delimiter=",", skiprows=1)
            mode = DominantMode(times=data[:, 0], samples=data[:, 1], dominance=float("nan"))
            with rec.traced():
                decay = fit_exponential_decay(mode, p["center"])
        except Exception as exc:  # a failed check is counted, never raised
            return [f"decay fit of dominant_mode.csv raised {type(exc).__name__}: {exc}"]
        problems = []
        summary = _read_summary(out / "summary.txt")
        ranges = {
            "probability": (0.0, 1.0),
            "wigner_origin": (-WIGNER_BOUND, WIGNER_BOUND),
            "fidelity_fock0": (0.0, 1.0),
            "fidelity_fock1": (0.0, 1.0),
            "fidelity_fock2": (0.0, 1.0),
            "purity": (0.0, 1.0),
        }
        for key, (lo, hi) in ranges.items():
            val = summary.get(key, float("nan"))
            if not (lo - 1e-9 <= val <= hi + 1e-9):
                problems.append(f"{key} = {val} outside [{lo}, {hi}]")
        lines = (out / "wigner_grid.csv").read_bytes().count(b"\n")
        if lines != 101 * 101 + 1:
            problems.append(f"wigner_grid.csv has {lines} lines")
        if not (out / "coherence.csv").stat().st_size:
            problems.append("coherence.csv is empty")
        if not (math.isfinite(decay) and decay > 0.0):
            problems.append(f"fitted decay of the heralded mode is {decay}")
        if p["collapsed"]:
            problems += self.check_oracle(label, cfg_path, p, rec)
        return problems

    def check_oracle(self, label, cfg_path, p, rec):
        """Moments of a collapsed-branch configuration against the closed form."""
        if label in self.moments_checked:  # the moments of a configuration never change
            return []
        self.moments_checked.add(label)
        from cwherald.config import parse_config
        from cwherald.modes import second_moments
        from cwherald.pipeline import build_modes

        tau = p["tap"] * math.sqrt(p["efficiency"])
        want_a, want_b = oracles.collapsed_filter_moments(
            p["epsilon"], p["gamma"], p["alpha"],
            c1=tau * math.sqrt(p["width"]) * p["gamma"],
            c2=math.sqrt(1.0 - p["tap"] ** 2),
        )
        got = second_moments(*build_modes(parse_config(cfg_path)))
        err = max(
            float(np.max(np.abs(got.a - want_a) / np.abs(want_a))),
            float(np.max(np.abs(got.b - want_b) / np.abs(want_b))),
        )
        rec.worst("moment_rel_err_max", err)
        if not err <= MOMENT_RTOL:
            return [f"moments deviate from the closed form by {err:.2e}"]
        return []


class StateSweep(Workload):
    """Conditioning, metrics and grids on seeded covariances and the low-flux ladder.

    A round has 16 operations, one per random physical covariance, each
    conditioning it six ways (photon number 0, 1, 2, on, click, vacuum)
    with ``summarize``, ``negativity_volume`` and ``evaluate_grid`` after
    each; then five operations that run the click detector down the
    weak-trigger ladder of the first fixture, whose moments are built in
    closed form and scaled by ``SecondMoments.scaled_trigger(s)``.  One
    operation per covariance rather than per conditioning kind, because
    the kinds differ in cost by a factor of three and the median of such
    a mixture jumps between them.  The sources, modes and quadrature
    layers are not used.
    """

    name = "state_sweep"
    trace_rounds = 5
    covariances = 16
    ladder = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    # The program raises a false ImpossibleOutcomeError from s = 1e-5 down:
    # V = I + 2(A + B) rounds the trigger occupation to zero.
    ladder_defect_below = 1e-5
    lowflux_sanity = 1e-2  # measured error at s = 1e-4 is 5.4e-3
    kinds = ("number 0", "number 1", "number 2", "on", "click", "vacuum")

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        from cwherald.config import parse_config
        from cwherald.covariance import load_covariance

        rng = np.random.default_rng([seed, 4])
        self.states = []
        for i in range(self.covariances):
            path = self.inputs / f"cov_{i:02d}.txt"
            m = oracles.random_physical_covariance(rng)
            _write(path, "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in m))
            self.states.append((f"cov_{i:02d}", load_covariance(path)))
        a, b = oracles.window_moments(eps=0.01, tap=0.1, width=0.02, alpha=0.5)
        ladder = self.inputs / "ladder_moments.txt"
        _write(ladder, "".join(f"{x:.17g}\n" for x in [*a.ravel(), *b.ravel()]))
        flat = np.loadtxt(ladder)
        self.ladder_a, self.ladder_b = flat[:4].reshape(2, 2), flat[4:].reshape(2, 2)
        cfg = self.inputs / "sweep.cfg"
        _write(
            cfg,
            "[source]\nkind = direct\ncovariance = cov_00.txt\n\n"
            "[measurement]\nkind = click\n\n"
            "[outputs]\ngrid = -5,5,-5,5,101,101\n",
        )
        self.cfg = parse_config(cfg)
        self.points = np.random.default_rng([seed, 5]).uniform(-2.5, 2.5, size=(3, 2))
        self.click_direct: dict[str, list[float]] = {}

    @staticmethod
    def conditioner(kind):
        from cwherald import conditioning as c

        name, _, n = kind.partition(" ")
        if name == "number":
            return lambda v: c.condition_on_number(v, int(n))
        return {"on": c.condition_on_on, "click": c.condition_on_click,
                "vacuum": c.vacuum_projection}[name]

    def measure(self, condition, v):
        """One conditioning followed by the metrics and the grid."""
        from cwherald.metrics import negativity_volume
        from cwherald.pipeline import summarize
        from cwherald.wigner import evaluate_grid

        grid = self.cfg.outputs.grid
        result = condition(v)
        summary = summarize(self.cfg, result)
        neg = negativity_volume(result.state, grid)
        return result, summary, neg, evaluate_grid(result.state, grid)

    def run_round(self, rec):
        from cwherald.covariance import assemble
        from cwherald.errors import ImpossibleOutcomeError
        from cwherald.modes import SecondMoments

        for label, v in self.states:
            self.run_state(rec, label, v)
        base = SecondMoments(a=self.ladder_a, b=self.ladder_b)
        w_ref = oracles.click_origin_value(self.ladder_a, self.ladder_b)
        click = self.conditioner("click")
        for s in self.ladder:
            label = f"ladder s={s:g}"
            defect = ImpossibleOutcomeError if s <= self.ladder_defect_below else None
            moments = base.scaled_trigger(s)
            out = rec.op(label, lambda: self.measure(click, assemble(moments)),
                         known_defect=defect)
            if out is not None:
                err = abs(out[0].state.at_origin() - w_ref)
                rec.worst("lowflux_origin_err", err)
                problems = self.invariants(out, rec)
                if not err <= self.lowflux_sanity:
                    problems.append(f"W(0) off the scale-free value by {err:.2e}")
                rec.check(label, problems)

    def run_state(self, rec, label, v):
        """One operation: covariance ``v`` conditioned every way, then its checks."""
        conditioners = [(kind, self.conditioner(kind)) for kind in self.kinds]
        outs = rec.op(label, lambda: [self.measure(c, v) for _, c in conditioners])
        if outs is not None:
            problems = []
            for (kind, _), out in zip(conditioners, outs):
                problems += [f"{kind}: {p}" for p in self.invariants(out, rec, kind, v, label)]
            rec.check(label, problems)

    def click_reference(self, label, v):
        """Unnormalised click Wigner values of ``v`` at ``self.points`` by direct quadrature.

        Computed once per covariance: they depend on the input alone.
        """
        from cwherald.conditioning import click_wigner_direct

        if label not in self.click_direct:
            half = CLICK_HALF_WIDTH * math.sqrt(max(v.m[0, 0], v.m[1, 1]) / 2.0)
            self.click_direct[label] = [
                click_wigner_direct(v, x2, p2, half_width=half, order=CLICK_ORDER)
                for x2, p2 in self.points
            ]
        return self.click_direct[label]

    def invariants(self, out, rec, kind=None, v=None, label=None):
        """The exact invariants, each against its tolerance in the acceptance suite."""
        from cwherald.conditioning import condition_on_number
        from cwherald.wigner import TwoModeGaussianWigner, integrate_out_trigger

        result, summary, _neg, (_xs, _ps, w) = out
        errs = {
            "normalisation": (abs(result.state.total_integral() - 1.0), 1e-9),
            "magnitude": (max(0.0, float(np.max(np.abs(w))) - WIGNER_BOUND), 1e-9),
        }
        if kind == "on":
            xs = np.linspace(-4, 4, 21)
            res0 = condition_on_number(v, 0)
            marginal, _ = integrate_out_trigger(TwoModeGaussianWigner(v), np.array([[1.0]]))
            mix = res0.probability * res0.state.evaluate(xs[None, :], xs[:, None]) + (
                result.probability * result.state.evaluate(xs[None, :], xs[:, None])
            )
            marg = marginal.evaluate(xs[None, :], xs[:, None])
            errs["mixture"] = (float(np.max(np.abs(mix - marg))), 1e-10)
        elif kind == "click":
            got = result.state.evaluate(self.points[:, 0], self.points[:, 1])
            scale = max(float(np.max(np.abs(got))), 1e-12)
            worst = 0.0
            for g, ref in zip(got, self.click_reference(label, v)):
                direct = ref / result.probability
                worst = max(worst, abs(g - direct) / max(abs(direct), scale))
            errs["click_direct"] = (worst, 1e-7)
        problems = []
        for name, (err, tol) in errs.items():
            rec.worst("invariant_err_max", err)
            if not err <= tol:
                problems.append(f"{name} residual {err:.2e} > {tol:g}")
        return problems


WORKLOADS = {w.name: w for w in (Fixtures, AlphaScan, FilteredTrigger, StateSweep)}
