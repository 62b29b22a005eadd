"""Benchmark of the cwherald pipeline: one workload per run, or all of them.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmarks/run.py            # every workload, untraced and traced

Run from the repository root.  The program is imported from ``src/`` of
this checkout and nowhere else; without it the benchmark exits with an
error before measuring anything.

With ``--trace 0`` a run times whole operations with no tracing and
reports the end-to-end metrics named in ``BENCHMARK.json``; their times
are scaled to a reference machine speed (``speed.py``), and the unscaled
ones are printed beside them.  With ``--trace 1`` it makes the same
untraced measurement, then runs a fixed amount of work (the workload's
trace unit) with every public function of the program wrapped, and
reports the per-layer metrics, each a total over that unit, and the
tracing overhead (traced minus untraced median operation time, both
unscaled).  Both print readable lines first and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, each metric
given as ``{"value", "unit"}``.  Details, including every failure and the
span file of a traced run, go to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# Fresh interpreters per run, half before the timed phase and half after
# it, so that setup_s, their median, samples the machine's speed over the
# whole run as the operation metrics do.
SETUP_PROBES = 6
SETUP_KERNEL_SAMPLES = 5  # reference-kernel runs in each set-up interpreter
MIN_OPS = 11  # op_tail_s needs ten samples beyond it
MAX_MEASURE_S = 100.0  # keeps a run inside its time limit on a slow machine
TAIL_BEYOND = 10
OVERHEAD = "trace.overhead_s"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    """Import cwherald from this checkout's ``src/``; exit with an error if it is not there."""
    src = ROOT / "src"
    if not (src / "cwherald" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark at {src / 'cwherald'}")
    sys.path.insert(0, str(src))
    import cwherald

    if Path(cwherald.__file__).resolve().parent != (src / "cwherald").resolve():
        sys.exit(f"error: cwherald imported from {cwherald.__file__}, not from {src}")
    return cwherald


def tail(times):
    """Value at the highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, rec, seconds):
    """Issue whole rounds until the next would end past ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_round(rec)
        now = time.perf_counter()
        elapsed, last = now - start, now - t0
        if rec.attempted >= MIN_OPS and elapsed + last > seconds:
            return
        if elapsed > MAX_MEASURE_S:
            return


def setup_probes(args, count) -> list[tuple[float, float]]:
    """Fresh interpreters that import cwherald and make the inputs.

    Returns each one's wall time and the machine-speed scale for it.  The
    interpreter times the reference kernel itself once its set-up is done,
    because the kernel's time in this process does not follow its speed:
    the two may run on different cores.  Kernel time is left out of the
    wall time.
    """
    probes = []
    for _ in range(count):
        probe_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=RESULTS))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, timeout=60,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        kernel = json.loads(proc.stdout.strip().splitlines()[-1])
        probes.append((wall - kernel["spent_s"], speed.REFERENCE_S / kernel["median_s"]))
        shutil.rmtree(probe_dir)
    return probes


def end_to_end(rec, probes) -> dict[str, float]:
    """The gated metrics, each time scaled to the reference machine speed."""
    op_s = [t * rec.speed.scale_at(i) for t, i in zip(rec.times, rec.speed_at)]
    busy_scale = sum(op_s) / sum(rec.times)  # the operations' scale, weighted by time
    return {
        "setup_s": statistics.median(wall * scale for wall, scale in probes),
        "op_p50_s": statistics.median(op_s),
        "ops_per_s": (rec.credited or rec.attempted) / (rec.busy * busy_scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spec, tracer, traced, untraced) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced unit."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    ops = traced.attempted
    moments = calls.get("quadrature.correlation_moment", 0)
    passes = calls.get("quadrature.correlation_moment_once", 0)
    special = {
        "quadrature.passes_per_moment": passes / moments if moments else 0.0,
        "quadrature.useful_pass_ratio": moments / passes if passes else 0.0,
        "conditioning.impossible_outcomes": sum(
            v for k, v in counts.items()
            if k.startswith("conditioning.") and k.endswith(".raised.ImpossibleOutcomeError")
        ),
        OVERHEAD: statistics.median(traced.times) - statistics.median(untraced.times),
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            out[name] = special[name]
            continue
        span, _, quantity = name.rpartition(".")
        if quantity == "calls":
            out[name] = calls.get(span, 0)
        elif quantity == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif quantity == "calls_per_op":
            out[name] = calls.get(span, 0) / ops
        else:
            out[name] = counts.get(name, 0)
    return out


def run_one(args, spec) -> int:
    import workloads

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    import_program()
    RESULTS.mkdir(exist_ok=True)
    probes = setup_probes(args, SETUP_PROBES // 2) if args.trace == 0 else []
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        rec = workloads.Recorder(speed=speed.Speed())
        measure(workload, rec, args.seconds)
        rec.speed.sample()  # the sample after the last operation
        recs = [rec]
        if args.trace == 0:
            probes += setup_probes(args, SETUP_PROBES - len(probes))
            metrics = end_to_end(rec, probes)
        else:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            traced = workloads.Recorder(tracer)
            try:
                for _ in range(workload.trace_rounds):
                    workload.run_round(traced)
            finally:
                tracer.restore()
            recs.append(traced)
            metrics = per_layer(spec, tracer, traced, rec)
            tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failures = [f for r in recs for f in r.failures]
    unexpected = [f for r in recs for f in r.unexpected]
    values = dict(rec.values)  # accuracy of the untraced measurement
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "metrics": metrics,
        "accuracy": values, "failures": failures, "unexpected_failures": unexpected,
    }
    if args.trace == 0:
        op_tail, pct = tail(rec.times)
        report["raw"] = {"setup_s": statistics.median(wall for wall, _ in probes),
                         "op_p50_s": statistics.median(rec.times),
                         "ops_per_s": (rec.credited or rec.attempted) / rec.busy,
                         "reference_kernel_s": statistics.median(rec.speed.samples)}
        report["op_tail"] = {"seconds": op_tail, "percentile": pct,
                             "samples": len(rec.times), "beyond": TAIL_BEYOND}
        report["op_times"] = list(zip(rec.labels, rec.times))
        if rec.scan_s:
            report["scan_s"] = statistics.median(rec.scan_s)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {len(failures)} failed")
    for name, val in metrics.items():
        print(f"  {name} = {val:.6g} {units[name]}")
    if args.trace == 0:
        raw = report["raw"]
        print(f"  unscaled: setup_s {raw['setup_s']:.6g} s, op_p50_s {raw['op_p50_s']:.6g} s, "
              f"ops_per_s {raw['ops_per_s']:.6g} 1/s; reference kernel "
              f"{raw['reference_kernel_s']:.6g} s (scaled to {speed.REFERENCE_S} s)")
        t = report["op_tail"]
        print(f"  op_tail_s = {t['seconds']:.6g} s (p{t['percentile']:.1f} of {t['samples']} "
              f"ops, {TAIL_BEYOND} beyond)")
        print(f"  failed_frac = {report['failed_frac']:.6g} (of {attempted} ops)")
        if "scan_s" in report:
            print(f"  scan_s = {report['scan_s']:.6g} s (median of "
                  f"{len(rec.scan_s)} full scans)")
        for key, val in sorted(values.items()):
            if key == "scan_best_alpha":
                print(f"  scan optimum alpha = {val:.6g} (published "
                      f"{workloads.PUBLISHED_SCAN_ALPHA}: the documented expected failure)")
            else:
                print(f"  {key} = {val:.3g}")
    else:
        zero = [name for name in metrics if metrics[name] == 0 and name != OVERHEAD]
        if zero:
            print(f"  not reached on this workload: {', '.join(zero)}")
    for msg in failures[:5]:
        print(f"  failed: {msg}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": val, "unit": units[name]}
                                  for name, val in metrics.items()}}))
    return 0


def run_all(args, spec) -> int:
    """Every workload, untraced then traced; fails if a per-layer count is zero everywhere."""
    seconds = args.seconds or spec["run_seconds"]
    layer = {}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: workload {w['name']} trace {trace} exited {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            if trace:
                layer[w["name"]] = {k: v["value"] for k, v in result["metrics"].items()}
    never = [m["name"] for m in spec["per_layer"] if m["name"] != OVERHEAD
             and all(layer[w][m["name"]] == 0 for w in layer)]
    if never:
        print(f"error: per-layer metrics with zero calls on every workload: {', '.join(never)}")
        return 1
    if not ok:
        print("error: some workload reported incorrect output")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.workload is None:
        return run_all(args, spec)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        import_program()
        workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(args.workdir))
        t0 = time.perf_counter()
        kernel = [speed.kernel_s() for _ in range(SETUP_KERNEL_SAMPLES)]
        print(json.dumps({"median_s": statistics.median(kernel),
                          "spent_s": time.perf_counter() - t0}))
        return 0
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
