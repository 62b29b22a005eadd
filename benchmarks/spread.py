"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 benchmarks/spread.py --seeds 1-10                 # every workload
    python3 benchmarks/spread.py --seeds 1-5 --workloads filtered_trigger
    python3 benchmarks/spread.py --seeds 1-10 --baseline      # rewrite baseline.json

Each seed is one untraced run of ``run.py``.  For every end-to-end metric
the spread is the distance between the first and third quartiles of the
runs, as a share of their median.  A spread at or above the metric's bound
in ``BENCHMARK.json`` is marked UNSTEADY and makes the exit code 1; one
above a third of the bound, the margin aimed for, is marked as such.  The
spread of ``setup_s`` is printed and marked but does not set the exit
code: set-up time is judged by its median against the parent's alone,
since a few fresh interpreter starts cannot be made as steady as
seconds of operations.  With
``--baseline`` the medians, quartiles, failure shares and accuracy figures
are written to ``benchmarks/baseline.json`` with a description of the
machine and software they were measured on.  The spreads of the unscaled
times (see ``speed.py``) are printed and recorded beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
KNOWN_DEFECTS = [
    "state_sweep: the s = 1e-5 rung of the scaled_trigger ladder raises a false "
    "ImpossibleOutcomeError (V = I + 2(A + B) rounds the trigger occupation to zero); "
    "1 of 21 operations per round fails",
    "state_sweep: the click state's W(0) drifts from its scale-free value as the trigger "
    "is scaled down, to lowflux_origin_err = 5.4e-3 at s = 1e-4",
    "alpha_scan: the scan optimum sits at alpha = 0.3672, not at the published 0.337; "
    "its value matches",
]


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    import numpy
    import scipy

    cpu = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for line in out.splitlines():
            key, _, val = line.partition(":")
            if key in ("Model name", "CPU family", "Model", "L2 cache", "L3 cache"):
                cpu[key] = val.strip()
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name", platform.processor()),
        "cpu_family_model": f"{cpu.get('CPU family')}/{cpu.get('Model')}",
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "reference_kernel_s": speed.REFERENCE_S,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS")
        or f"unset: OpenBLAS default, one per CPU ({os.cpu_count()})",
    }


def run(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["accuracy"] = detail["accuracy"]
    result["scan_s"] = detail.get("scan_s")
    result["op_tail"] = detail["op_tail"]
    result["raw"] = detail["raw"]
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, steady = {}, True
    for name in names:
        runs = [run(name, seed, args.seconds) for seed in seeds]
        print(f"{name}: seeds {seeds[0]}-{seeds[-1]}, all correct: "
              f"{all(r['correct'] for r in runs)}")
        entry = {"metrics": {}, "runs": len(runs)}
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            entry["metrics"][metric] = s
            ok = s["spread"] < bound
            steady = steady and (ok or metric == "setup_s")
            mark = "" if s["spread"] < bound / 3 else "  above bound/3" if ok else "  UNSTEADY"
            print(f"  {metric:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}  (bound {bound}){mark}")
        entry["unscaled"] = {}
        for key in runs[0]["raw"]:
            s = summarise([r["raw"][key] for r in runs])
            entry["unscaled"][key] = s
            print(f"  unscaled {key}: median {s['median']:.6g}  spread {s['spread']:.3f}")
        entry["failed_frac"] = summarise([r["failed"] / r["attempted"] for r in runs])
        entry["correct"] = all(r["correct"] for r in runs)
        accuracy = {}
        for key in sorted({k for r in runs for k in r["accuracy"]}):
            vals = [r["accuracy"][key] for r in runs if key in r["accuracy"]]
            accuracy[key] = {"min": min(vals), "max": max(vals)}
            print(f"  {key}: {min(vals):.3g} .. {max(vals):.3g}")
        entry["accuracy"] = accuracy
        tails = [r["op_tail"] for r in runs]
        entry["op_tail_s"] = summarise([t["seconds"] for t in tails])
        entry["op_tail_s"]["percentile"] = statistics.median(t["percentile"] for t in tails)
        entry["op_tail_s"]["samples"] = statistics.median(t["samples"] for t in tails)
        print(f"  op_tail_s    median {entry['op_tail_s']['median']:.6g} at "
              f"p{entry['op_tail_s']['percentile']:.1f}  spread "
              f"{entry['op_tail_s']['spread']:.3f}  (not gated)")
        scans = [r["scan_s"] for r in runs if r["scan_s"]]
        if scans:
            entry["scan_s"] = summarise(scans)
            print(f"  scan_s median {entry['scan_s']['median']:.4g} s")
        print(f"  failed_frac median {entry['failed_frac']['median']:.4g}")
        report[name] = entry
    if args.baseline:
        doc = {
            "environment": environment(),
            "seeds": args.seeds,
            "run_seconds": args.seconds or spec["run_seconds"],
            "directions": {m["name"]: m["better"] for m in spec["end_to_end"]},
            "known_defects": KNOWN_DEFECTS,
            "why": {w["name"]: w["why"] for w in spec["workloads"]},
            "workloads": report,
        }
        (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
