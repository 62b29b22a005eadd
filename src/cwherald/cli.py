"""Command-line surface: run the pipeline or its stages from a config file.

Subcommands map to pipeline stages and compose through files: covariance
writes the two-mode covariance, condition turns a covariance into a
conditioned state, metrics turns a state into the summary document, and
run chains them in-process.  All data files are deterministic: floats are
formatted at 9 significant digits and nothing carries a timestamp.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .coherence import (
    conditional_coherence,
    dominant_mode,
    write_coherence_csv,
    write_mode_csv,
)
from .config import ExperimentConfig, parse_config, parse_grid
from .covariance import load_covariance, physicality_check, save_covariance
from .errors import (
    ConfigError,
    ImpossibleOutcomeError,
    ThresholdError,
    UnphysicalCovarianceError,
)
from .pipeline import (
    build_covariance,
    build_kernel,
    condition_state,
    load_state,
    run_experiment,
    save_state,
    scan_alpha,
    summarize,
)
from .text import fmt9, write_columns
from .wigner import write_grid_csv

PHYSICS_ERRORS = (
    ThresholdError,
    UnphysicalCovarianceError,
    ImpossibleOutcomeError,
)


def write_summary(path, cfg: ExperimentConfig, values: dict) -> None:
    lines = [f"{key} = {fmt9(val)}" for key, val in values.items()]
    lines.extend(cfg.echo_lines())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment description file")
    p.add_argument("--out", default=".", help="output directory (created if missing)")
    p.add_argument("--grid", default=None, help='grid override "xmin,xmax,pmin,pmax,nx,np"')
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwherald",
        description="Conditioned output states of a cw Gaussian source "
        "after photodetection on a trigger mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "full pipeline: covariance, conditioning, metrics, Wigner grid"),
        ("covariance", "source and mode stage only; writes covariance.txt"),
        ("condition", "apply the measurement to a covariance file; writes state.json"),
        ("metrics", "summarise a state file; writes summary.txt"),
        ("coherence", "conditioned coherence kernel and its dominant mode"),
        ("scan-alpha", "scan the output decay rate against the objective"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "condition":
            p.add_argument(
                "--covariance",
                default=None,
                help="input covariance file (default: <out>/covariance.txt)",
            )
        if name == "metrics":
            p.add_argument(
                "--state",
                default=None,
                help="input state file (default: <out>/state.json)",
            )
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    if args.grid is not None:
        cfg = replace(cfg, outputs=replace(cfg.outputs, grid=parse_grid(args.grid)))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    stage = args.command

    def say(msg):
        if not args.quiet:
            print(msg)

    def path(name: str) -> Path:
        # --out is made at a stage's first write, so a stage that fails first leaves none
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / name

    try:
        cfg = _load_config(args)

        if stage == "run":
            # everything is computed before the first write, so a failed run writes no file
            result = run_experiment(cfg)
            coherence = _coherence(cfg) if cfg.outputs.coherence else None
            scan_result = scan_alpha(cfg) if cfg.scan is not None else None
            write_summary(path("summary.txt"), cfg, result.summary)
            xs, ps, w = result.grid
            write_grid_csv(path("wigner_grid.csv"), xs, ps, w)
            if coherence is not None:
                _write_coherence(path, *coherence)
            if scan_result is not None:
                _write_scan(cfg, path, scan_result)
            say(f"wrote {out_dir / 'summary.txt'} and {out_dir / 'wigner_grid.csv'}")
            for key, val in result.summary.items():
                say(f"  {key} = {fmt9(val)}")

        elif stage == "covariance":
            v = build_covariance(cfg)
            report = physicality_check(v)
            if not report.physical:
                raise UnphysicalCovarianceError(
                    "covariance is unphysical: min eigenvalue of "
                    f"V + i*Omega = {report.min_eigenvalue:g}"
                )
            save_covariance(path("covariance.txt"), v)
            say(f"wrote {out_dir / 'covariance.txt'} (purity {report.purity:.6g})")

        elif stage == "condition":
            v = load_covariance(args.covariance or out_dir / "covariance.txt")
            result = condition_state(cfg, v)
            save_state(path("state.json"), result)
            say(
                f"wrote {out_dir / 'state.json'} "
                f"(probability {fmt9(result.probability)})"
            )

        elif stage == "metrics":
            values = summarize(cfg, load_state(args.state or out_dir / "state.json"))
            write_summary(path("summary.txt"), cfg, values)
            say(f"wrote {out_dir / 'summary.txt'}")
            for key, val in values.items():
                say(f"  {key} = {fmt9(val)}")

        elif stage == "coherence":
            _write_coherence(path, *_coherence(cfg))
            say(f"wrote {out_dir / 'coherence.csv'} and {out_dir / 'dominant_mode.csv'}")

        elif stage == "scan-alpha":
            scan_result = scan_alpha(cfg)
            _write_scan(cfg, path, scan_result)
            say(
                f"best alpha = {fmt9(scan_result.best_param)} "
                f"with {cfg.scan.objective} = {fmt9(scan_result.best_value)}"
            )

    except ConfigError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    except PHYSICS_ERRORS as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 1
    return 0


def _coherence(cfg: ExperimentConfig):
    """The coherence kernel of ``cfg`` and its dominant mode."""
    ck = conditional_coherence(
        build_kernel(cfg),
        t_c=cfg.trigger.window_center,
        half_width=cfg.outputs.coherence_halfwidth,
        points=cfg.outputs.coherence_points,
    )
    return ck, dominant_mode(ck)


def _write_coherence(path, ck, mode) -> None:
    """Write coherence.csv and dominant_mode.csv to ``path(name)``."""
    write_coherence_csv(path("coherence.csv"), ck)
    write_mode_csv(path("dominant_mode.csv"), mode)


def _write_scan(cfg: ExperimentConfig, path, scan_result) -> None:
    """Write scan.csv and scan_best.txt of ``scan_result`` to ``path(name)``."""
    write_columns(path("scan.csv"), b"alpha,objective\n", scan_result.params, scan_result.values)
    with open(path("scan_best.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"objective = {cfg.scan.objective}\n")
        fh.write(f"best_alpha = {fmt9(scan_result.best_param)}\n")
        fh.write(f"best_objective = {fmt9(scan_result.best_value)}\n")


if __name__ == "__main__":
    raise SystemExit(main())
