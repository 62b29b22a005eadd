"""End-to-end pipeline: source -> modes -> covariance -> conditioning -> metrics.

This module turns an :class:`~cwherald.config.ExperimentConfig` into the
conditioned state and its summary numbers, and exposes the decay-rate scan
of the output envelope.  The command-line layer only adds file I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conditioning import (
    ConditionResult,
    condition_on_click,
    condition_on_number,
    condition_on_on,
    vacuum_projection,
)
from .config import ExperimentConfig, ScanConfig
from .covariance import (
    CovarianceMatrix4,
    apply_loss,
    assemble,
    load_covariance,
)
from .metrics import fock_fidelity, purity, wigner_at_origin
from .modes import (
    ModeFunction,
    OutputModeSpec,
    build_output_mode,
    build_trigger_mode,
    load_envelope_table,
    second_moments,
)
from .scan import ScanResult, scan_and_refine
from .sources import CorrelationKernel, OpoParams, opo_kernel, tmsv_covariance
from .wigner import GaussPolyState, PolyGaussTerm, evaluate_grid


def build_kernel(cfg: ExperimentConfig) -> CorrelationKernel:
    if cfg.source.kind != "opo":
        raise ValueError("only the opo source has a correlation kernel")
    params = OpoParams(
        gamma1=cfg.source.gamma1,
        gamma2=cfg.source.gamma2,
        epsilon=cfg.source.epsilon,
    )
    return opo_kernel(params)


def build_modes(
    cfg: ExperimentConfig, alpha_override: float | None = None
) -> tuple[ModeFunction, ModeFunction, CorrelationKernel]:
    """Trigger and output mode functions plus the source kernel."""
    kernel = build_kernel(cfg)
    o = cfg.output
    alpha = alpha_override if alpha_override is not None else o.alpha
    reflect = float(np.sqrt(1.0 - cfg.trigger.tap_amplitude**2))
    if o.envelope == "exponential":
        out_spec = OutputModeSpec(
            envelope="exponential", alpha=alpha, center=o.center, reflect_amplitude=reflect
        )
    else:
        ts, us = load_envelope_table(o.table)
        out_spec = OutputModeSpec(
            envelope="tabulated",
            alpha=None,
            center=o.center,
            reflect_amplitude=reflect,
            table=(ts, us),
        )
    f1 = build_trigger_mode(cfg.trigger, source_fast_rate=kernel.fast_rate)
    f2 = build_output_mode(out_spec)
    return f1, f2, kernel


def build_covariance(
    cfg: ExperimentConfig, alpha_override: float | None = None
) -> CovarianceMatrix4:
    """Two-mode covariance for the configured source, losses applied."""
    if cfg.source.kind == "opo":
        f1, f2, kernel = build_modes(cfg, alpha_override=alpha_override)
        v = assemble(second_moments(f1, f2, kernel))
    elif cfg.source.kind == "tmsv":
        v = tmsv_covariance(cfg.source.r)
    else:
        v = load_covariance(cfg.source.covariance)
    if (cfg.losses.eta1, cfg.losses.eta2, cfg.losses.xi1, cfg.losses.xi2) != (
        0.0,
        0.0,
        0.0,
        0.0,
    ):
        v = apply_loss(v, cfg.losses)
    return v


def condition_state(cfg: ExperimentConfig, v: CovarianceMatrix4) -> ConditionResult:
    kind = cfg.measurement.kind
    if kind == "number":
        return condition_on_number(v, cfg.measurement.n)
    if kind == "on":
        return condition_on_on(v)
    if kind == "click":
        return condition_on_click(v)
    if kind == "vacuum":
        return vacuum_projection(v)
    raise ValueError(f"unknown measurement kind {kind!r}")


def summarize(cfg: ExperimentConfig, result: ConditionResult) -> dict[str, float]:
    """Requested scalar metrics of the conditioned state, fixed key order."""
    values = {}
    wanted = cfg.outputs.metrics
    if "probability" in wanted:
        values["probability"] = result.probability
    if "wigner_origin" in wanted:
        values["wigner_origin"] = wigner_at_origin(result.state)
    for n in (0, 1, 2):
        key = f"fidelity_fock{n}"
        if key in wanted:
            values[key] = fock_fidelity(result.state, n)
    if "purity" in wanted:
        values["purity"] = purity(result.state)
    return values


@dataclass(frozen=True)
class RunResult:
    covariance: CovarianceMatrix4
    condition: ConditionResult
    summary: dict[str, float]
    grid: tuple[np.ndarray, np.ndarray, np.ndarray]


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Full pipeline: covariance, conditioning, metrics, Wigner grid."""
    v = build_covariance(cfg)
    result = condition_state(cfg, v)
    summary = summarize(cfg, result)
    grid = evaluate_grid(result.state, cfg.outputs.grid)
    return RunResult(covariance=v, condition=result, summary=summary, grid=grid)


def scan_alpha(
    cfg: ExperimentConfig, scan_cfg: ScanConfig | None = None
) -> tuple[ScanResult, str]:
    """Scan the output-mode decay rate against the configured objective.

    Returns the scan result (table in raw objective values, optimum
    refined by golden section to |delta alpha| <= 1e-3) and the objective
    name.  The origin value is minimised, the Fock-1 fidelity maximised.
    """
    sc = scan_cfg or cfg.scan
    if sc is None:
        raise ValueError("no [scan] parameters configured")
    if cfg.source.kind != "opo":
        raise ValueError("the alpha scan applies to the opo source pipeline")
    if cfg.output.envelope != "exponential":
        raise ValueError("the alpha scan varies an exponential output envelope")
    sign = 1.0 if sc.objective == "origin_value" else -1.0

    def objective(alpha: float) -> float:
        try:
            v = build_covariance(cfg, alpha_override=alpha)
            result = condition_state(cfg, v)
            if sc.objective == "origin_value":
                return wigner_at_origin(result.state)
            return fock_fidelity(result.state, 1)
        except Exception as exc:
            head = str(exc.args[0]) if exc.args else ""
            exc.args = (f"at alpha = {alpha:g}: {head}",) + exc.args[1:]
            raise

    result = scan_and_refine(
        lambda a: sign * objective(a), sc.alpha_min, sc.alpha_max, sc.samples
    )
    # report raw objective values regardless of optimisation direction
    return (
        ScanResult(
            params=result.params,
            values=sign * result.values,
            best_param=result.best_param,
            best_value=sign * result.best_value,
        ),
        sc.objective,
    )


def save_state(path, result: ConditionResult) -> None:
    """Serialise a conditioned state (terms plus probability) as JSON."""
    doc = {
        "probability": result.probability,
        "terms": [
            {"coeffs": t.coeffs.tolist(), "sigma": t.sigma.tolist()}
            for t in result.state.terms
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_state(path) -> ConditionResult:
    """Read a conditioned state written by :func:`save_state`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = tuple(
        PolyGaussTerm(
            coeffs=np.array(t["coeffs"], dtype=float),
            sigma=np.array(t["sigma"], dtype=float),
        )
        for t in doc["terms"]
    )
    return ConditionResult(
        state=GaussPolyState(terms=terms), probability=float(doc["probability"])
    )
