"""End-to-end pipeline: source -> modes -> covariance -> conditioning -> metrics.

This module turns an :class:`~cwherald.config.ExperimentConfig` into the
conditioned state and its summary numbers, and exposes the decay-rate scan
of the output envelope.  The command-line layer only adds file I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .conditioning import (
    ConditionResult,
    condition_on_click,
    condition_on_number,
    condition_on_on,
    vacuum_projection,
)
from .config import ExperimentConfig
from .covariance import (
    CovarianceMatrix4,
    apply_loss,
    assemble,
    load_covariance,
)
from .metrics import SCALARS, fock_fidelity, wigner_at_origin
from .modes import (
    ModeFunction,
    build_output_mode,
    build_trigger_mode,
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


def build_modes(cfg: ExperimentConfig) -> tuple[ModeFunction, ModeFunction, CorrelationKernel]:
    """Trigger and output mode functions plus the source kernel of an opo config.

    The output mode is the configured envelope times the tap's reflection
    amplitude sqrt(1 - tap_amplitude^2).
    """
    kernel = build_kernel(cfg)
    reflect = float(np.sqrt(1.0 - cfg.trigger.tap_amplitude**2))
    f1 = build_trigger_mode(cfg.trigger, source_fast_rate=kernel.fast_rate)
    return f1, build_output_mode(cfg.output).scaled(reflect), kernel


def build_covariance(cfg: ExperimentConfig) -> CovarianceMatrix4:
    """Two-mode covariance for the configured source, losses applied."""
    if cfg.source.kind == "opo":
        f1, f2, kernel = build_modes(cfg)
        v = assemble(second_moments(f1, f2, kernel))
    elif cfg.source.kind == "tmsv":
        v = tmsv_covariance(cfg.source.r)
    else:
        v = load_covariance(cfg.source.covariance)
    return apply_loss(v, cfg.losses)


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
    return {key: value(result) for key, value in SCALARS.items() if key in cfg.outputs.metrics}


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


def scan_alpha(cfg: ExperimentConfig) -> ScanResult:
    """Scan the output-mode decay rate against ``cfg.scan.objective``.

    Returns the scan table in raw objective values and the optimum refined
    by :func:`~cwherald.scan.scan_and_refine`'s parabolic steps, one
    single-alpha call each, to about 1e-6 of the grid's bracket around the
    best sample.  The origin value is minimised, the Fock-1 fidelity
    maximised.  The whole grid is one stacked pass: its exponential
    envelopes form one family of output modes
    (:func:`~cwherald.modes.build_output_mode` with an array of alphas),
    and one moment pass, one assembly, one loss step, one
    conditioning and one metric give all its values, each equal to what
    :func:`run_experiment`'s steps give for that alpha alone.  A failure
    names the first failing alpha in grid order, with the error that alpha
    raises alone.  A parsed config with a [scan] section always has an opo
    source and an exponential envelope.
    """
    sc = cfg.scan
    if sc is None:
        raise ValueError("no [scan] parameters configured")
    sign = 1.0 if sc.objective == "origin_value" else -1.0

    def signed(alpha):
        """Signed objective at one alpha, or at each of a 1-d array of them, in one pass."""
        f1, f2, kernel = build_modes(replace(cfg, output=replace(cfg.output, alpha=alpha)))
        v = apply_loss(assemble(second_moments(f1, f2, kernel)), cfg.losses)
        state = condition_state(cfg, v).state
        if sc.objective == "origin_value":
            return sign * wigner_at_origin(state)
        return sign * fock_fidelity(state, 1)

    def objective(alpha):
        """Signed objective at one alpha, or at each of an array of them."""
        try:
            return signed(alpha) if np.ndim(alpha) else float(signed(alpha))
        except Exception as exc:
            at, exc = _first_failure(signed, np.atleast_1d(alpha), exc)
            head = str(exc.args[0]) if exc.args else ""
            exc.args = (f"at alpha = {at:g}: {head}",) + exc.args[1:]
            raise exc

    result = scan_and_refine(objective, sc.alpha_min, sc.alpha_max, sc.samples)
    # report raw objective values regardless of optimisation direction
    return ScanResult(
        params=result.params,
        values=sign * result.values,
        best_param=result.best_param,
        best_value=sign * result.best_value,
    )


def _first_failure(evaluate, params: np.ndarray, exc: Exception):
    """The first of ``params`` whose evaluation fails, and the error it raises alone.

    ``evaluate(params)`` raised ``exc``.  Members are evaluated
    independently, so a prefix of ``params`` fails exactly when one of its
    members does: bisection over prefixes, each one stacked pass, finds
    the first failing member, which is then evaluated alone, as a number.
    """
    lo, hi = 0, len(params)  # params[:lo] passes, params[:hi] fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            evaluate(params[:mid])
            lo = mid
        except Exception:
            hi = mid
    if len(params) > 1:
        try:
            evaluate(params[hi - 1])
        except Exception as alone:
            exc = alone
    return params[hi - 1], exc


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
