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
from .config import OBJECTIVES, ExperimentConfig
from .covariance import (
    CovarianceMatrix4,
    apply_loss,
    assemble,
    load_covariance,
)
from .metrics import SCALARS
from .modes import build_output_mode, build_trigger_mode, second_moments
from .piecewise import Piece
from .polynomials import GaussianCore, det2
from .scan import ScanResult, scan_and_refine
from .sources import CorrelationKernel, opo_kernel, tmsv_covariance
from .wigner import GaussPolyState, PolyGaussTerm, evaluate_grid


def build_kernel(cfg: ExperimentConfig) -> CorrelationKernel:
    if cfg.source.kind != "opo":
        raise ValueError("only the opo source has a correlation kernel")
    return opo_kernel(cfg.source)


def build_modes(
    cfg: ExperimentConfig,
) -> tuple[tuple[Piece, ...], tuple[Piece, ...], CorrelationKernel]:
    """Trigger and output modes plus the source kernel of an opo config.

    The output mode is the configured envelope times the tap's reflection
    amplitude sqrt(1 - tap_amplitude^2).
    """
    kernel = build_kernel(cfg)
    reflect = float(np.sqrt(1.0 - cfg.trigger.tap_amplitude**2))
    f1 = build_trigger_mode(cfg.trigger, source_fast_rate=kernel.fast_rate)
    return f1, tuple(p.scaled(reflect) for p in build_output_mode(cfg.output)), kernel


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

    Each alpha runs :func:`run_experiment`'s steps: :func:`build_covariance`,
    :func:`condition_state` and the objective's summary scalar
    (:data:`~cwherald.config.OBJECTIVES`).  Returns the scan table in raw
    objective values and the optimum refined by
    :func:`~cwherald.scan.scan_and_refine`'s parabolic steps, one
    single-alpha call each, to about 1e-6 of the grid's bracket around the
    best sample.  The origin value is minimised, the Fock-1 fidelity
    maximised.  The whole grid is one stacked pass: with an array of alphas
    the output mode is a family (:func:`~cwherald.modes.build_output_mode`),
    and each member's value equals what that alpha gives alone.  A failure
    names the first failing alpha in grid order, with the error that alpha
    raises alone.  A parsed config with a [scan] section always has an opo
    source and an exponential envelope.
    """
    sc = cfg.scan
    if sc is None:
        raise ValueError("no [scan] parameters configured")
    key, sign = OBJECTIVES[sc.objective]

    def signed(alpha):
        """Signed objective at one alpha, or at each of a 1-d array of them, in one pass."""
        at = replace(cfg, output=replace(cfg.output, alpha=alpha))
        return sign * SCALARS[key](condition_state(at, build_covariance(at)))

    def objective(alpha):
        """Signed objective at one alpha, or at each of an array of them."""
        try:
            return signed(alpha) if np.ndim(alpha) else float(signed(alpha))
        except Exception as exc:
            bad = alpha
            # the members of an array are independent: each alone, in order, to the first failure
            for bad in alpha if np.ndim(alpha) else ():
                try:
                    signed(bad)
                except Exception as alone:
                    exc = alone
                    break
            head = str(exc.args[0]) if exc.args else ""
            exc.args = (f"at alpha = {bad:g}: {head}",) + exc.args[1:]
            raise exc

    result = scan_and_refine(objective, sc.alpha_min, sc.alpha_max, sc.samples)
    # report raw objective values regardless of optimisation direction
    return ScanResult(
        params=result.params,
        values=sign * result.values,
        best_param=result.best_param,
        best_value=sign * result.best_value,
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


# the inverse that makes a conditioned core leaves its two off-diagonal entries
# up to a few ulps apart; a state file keeps them as written
SIGMA_SKEW_RTOL = 1e-12


def load_state(path) -> ConditionResult:
    """Read a conditioned state written by :func:`save_state`.

    The file must hold an object with a finite positive ``probability`` and
    a non-empty list of ``terms``, each with a finite 2-D ``coeffs`` table
    and a finite 2x2 ``sigma`` that is positive definite and symmetric to
    :data:`SIGMA_SKEW_RTOL` of its largest entry; anything else raises
    ``ValueError`` naming it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def field(owner, key, shape, what, where=""):
        """``owner[key]`` as a non-empty finite array of ``shape``, None matching any length."""
        try:
            value = np.array(owner[key], dtype=float)
        except (KeyError, TypeError, ValueError):
            value = None
        if (
            value is None
            or value.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, value.shape))
            or value.size == 0
            or not np.isfinite(value).all()
        ):
            raise ValueError(f"state file {path}: {where}{key!r} must be {what}")
        return value

    if not isinstance(doc, dict):
        raise ValueError(f"state file {path}: not a JSON object")
    probability = field(doc, "probability", (), "a finite number")
    if not probability > 0.0:
        raise ValueError(f"state file {path}: 'probability' must be positive")
    if not isinstance(doc.get("terms"), list) or not doc["terms"]:
        raise ValueError(f"state file {path}: 'terms' must be a non-empty list")
    terms = []
    for k, t in enumerate(doc["terms"]):
        coeffs = field(t, "coeffs", (None, None), "a finite 2-D table", f"term {k}: ")
        sigma = field(t, "sigma", (2, 2), "a finite 2x2 matrix", f"term {k}: ")
        skew = abs(sigma[0, 1] - sigma[1, 0])
        if not (sigma[0, 0] > 0.0 and det2(sigma) > 0.0 and skew <= SIGMA_SKEW_RTOL * sigma.max()):
            raise ValueError(
                f"state file {path}: term {k}: 'sigma' must be symmetric positive definite"
            )
        terms.append(PolyGaussTerm(coeffs=coeffs, core=GaussianCore(sigma)))
    return ConditionResult(state=GaussPolyState(terms=tuple(terms)), probability=float(probability))
