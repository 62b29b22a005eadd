"""Temporal modes and their second moments against a source kernel.

A discrete mode is a real amplitude f(t) of unit (or smaller) L2 norm; the
missing norm is vacuum fill and contributes nothing to the source-part
moments.  A mode is its amplitude as a tuple of exponential-polynomial
:class:`~cwherald.piecewise.Piece`, so its moments against the OPO kernel
are exact.  The trigger mode composes a beam-splitter tap, an optional
single-pole frequency filter and a detection window; the output mode is a
unit-norm envelope, which the pipeline scales by the tap's reflection
amplitude piece by piece (:meth:`~cwherald.piecewise.Piece.scaled`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import Piece, kernel_moments
from .sources import MAX_RATE, CorrelationKernel
from .text import fmt9

# window much narrower than every relevant correlation time: treat as a point
NARROW_WINDOW_LIMIT = 0.1
# a rate below MAX_RATE times the time between two piece ends within this
# bound is below an eighth of the largest float, so the kernel's exponents,
# sums of a few such products, stay finite, and so does the time's square
MAX_TIME = MAX_RATE / 16.0
# the window's ends, rounded to floats, may lie this much further apart or
# closer, relative to window_width, than asked
WINDOW_WIDTH_RTOL = 1e-9


def _too_large(name: str, rate: float) -> str:
    return f"{name} = {rate:g} is too large: a rate must be below {MAX_RATE:.4g}"


@dataclass(frozen=True)
class TriggerModeSpec:
    """Tap amplitude, optional filter width, detection window, detector efficiency."""

    tap_amplitude: float
    filter_width: float | None
    window_center: float = 0.0
    window_width: float = 0.02
    detector_efficiency: float = 1.0

    def __post_init__(self):
        if abs(self.tap_amplitude) > 1.0:
            raise ValueError(f"|tap_amplitude| must be <= 1, got {self.tap_amplitude}")
        if not (0.0 <= self.detector_efficiency <= 1.0):
            raise ValueError(
                f"detector_efficiency must lie in [0, 1], got {self.detector_efficiency}"
            )
        if self.window_width <= 0.0:
            raise ValueError(f"window_width must be positive, got {self.window_width}")
        # the window's ends as build_trigger_mode computes them
        lo = self.window_center - self.window_width / 2.0
        hi = self.window_center + self.window_width / 2.0
        if not (-MAX_TIME < lo and hi < MAX_TIME):
            raise ValueError(
                f"the window [{lo:g}, {hi:g}] reaches past +-{MAX_TIME:.4g}: "
                "the kernel multiplies the time between piece ends by rates"
            )
        if not lo < hi:
            raise ValueError(
                f"window_width = {self.window_width:g} at window_center = "
                f"{self.window_center:g} leaves the window empty in floating point"
            )
        if abs((hi - lo) - self.window_width) > WINDOW_WIDTH_RTOL * self.window_width:
            raise ValueError(
                f"window_width = {self.window_width:g} at window_center = "
                f"{self.window_center:g} is {fmt9(hi - lo)} wide in floating point, "
                f"more than {WINDOW_WIDTH_RTOL:g} off relative to the width asked"
            )
        if self.filter_width is not None and self.filter_width <= 0.0:
            raise ValueError(f"filter_width must be positive, got {self.filter_width}")
        if self.filter_width is not None and not self.filter_width < MAX_RATE:
            raise ValueError(_too_large("filter_width", self.filter_width))


@dataclass(frozen=True, eq=False)
class OutputModeSpec:
    """The keys of [output]: envelope sqrt(alpha) e^{-alpha |t - center|}, or tabulated.

    ``table`` is the path of a two-column (t, u) file that :func:`build_output_mode`
    reads, its times shifted by ``center``; a tabulated envelope has no decay
    rate, so its ``alpha`` is NaN.  A 1-d array of ``alpha`` values specifies
    a family of exponential envelopes, one per value.
    """

    envelope: str = "exponential"
    alpha: float | np.ndarray = math.nan
    table: str = ""
    center: float = 0.0

    def __post_init__(self):
        if self.envelope not in ("exponential", "tabulated"):
            raise ValueError(f"unknown envelope kind {self.envelope!r}")
        if self.envelope == "exponential" and not (np.asarray(self.alpha) > 0.0).all():
            raise ValueError(f"exponential envelope needs alpha > 0, got {self.alpha}")
        if self.envelope == "exponential" and not (np.asarray(self.alpha) < MAX_RATE).all():
            raise ValueError(_too_large("alpha", np.max(self.alpha)))
        if self.envelope == "tabulated" and not self.table:
            raise ValueError("tabulated envelope needs a table file path")
        if not abs(self.center) < MAX_TIME:
            raise ValueError(
                f"center = {self.center:g} lies past +-{MAX_TIME:.4g}: "
                "the kernel multiplies the time between piece ends by rates"
            )


@dataclass(frozen=True, eq=False)
class SecondMoments:
    """Source-part mode moments: a[i,j] = <a_i a_j>, b[i,j] = <a_i+ a_j>.

    For a family of output modes ``a`` and ``b`` are stacks of shape (K, 2, 2).
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name, m in (("a", self.a), ("b", self.b)):
            m = np.asarray(m, dtype=float)
            if m.shape[-2:] != (2, 2) or m.shape != np.shape(self.a):
                raise ValueError(f"moment matrix {name} must be 2x2, or a stack shaped like a")
            off = np.abs(m[..., 0, 1])
            if (np.abs(m[..., 0, 1] - m[..., 1, 0]) > 1e-10 * np.maximum(1.0, off)).any():
                raise ValueError(f"moment matrix {name} must be symmetric")

    def scaled_trigger(self, factor: float) -> "SecondMoments":
        """Moments after scaling the trigger mode function by a factor."""
        s = np.array([[factor**2, factor], [factor, 1.0]])
        return SecondMoments(a=self.a * s, b=self.b * s)


def build_trigger_mode(spec: TriggerModeSpec, source_fast_rate: float) -> tuple[Piece, ...]:
    """Construct the trigger mode from its physical stages.

    Detector efficiency folds into the effective tap amplitude.  Without a
    filter the mode is the rectangular detection window.  With a filter the
    window is collapsed onto its centre when it is much narrower than both
    the filter response and the source correlations
    (``dt * max(filter, fastest source rate) <= 0.1``); otherwise the
    window is integrated through the filter response explicitly.  The
    filtered modes keep their half-infinite exponential tails whole.
    """
    tau_eff = spec.tap_amplitude * np.sqrt(spec.detector_efficiency)
    dt = spec.window_width
    tc = spec.window_center

    if spec.filter_width is None:
        lo, hi = tc - dt / 2.0, tc + dt / 2.0
        return (Piece(lo, hi, lo, tau_eff / np.sqrt(dt)),)

    gamma = spec.filter_width
    narrow = dt * max(gamma, source_fast_rate) <= NARROW_WINDOW_LIMIT

    if narrow:
        scale = tau_eff * np.sqrt(dt) * gamma
        return (Piece(-np.inf, tc, tc, scale, rate=gamma),)

    lo_w, hi_w = tc - dt / 2.0, tc + dt / 2.0
    pref = tau_eff / np.sqrt(dt)
    # before the window the response to all of it decays; inside, it builds up
    return (
        Piece(-np.inf, lo_w, lo_w, -pref * np.expm1(-gamma * dt), rate=gamma),
        Piece(lo_w, hi_w, lo_w, pref),
        Piece(lo_w, hi_w, hi_w, -pref, rate=gamma),
    )


def build_output_mode(spec: OutputModeSpec) -> tuple[Piece, ...]:
    """Construct the unit-norm output envelope.

    A tabulated envelope is read from ``spec.table`` and moved by
    ``spec.center`` along the time axis; its moved times must lie within
    +-:data:`MAX_TIME`, as the window's ends do, and its squared norm
    must be a finite float.  An array of ``alpha`` values
    gives one mode whose pieces are families, one member per value.
    """
    tc = spec.center
    if spec.envelope == "exponential":
        alpha = np.asarray(spec.alpha, dtype=float)[()]
        scale = np.sqrt(alpha)
        return (
            Piece(-np.inf, tc, tc, scale, rate=alpha),
            Piece(tc, np.inf, tc, scale, rate=-alpha),
        )

    ts, us = load_envelope_table(spec.table)
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(us))):
        raise ValueError("tabulated envelope contains non-finite values")
    shifted = ts + tc
    if not np.all(np.abs(shifted) < MAX_TIME):
        raise ValueError(
            f"tabulated envelope times reach past +-{MAX_TIME:.4g} at center = {tc:g}: "
            "the kernel multiplies the time between piece ends by rates"
        )
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("tabulated envelope times must be strictly increasing")
    # exact L2 norm of the linear interpolant
    h = np.diff(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(h * (us[:-1] ** 2 + us[:-1] * us[1:] + us[1:] ** 2) / 3.0)
    if not np.isfinite(sq):
        raise ValueError("tabulated envelope's squared norm overflows: its samples are too large")
    if sq <= 0.0:
        raise ValueError("tabulated envelope has zero norm")
    un = us / np.sqrt(sq)
    slopes = np.diff(un) / h
    return tuple(
        Piece(float(a), float(b), float(a), float(c), power)
        for a, b, u, m in zip(shifted[:-1], shifted[1:], un[:-1], slopes)
        for c, power in ((u, 0), (m, 1))
    )


def load_envelope_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (t, u) text table for a tabulated envelope."""
    data = np.loadtxt(path, dtype=float, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"envelope table {path} must have two columns")
    if len(data) < 2:
        raise ValueError(f"envelope table {path} needs at least two rows")
    return data[:, 0], data[:, 1]


def second_moments(
    f1: tuple[Piece, ...], f2: tuple[Piece, ...], k: CorrelationKernel
) -> SecondMoments:
    """Mode moments of the kernel against the mode pair.

    ``a[i, j] = Int f_i(t) f_j(t') c_aa(t - t') dt dt'`` and likewise for
    ``b`` with ``c_ada``.  Every moment is a closed-form sum of
    antiderivatives over the modes' pieces and the kernel's exponential
    terms, exact to rounding and with no tail truncation.  Both matrices
    contract one Gram matrix over the kernel's rates, built in one pass
    over the mode list (:func:`~cwherald.piecewise.kernel_moments`).  For a
    family of K output modes the same pass gives K stacked moment pairs.
    That pass reuses the plan of the call before (cells, piece-to-cell
    terms, same-cell pairs and gap weights) when the pieces' ends, anchors
    and powers and the kernel's rates are the same, as over an alpha scan.
    """
    if k.decay_rate <= 0.0:
        raise ValueError("kernel decay rate must be positive")
    rates, w_aa, w_ada = np.array(k.terms, dtype=float).T
    g = kernel_moments((f1, f2), rates)
    return SecondMoments(a=g @ w_aa, b=g @ w_ada)
