"""Composite Gauss-Legendre quadrature for correlation-moment integrals.

No program path calls this module: mode moments are closed form
(:mod:`cwherald.piecewise`).  It is kept as the independent numerical
reference that the tests check the closed form against, with mode
amplitudes given as callables.

The target integrals are ``Int f_i(t) f_j(t') k(t - t') dt dt'`` where the
kernel has a derivative kink on the diagonal ``t = t'``.  Panels are laid
out per axis between the mode functions' breakpoints; panel pairs that the
diagonal crosses are split into the two smooth wedges ``t > t'`` and
``t < t'`` so that every integration cell sees an analytic integrand and
the composite rule converges spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

GL_ORDER = 12


class QuadratureError(RuntimeError):
    """Numerical integration failed to converge within the panel budget.

    Carries the best available estimate and the error bound achieved.
    """

    def __init__(self, message, estimate, bound):
        super().__init__(f"{message} (estimate={estimate!r}, bound={bound!r})")
        self.estimate = estimate
        self.bound = bound


@dataclass(frozen=True)
class QuadAxis:
    """One integration axis: amplitude, panel breakpoints, variation rate."""

    amplitude: Callable[[np.ndarray], np.ndarray]
    breakpoints: np.ndarray
    rate: float


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panels(breakpoints: np.ndarray, rate: float, scale: float) -> np.ndarray:
    """Subdivide breakpoint intervals into panels of length <= 4/rate/scale."""
    edges = [float(breakpoints[0])]
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        if b <= a:
            continue
        n = max(1, int(np.ceil((b - a) * max(rate, 1e-300) * scale / 4.0)))
        edges.extend(np.linspace(a, b, n + 1)[1:])
    return np.asarray(edges)


def _panel_nodes(edges: np.ndarray, order: int):
    ref_x, ref_w = _gl_rule(order)
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * ref_x[None, :]
    weights = half[:, None] * ref_w[None, :]
    return nodes, weights


def _segment_integral(fvals_w, t_outer, inner_lo, inner_hi, f_inner, kern, order):
    """Sum over segments s of fvals_w[s] times the GL integral of
    f_inner(t') k(t_outer[s] - t') over [inner_lo[s], inner_hi[s]].

    All segments are evaluated in one batch; an empty one counts zero.
    """
    ref_x, ref_w = _gl_rule(order)
    half = 0.5 * np.maximum(inner_hi - inner_lo, 0.0)
    mid = 0.5 * (inner_hi + inner_lo)
    tp = mid[:, None] + half[:, None] * ref_x[None, :]
    vals = (f_inner(tp) * kern(t_outer[:, None] - tp)) @ ref_w
    return float(np.sum(fvals_w * half * vals))


def correlation_moment_once(
    ax_i: QuadAxis,
    ax_j: QuadAxis,
    kern: Callable[[np.ndarray], np.ndarray],
    kernel_rate: float,
    scale: float = 1.0,
    order: int = GL_ORDER,
) -> float:
    """One pass of the double integral at a given panel refinement scale."""
    edges_i = _panels(ax_i.breakpoints, ax_i.rate + kernel_rate, scale)
    edges_j = _panels(ax_j.breakpoints, ax_j.rate + kernel_rate, scale)
    nodes_i, w_i = _panel_nodes(edges_i, order)
    nodes_j, w_j = _panel_nodes(edges_j, order)
    f_i = ax_i.amplitude(nodes_i) * w_i
    f_j = ax_j.amplitude(nodes_j) * w_j

    flat_i = nodes_i.ravel()
    flat_j = nodes_j.ravel()
    fw_i = f_i.ravel()
    fw_j = f_j.ravel()
    total = 0.0
    chunk = max(1, 2_000_000 // max(len(flat_j), 1))
    for lo in range(0, len(flat_i), chunk):
        hi = lo + chunk
        kblock = kern(flat_i[lo:hi, None] - flat_j[None, :])
        total += float(fw_i[lo:hi] @ kblock @ fw_j)

    # panel pairs crossed by the diagonal t = t': replace the tensor-product
    # cell by the exact two-wedge split
    n_i = len(edges_i) - 1
    n_j = len(edges_j) - 1
    for pi in range(n_i):
        a1, b1 = edges_i[pi], edges_i[pi + 1]
        j_lo = np.searchsorted(edges_j, a1, side="right") - 1
        j_hi = np.searchsorted(edges_j, b1, side="left")
        for pj in range(max(j_lo, 0), min(j_hi, n_j - 1) + 1):
            a2, b2 = edges_j[pj], edges_j[pj + 1]
            if not (a1 < b2 and a2 < b1):
                continue
            block = float(
                f_i[pi] @ kern(nodes_i[pi][:, None] - nodes_j[pj][None, :]) @ f_j[pj]
            )
            # split [a2, b2] at each outer node clipped to the panel, so that
            # a node outside the panel gets one empty and one whole segment
            t = nodes_i[pi]
            cut = np.clip(t, a2, b2)
            split = _segment_integral(
                np.tile(f_i[pi], 2),
                np.tile(t, 2),
                np.concatenate([np.full_like(t, a2), cut]),
                np.concatenate([cut, np.full_like(t, b2)]),
                ax_j.amplitude,
                kern,
                order,
            )
            total += split - block
    return total


def correlation_moment(
    ax_i: QuadAxis,
    ax_j: QuadAxis,
    kern: Callable[[np.ndarray], np.ndarray],
    kernel_rate: float,
    rtol: float = 1e-8,
    atol: float = 1e-12,
) -> float:
    """Double integral refined by panel halving until stable.

    Raises :class:`QuadratureError` carrying the last estimate and the
    achieved bound if doubling the panel density twice does not converge.
    """
    prev = correlation_moment_once(ax_i, ax_j, kern, kernel_rate, scale=1.0)
    cur = prev
    delta = float("inf")
    for scale in (2.0, 4.0):
        cur = correlation_moment_once(ax_i, ax_j, kern, kernel_rate, scale=scale)
        delta = abs(cur - prev)
        if delta <= max(rtol * abs(cur), atol):
            return cur
        prev = cur
    raise QuadratureError(
        "correlation moment did not converge under panel refinement",
        estimate=cur,
        bound=delta,
    )


def l2_norm_sq(axis: QuadAxis, order: int = GL_ORDER) -> float:
    """Integral of amplitude^2 over the axis support."""
    edges = _panels(axis.breakpoints, axis.rate, 2.0)
    nodes, weights = _panel_nodes(edges, order)
    vals = axis.amplitude(nodes)
    return float(np.sum(weights * vals * vals))
