"""One-dimensional scan plus parabolic refinement of a scalar objective."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

MAX_STEPS = 8  # the scalar calls golden section to xtol 1e-3 makes on the scan fixture
STEP_TOL = 1e-6  # a step this short, relative to the bracket width, ends it


@dataclass(frozen=True)
class ScanResult:
    """Scan table plus the refined best point (minimum of the objective)."""

    params: np.ndarray
    values: np.ndarray
    best_param: float
    best_value: float


def golden_section_minimize(
    f: Callable[[float], float], a: float, b: float, xtol: float = 1e-3
):
    """Classic golden-section search for the minimum of f on [a, b].

    The scan no longer calls it; it stays while ``benchmarks/tracer.py``
    looks it up by name.
    """
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _vertex(points) -> float | None:
    """Vertex of the parabola through three (f, x) points, or None unless it is convex."""
    (fa, a), (fb, b), (fc, c) = sorted(points, key=lambda p: p[1])
    num = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
    den = (b - a) * (fb - fc) - (b - c) * (fb - fa)
    if not den < 0:  # with a < b < c, den < 0 exactly when the parabola opens upwards
        return None
    x = b - 0.5 * num / den
    return x if math.isfinite(x) else None


def scan_and_refine(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    samples: int,
) -> ScanResult:
    """Tabulate f on a uniform grid, then refine the best sample.

    ``f`` takes one float, or the whole grid as an array, for which it
    returns one value per point: the grid is one call ``f(params)``, and
    each refinement step then calls it on one float.  The refinement starts
    from the best sample and its two neighbours (the three end samples when
    the best is at an end) and steps to the vertex of the parabola through
    the three lowest points, clipped to the bracket of samples flanking the
    best one, keeping the three lowest.  It stops when those three are not
    convex, when the next vertex lies within ``STEP_TOL`` times the bracket
    width of the best point or was evaluated already, or after
    ``MAX_STEPS`` steps.  The returned optimum is the lowest point
    evaluated, so never worse than the best scanned sample.  A degenerate
    range (lo == hi) or a single sample returns one evaluation.
    """
    if hi < lo:
        raise ValueError(f"scan range is reversed: [{lo}, {hi}]")
    if lo == hi or samples == 1:
        v = f(lo)
        return ScanResult(
            params=np.array([lo]),
            values=np.array([v]),
            best_param=lo,
            best_value=v,
        )
    if samples < 3:
        raise ValueError(f"scan needs at least 3 samples, got {samples}")
    params = np.linspace(lo, hi, samples)
    values = np.asarray(f(params), dtype=float)
    if values.shape != params.shape:
        raise ValueError(f"objective gave shape {values.shape} for a grid of {samples} points")
    k = int(np.argmin(values))
    a = float(params[max(k - 1, 0)])
    b = float(params[min(k + 1, samples - 1)])
    mid = min(max(k, 1), samples - 2)
    # (value, param) pairs, lowest first
    points = sorted((float(values[i]), float(params[i])) for i in (mid - 1, mid, mid + 1))
    seen = {x for _, x in points}
    for _ in range(MAX_STEPS):
        x = _vertex(points)
        if x is None:
            break
        x = min(max(x, a), b)
        if abs(x - points[0][1]) <= STEP_TOL * (b - a) or x in seen:
            break
        seen.add(x)
        points = sorted(points + [(float(f(x)), x)])[:3]
    v, x = points[0]
    return ScanResult(params=params, values=values, best_param=x, best_value=v)
