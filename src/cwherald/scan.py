"""One-dimensional scan plus golden-section refinement of a scalar objective."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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
    """Classic golden-section search for the minimum of f on [a, b]."""
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


def scan_and_refine(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    samples: int,
    xtol: float = 1e-3,
) -> ScanResult:
    """Tabulate f on a uniform grid, then refine the best sample.

    ``f`` takes one float, or the whole grid as an array, for which it
    returns one value per point: the grid is one call ``f(params)``, and the
    golden-section refinement then calls it on single points.  The
    refinement bracket is the pair of samples flanking the best one; the
    returned optimum is never worse than the best scanned sample.  A
    degenerate range (lo == hi) or a single sample returns one evaluation.
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
    a = params[max(k - 1, 0)]
    b = params[min(k + 1, samples - 1)]
    x, v = golden_section_minimize(f, float(a), float(b), xtol=xtol)
    if values[k] < v:
        x, v = float(params[k]), float(values[k])
    return ScanResult(params=params, values=values, best_param=x, best_value=v)
