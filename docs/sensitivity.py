"""Regenerate the sensitivity tables of docs/reproduction_notes.md.

Usage, from the repository root:

    PYTHONPATH=src python3 docs/sensitivity.py

prints both Markdown tables of the note, built from the public API.  A
reading of the published configuration is a choice of two details: the
trigger mode with or without the gamma = 5 filter folded in, and the output
envelope with or without the tap's reflection factor sqrt(1 - tau^2) =
sqrt(0.99).  Pump A is the shipped figure3 fixture (epsilon = 0.01), pump B
the figure4 one (epsilon = 0.2); "+25 % loss" adds output loss eta2 = 0.25.
The argmin table scans the figure4_scan fixture's alpha range as one
stacked family on a grid of step 2.5e-4 and refines the lowest sample by
the vertex of the parabola through it and its two neighbours.

The states are click-conditioned by the core of ``condition_on_click``
without its physicality check: at pump B the "no filter / 1.0" reading is unphysical by
about 3e-9 (the least eigenvalue of V + i*Omega), past the program's
tolerance of 1e-9, because the unscaled output envelope and the tapped
trigger together claim more than the whole field.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from cwherald import (
    LossParams,
    OpoParams,
    apply_loss,
    assemble,
    build_output_mode,
    build_trigger_mode,
    fock_fidelity,
    opo_kernel,
    parse_config,
    second_moments,
    wigner_at_origin,
)
from cwherald.conditioning import _click

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cwherald" / "fixtures"
FILTER_WIDTH = 5.0
OUTPUT_LOSS = LossParams(eta2=0.25)
ARGMIN_STEP = 2.5e-4

# (filter folded into the trigger mode, reflection factor on the output mode)
READINGS = {
    "**no filter / sqrt(0.99)** (shipped)": (False, True),
    "filter gamma=5 / sqrt(0.99)": (True, True),
    "no filter / 1.0": (False, False),
    "filter gamma=5 / 1.0": (True, False),
}
PUBLISHED = ["-0.3116", "0.9882", "-0.154", "0.7414", "-0.2499", "-0.0889"]


def click_state(cfg, filtered: bool, reflected: bool, alpha, losses=None):
    """The click-conditioned output state of one reading at ``alpha`` (a number or an array)."""
    src = cfg.source
    kernel = opo_kernel(OpoParams(gamma1=src.gamma1, gamma2=src.gamma2, epsilon=src.epsilon))
    trigger = replace(cfg.trigger, filter_width=FILTER_WIDTH if filtered else None)
    f1 = build_trigger_mode(trigger, source_fast_rate=kernel.fast_rate)
    f2 = build_output_mode(replace(cfg.output, alpha=alpha))
    if reflected:
        f2 = tuple(p.scaled(math.sqrt(1.0 - cfg.trigger.tap_amplitude**2)) for p in f2)
    v = assemble(second_moments(f1, f2, kernel))
    if losses is not None:
        v = apply_loss(v, losses)
    return _click(v).state


def row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def headline_table() -> list[str]:
    a = parse_config(FIXTURES / "figure3_upper.cfg")
    b = parse_config(FIXTURES / "figure4_upper.cfg")
    lines = [
        row(["reading (filter in f1 / reflect factor)", "A: W(0,0)", "A: F1",
             "A+25 % loss: W(0,0)", "A+25 % loss: F1", "B: W(0,0)", "B+25 % loss: W(0,0)"]),
        row(["---"] * 7).replace(" ", ""),
        row(["published values"] + PUBLISHED),
    ]
    for label, reading in READINGS.items():
        cells = []
        for cfg, losses, with_f1 in ((a, None, True), (a, OUTPUT_LOSS, True),
                                     (b, None, False), (b, OUTPUT_LOSS, False)):
            state = click_state(cfg, *reading, cfg.output.alpha, losses)
            cells.append(f"{wigner_at_origin(state):.4f}")
            if with_f1:
                cells.append(f"{fock_fidelity(state, 1):.4f}")
        lines.append(row([label] + cells))
    return lines


def argmin_table() -> list[str]:
    cfg = parse_config(FIXTURES / "figure4_scan.cfg")
    lo, hi = cfg.scan.alpha_min, cfg.scan.alpha_max
    alphas = np.linspace(lo, hi, int(math.ceil((hi - lo) / ARGMIN_STEP)) + 1)
    h = alphas[1] - alphas[0]
    lines = [row(["reading", "argmin alpha", "origin value at argmin"]), "|---|---|---|"]
    for label, reading in READINGS.items():
        w = wigner_at_origin(click_state(cfg, *reading, alphas))
        k = int(np.argmin(w))
        if not 0 < k < len(alphas) - 1:
            raise RuntimeError(f"{label}: the minimum lies on the end of the scan range")
        y0, y1, y2 = w[k - 1 : k + 2]
        curvature = y0 - 2.0 * y1 + y2
        best = alphas[k] + 0.5 * h * (y0 - y2) / curvature
        value = y1 - (y0 - y2) ** 2 / (8.0 * curvature)
        lines.append(row([label, f"{best:.4f}", f"{value:.5f}"]))
    return lines


def main() -> None:
    print("\n".join(headline_table()))
    print()
    print("\n".join(argmin_table()))


if __name__ == "__main__":
    main()
