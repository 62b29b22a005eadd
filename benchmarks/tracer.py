"""In-memory span tracer that wraps the program's public functions from outside.

Each traced function is replaced by a wrapper in every ``cwherald`` module
namespace that bound it, because modules call each other through their own
imported names (``pipeline.second_moments``, ``conditioning.physicality_check``,
``modes.correlation_moment`` ...).  A span is ``(name, start, end, parent,
op)``; spans are kept in memory while the tracer is active and written out
at the end.  The source kernel callables are called tens of thousands of
times per moment, so their calls are folded into one leaf record per parent
span (total time and count) instead of one span each.  Self time is a
span's duration minus the durations of its children and leaf records.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

KERNEL = "sources.kernel"


def _file_bytes(args, kwargs, _result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0] if args else None))}


def _grid_points(_args, _kwargs, result):
    return {"points": result[2].size}


# (module, function, extra counter) for every span the per-layer metrics use.
TRACED = (
    ("quadrature", "correlation_moment", None),
    ("quadrature", "correlation_moment_once", None),
    ("quadrature", "l2_norm_sq", None),
    ("modes", "second_moments", None),
    ("modes", "build_trigger_mode", None),
    ("modes", "build_output_mode", None),
    ("covariance", "assemble", None),
    ("covariance", "apply_loss", None),
    ("covariance", "physicality_check", None),
    ("conditioning", "condition_on_number", None),
    ("conditioning", "condition_on_on", None),
    ("conditioning", "condition_on_click", None),
    ("wigner", "integrate_out_trigger", None),
    ("wigner", "evaluate_grid", _grid_points),
    ("wigner", "write_grid_csv", _file_bytes),
    ("polynomials", "gaussian_poly_integral", None),
    ("polynomials", "expected_poly_of_shifted_gaussian", None),
    ("metrics", "wigner_at_origin", None),
    ("metrics", "fock_fidelity", None),
    ("metrics", "purity", None),
    ("metrics", "negativity_volume", None),
    ("coherence", "conditional_coherence", None),
    ("coherence", "dominant_mode", None),
    ("coherence", "fit_exponential_decay", None),
    ("coherence", "write_coherence_csv", _file_bytes),
    ("scan", "scan_and_refine", None),
    ("scan", "golden_section_minimize", None),
    ("pipeline", "build_covariance", None),
    ("pipeline", "condition_state", None),
    ("pipeline", "summarize", None),
    ("pipeline", "run_experiment", None),
    ("cli", "main", None),
    ("cli", "write_summary", None),
    ("config", "parse_config", None),
)


def patch_everywhere(package: str, module: str, attr: str, replacement) -> list:
    """Bind ``replacement`` wherever a ``package`` module bound ``module.attr``.

    Returns the undo records for :func:`restore`.
    """
    original = getattr(sys.modules[f"{package}.{module}"], attr)
    undo = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == package or key.startswith(package + ".")):
            continue
        for name, val in list(vars(mod).items()):
            if val is original:
                undo.append((mod, name, original))
                setattr(mod, name, replacement)
    return undo


def restore(undo: list) -> None:
    """Undo :func:`patch_everywhere`, newest first."""
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)
    undo.clear()


class Tracer:
    """Records spans and counts while ``active``; patches and restores the program."""

    def __init__(self, package: str = "cwherald"):
        self.package = package
        self.active = False
        self.op = None
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [seconds, calls]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name, fn, counter=None):
        """Wrap ``fn`` so that each call made while active records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += val
            return result

        return wrapper

    def leaf(self, name, fn, size=None):
        """Wrap a hot leaf callable: fold its calls into one record per parent."""

        def wrapper(*args):
            if not self.active:
                return fn(*args)
            t0 = time.perf_counter()
            result = fn(*args)
            dt = time.perf_counter() - t0
            parent = self._stack[-1] if self._stack else -1
            rec = self.leaves.setdefault((parent, name), [0.0, 0])
            rec[0] += dt
            rec[1] += 1
            if size is not None:
                self.counts[f"{name}.elements"] += size(args)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, module: str, attr: str, replacement) -> int:
        """Replace ``module.attr`` in every package namespace that bound it."""
        undo = patch_everywhere(self.package, module, attr, replacement)
        self._patched.extend(undo)
        return len(undo)

    def install(self):
        """Patch every traced function and the kernel factory."""
        for module, attr, counter in TRACED:
            fn = getattr(importlib.import_module(f"{self.package}.{module}"), attr)
            self.patch(module, attr, self.span(f"{module}.{attr}", fn, counter))
        factory = sys.modules[f"{self.package}.sources"].opo_kernel
        np_size = sys.modules["numpy"].size

        def traced_kernel(params):
            k = factory(params)
            return dataclasses.replace(
                k,
                c_aa=self.leaf(KERNEL, k.c_aa, lambda a: int(np_size(a[0]))),
                c_ada=self.leaf(KERNEL, k.c_ada, lambda a: int(np_size(a[0]))),
            )

        self.patch("sources", "opo_kernel", traced_kernel)

    def restore(self):
        restore(self._patched)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, leaf records included."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (parent, _name), (secs, _calls) in self.leaves.items():
            if parent >= 0:
                child[parent] += secs
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        for (_parent, name), (secs, _calls) in self.leaves.items():
            out[name] += secs
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[0]] += 1
        for (_parent, name), (_secs, n) in self.leaves.items():
            out[name] += n
        return dict(out)

    def write(self, path):
        """Write spans, then leaf records, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for (parent, name), (secs, n) in self.leaves.items():
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "seconds": secs, "calls": n}) + "\n")
