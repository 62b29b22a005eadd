"""Experiment descriptions: a flat, sectioned key/value config format.

Sections mirror the pipeline stages: [source], [trigger], [output],
[losses], [measurement], [outputs] and the optional [scan].  Each section
is read straight into its dataclass: the keys it accepts are the field
names, a value is parsed by its field's annotation and an absent key takes
the field's default.  [source] accepts every kind's keys and is read into
its kind's record, the pipeline's :class:`~cwherald.sources.OpoParams` for an
opo; [trigger] and [output] become the pipeline's
:class:`~cwherald.modes.TriggerModeSpec` and :class:`~cwherald.modes.OutputModeSpec`.
A parsed :class:`ExperimentConfig` is what the pipeline runs, and every rule,
those that tie sections together included, is checked before any stage reads
or writes a file; an opo at or above threshold raises
:class:`~cwherald.errors.ThresholdError` there, a physics error, not a
:class:`~cwherald.errors.ConfigError`.  Unknown sections or keys, [DEFAULT]
and non-finite numbers are hard errors so that reproduction fixtures cannot
silently drift.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .covariance import LossParams
from .errors import ConfigError, ThresholdError
from .metrics import SCALARS
from .modes import OutputModeSpec, TriggerModeSpec
from .sources import MAX_RATE, OpoParams
from .wigner import GridSpec, fmt9

# the keys each source kind and output envelope reads and echoes, in echo order
_KIND_KEYS = {
    "opo": ("kind", "gamma1", "gamma2", "epsilon"),
    "tmsv": ("kind", "r"),
    "direct": ("kind", "covariance"),
    "exponential": ("envelope", "alpha", "center"),
    "tabulated": ("envelope", "table", "center"),
}
# the key each kind requires, as its error message names it
_REQUIRED = {
    "opo": "epsilon",
    "tmsv": "r",
    "direct": "covariance (a file path)",
    "exponential": "alpha",
    "tabulated": "table (a file path)",
}
# each scan objective: the summary scalar it reads and the sign that minimises it
OBJECTIVES = {"origin_value": ("wigner_origin", 1.0), "fock1_fidelity": ("fidelity_fock1", -1.0)}


@dataclass(frozen=True)
class TmsvSource:
    r: float
    kind: ClassVar[str] = "tmsv"


@dataclass(frozen=True)
class DirectSource:
    covariance: str
    kind: ClassVar[str] = "direct"


# the record each [source] kind is read into: tmsv holds the two-mode squeezed
# vacuum's squeezing r, direct the path of a covariance file
_SOURCES = {"opo": OpoParams, "tmsv": TmsvSource, "direct": DirectSource}


@dataclass(frozen=True)
class MeasurementConfig:
    kind: str
    n: int = 0


@dataclass(frozen=True)
class OutputsConfig:
    grid: GridSpec = field(default_factory=GridSpec)
    metrics: tuple[str, ...] = tuple(SCALARS)
    coherence: bool = False
    coherence_halfwidth: float = 10.0
    coherence_points: int = 201

    def __post_init__(self):
        if self.coherence_points < 3:
            raise ValueError(f"coherence_points must be at least 3, got {self.coherence_points}")
        if not self.coherence_halfwidth > 0.0:
            width = self.coherence_halfwidth
            raise ValueError(f"coherence_halfwidth must be positive, got {width}")


@dataclass(frozen=True)
class ScanConfig:
    alpha_min: float
    alpha_max: float
    samples: int = 50
    objective: str = "origin_value"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            names = " or ".join(OBJECTIVES)
            raise ValueError(f"objective must be {names}, got {self.objective!r}")
        if self.alpha_min <= 0 or self.alpha_max < self.alpha_min:
            raise ValueError(f"bad range [{self.alpha_min}, {self.alpha_max}]")
        if not self.alpha_max < MAX_RATE:
            raise ValueError(
                f"alpha_max = {self.alpha_max:g} is too large: a rate must be below {MAX_RATE:.4g}"
            )
        if self.samples < 3 and self.samples != 1:
            raise ValueError(f"samples must be 1 or at least 3, got {self.samples}")


_SECTIONS = {
    "trigger": TriggerModeSpec,
    "output": OutputModeSpec,
    "losses": LossParams,
    "measurement": MeasurementConfig,
    "outputs": OutputsConfig,
    "scan": ScanConfig,
}
# the keys each section accepts: its record's fields, and in [source] every kind's keys
_ACCEPTED = {section: {f.name for f in fields(cls)} for section, cls in _SECTIONS.items()}
_ACCEPTED["source"] = {key for kind in _SOURCES for key in _KIND_KEYS[kind]}


@dataclass(frozen=True)
class ExperimentConfig:
    source: OpoParams | TmsvSource | DirectSource
    measurement: MeasurementConfig
    trigger: TriggerModeSpec | None = None
    output: OutputModeSpec | None = None
    losses: LossParams = field(default_factory=LossParams)
    outputs: OutputsConfig = field(default_factory=OutputsConfig)
    scan: ScanConfig | None = None

    def __post_init__(self):
        opo = self.source.kind == "opo"
        if self.scan is not None and not (opo and self.output.envelope == "exponential"):
            raise ConfigError("[scan] needs an opo source with an exponential [output] envelope")
        if self.outputs.coherence and not opo:
            raise ConfigError(
                "[outputs] coherence = true needs an opo source; "
                f"source kind here is {self.source.kind}"
            )

    def echo_lines(self) -> list[str]:
        """Provenance echo of every parsed value, deterministic order."""
        keys = [("source", _KIND_KEYS[self.source.kind])]
        if self.trigger is not None:
            keys.append(("trigger", [f.name for f in fields(self.trigger)]))
        if self.output is not None:
            keys.append(("output", _KIND_KEYS[self.output.envelope]))
        keys.append(("losses", ("eta1", "xi1", "eta2", "xi2")))
        keys.append(
            ("measurement", ("kind", "n") if self.measurement.kind == "number" else ("kind",))
        )
        return [
            f"config.{section}.{key} = {_text(getattr(getattr(self, section), key))}"
            for section, names in keys
            for key in names
        ]


def _text(value) -> str:
    if value is None:
        return "none"
    return value if isinstance(value, str) else fmt9(value)


def _parse(section: str, key: str, annotation: str, raw: str):
    """One value, parsed by the annotation of the field it fills."""
    if annotation == "str":
        return raw.strip()
    if annotation == "GridSpec":
        return parse_grid(raw)
    if annotation == "tuple[str, ...]":
        metrics = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
        bad = [m for m in metrics if m not in SCALARS]
        if bad:
            raise ConfigError(f"[{section}] unknown metrics {bad}")
        return metrics
    if annotation == "bool":
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean") from None
    if annotation == "float | None":
        raw = raw.strip().lower()
        if raw == "none":
            return None
    convert, noun = (int, "an integer") if annotation == "int" else (float, "a number")
    try:
        value = convert(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {noun}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a finite number")
    return value


def _read(cp, section: str, required=(), keys=None, cls=None):
    """A section as ``cls``, by default its dataclass; ``keys``, if given, limits the fields read."""
    cls = cls or _SECTIONS[section]
    raw = cp[section] if section in cp else {}
    for key in required:
        if key not in raw:
            raise ConfigError(f"[{section}] missing required key {key}")
    values = {
        f.name: _parse(section, f.name, f.type, raw[f.name])
        for f in fields(cls)
        if f.name in raw and (keys is None or f.name in keys)
    }
    try:
        return cls(**values)
    except ThresholdError:
        raise  # a physical limit, not a config rule: the stage reports it
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment description file."""
    # no header names the empty section, so [DEFAULT] is an unknown section
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None, default_section=""
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _ACCEPTED:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in cp[section]:
            if key not in _ACCEPTED[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")

    if "source" not in cp:
        raise ConfigError(f"missing [source] section in {path}")
    kind = cp["source"].get("kind", "")
    if kind not in _SOURCES:
        raise ConfigError(f"[source] kind must be opo, tmsv or direct, got {kind!r}")
    need = _REQUIRED[kind]
    if need.split()[0] not in cp["source"]:
        raise ConfigError(f"[source] kind = {kind} requires {need}")
    source = _read(cp, "source", cls=_SOURCES[kind])

    trigger = None
    output = None
    if kind == "opo":
        for section in ("trigger", "output"):
            if section not in cp:
                raise ConfigError(f"[{section}] section required for an opo source")
        trigger = _read(
            cp, "trigger", required=("tap_amplitude", "filter_width", "window_width")
        )
        envelope = cp["output"].get("envelope", OutputModeSpec.envelope)
        if envelope not in ("exponential", "tabulated"):
            raise ConfigError(
                f"[output] envelope must be exponential or tabulated, got {envelope!r}"
            )
        need = _REQUIRED[envelope]
        if need.split()[0] not in cp["output"]:
            raise ConfigError(f"[output] {envelope} envelope requires {need}")
        output = _read(cp, "output", keys=_KIND_KEYS[envelope])
    elif "trigger" in cp or "output" in cp:
        raise ConfigError(
            "[trigger]/[output] sections apply only to an opo source; "
            f"source kind here is {kind}"
        )

    losses = _read(cp, "losses")

    if "measurement" not in cp:
        raise ConfigError(f"missing [measurement] section in {path}")
    mkind = cp["measurement"].get("kind", "")
    if mkind not in ("number", "on", "click", "vacuum"):
        raise ConfigError(
            f"[measurement] kind must be number, on, click or vacuum, got {mkind!r}"
        )
    if mkind == "number" and "n" not in cp["measurement"]:
        raise ConfigError("[measurement] kind = number requires n")
    if mkind != "number" and "n" in cp["measurement"]:
        raise ConfigError("[measurement] n applies only to number detection")
    measurement = _read(cp, "measurement")
    if measurement.n not in (0, 1, 2):
        raise ConfigError(f"[measurement] n must be 0, 1 or 2, got {measurement.n}")

    return ExperimentConfig(
        source=source,
        measurement=measurement,
        trigger=trigger,
        output=output,
        losses=losses,
        outputs=_read(cp, "outputs"),
        scan=_read(cp, "scan", required=("alpha_min", "alpha_max")) if "scan" in cp else None,
    )


def parse_grid(raw: str) -> GridSpec:
    """Parse a grid spec "xmin,xmax,pmin,pmax,nx,np"."""
    toks = [t.strip() for t in raw.split(",")]
    if len(toks) != 6:
        raise ConfigError(f"grid spec needs 6 comma-separated values, got {raw!r}")
    try:
        xmin, xmax, pmin, pmax = (float(t) for t in toks[:4])
        nx, np_ = int(toks[4]), int(toks[5])
    except ValueError:
        raise ConfigError(f"bad grid spec {raw!r}") from None
    try:
        return GridSpec(xmin=xmin, xmax=xmax, pmin=pmin, pmax=pmax, nx=nx, np_=np_)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {raw!r}: {exc}") from exc
