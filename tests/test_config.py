"""The config reader: every rejection, the defaults of absent keys, and the echo."""

from pathlib import Path

import pytest

from cwherald.cli import main
from cwherald.config import parse_config
from cwherald.covariance import LossParams
from cwherald.wigner import GridSpec

OPO = """\
[source]
kind = opo
gamma1 = 1.0
gamma2 = 0.0
epsilon = 0.01

[trigger]
tap_amplitude = 0.1
filter_width = none
window_center = 0.0
window_width = 0.02
detector_efficiency = 1.0

[output]
envelope = exponential
alpha = 0.5
center = 0.0

[losses]
eta1 = 0.0
xi1 = 0.0
eta2 = 0.0
xi2 = 0.0

[measurement]
kind = click

[outputs]
grid = -5,5,-5,5,201,201

[scan]
alpha_min = 0.25
alpha_max = 0.5
samples = 50
objective = origin_value
"""

TMSV = "[source]\nkind = tmsv\nr = 0.3\n\n[measurement]\nkind = click\n"
DIRECT = "[source]\nkind = direct\ncovariance = cov.txt\n\n[measurement]\nkind = click\n"

SECTIONS = ("source", "trigger", "output", "losses", "measurement", "outputs", "scan")


def edit(text, old, new):
    assert text.count(old) == 1, old
    return text.replace(old, new)


def set_key(text, section, key, value):
    """``text`` with ``key = value`` first in ``[section]``, replacing the key's line."""
    head, _, rest = text.partition(f"[{section}]\n")
    body, sep, tail = rest.partition("\n\n")
    lines = [f"{key} = {value}"] + [ln for ln in body.splitlines() if ln.split(" = ")[0] != key]
    return f"{head}[{section}]\n" + "\n".join(lines) + sep + tail


def drop_section(text, name):
    head, _, rest = text.partition(f"[{name}]\n")
    assert rest, name
    _, _, tail = rest.partition("\n\n")
    return head + tail


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def run_stage(tmp_path, text, stage="run"):
    """Exit code of one stage on the config ``text``, writing under ``tmp_path/out``."""
    cfg = str(write(tmp_path, text))
    return main([stage, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])


NO_SCAN = drop_section(OPO, "scan")
SCAN = "\n[scan]\nalpha_min = 0.25\nalpha_max = 0.5\n"
SCAN_RULE = "[scan] needs an opo source with an exponential [output] envelope"
COHERENCE = "\n[outputs]\ncoherence = true\n"

# configs that break a rule tying sections together, or a range in [output],
# [outputs] or [scan]: each is a configuration error in every stage
RULES = {
    "alpha_zero": (
        set_key(OPO, "output", "alpha", "0"),
        "[output] exponential envelope needs alpha > 0, got 0.0",
    ),
    "alpha_negative": (
        set_key(NO_SCAN, "output", "alpha", "-0.5"),
        "[output] exponential envelope needs alpha > 0, got -0.5",
    ),
    "scan_tabulated": (
        edit(OPO, "exponential\nalpha = 0.5", "tabulated\ntable = env.txt"),
        SCAN_RULE,
    ),
    "scan_tmsv": (TMSV + SCAN, SCAN_RULE),
    "scan_direct": (DIRECT + SCAN, SCAN_RULE),
    "coherence_tmsv": (
        TMSV + COHERENCE,
        "[outputs] coherence = true needs an opo source; source kind here is tmsv",
    ),
    "coherence_direct": (
        DIRECT + COHERENCE,
        "[outputs] coherence = true needs an opo source; source kind here is direct",
    ),
    "coherence_points_two": (
        set_key(NO_SCAN, "outputs", "coherence_points", "2"),
        "[outputs] coherence_points must be at least 3, got 2",
    ),
    "coherence_halfwidth_zero": (
        set_key(NO_SCAN, "outputs", "coherence_halfwidth", "0"),
        "[outputs] coherence_halfwidth must be positive, got 0.0",
    ),
    "coherence_halfwidth_negative": (
        set_key(NO_SCAN, "outputs", "coherence_halfwidth", "-1"),
        "[outputs] coherence_halfwidth must be positive, got -1.0",
    ),
    "samples_zero": (
        set_key(OPO, "scan", "samples", "0"),
        "[scan] samples must be 1 or at least 3, got 0",
    ),
    "samples_two": (
        set_key(OPO, "scan", "samples", "2"),
        "[scan] samples must be 1 or at least 3, got 2",
    ),
}

ERRORS = [
    ("unknown_section", OPO + "\n[bogus]\nx = 1\n", "unknown section [bogus]"),
    *[
        (
            f"unknown_key_{s}",
            edit(OPO, f"[{s}]\n", f"[{s}]\nbogus_knob = 3\n"),
            f"unknown key 'bogus_knob' in section [{s}]",
        )
        for s in SECTIONS
    ],
    ("duplicate_key", edit(OPO, "kind = opo", "kind = opo\nkind = opo"), "config parse error"),
    ("missing_source", drop_section(OPO, "source"), "missing [source] section"),
    ("missing_measurement", drop_section(OPO, "measurement"), "missing [measurement] section"),
    (
        "missing_trigger",
        drop_section(OPO, "trigger"),
        "[trigger] section required for an opo source",
    ),
    ("missing_output", drop_section(OPO, "output"), "[output] section required for an opo source"),
    (
        "source_no_kind",
        edit(OPO, "kind = opo\n", ""),
        "[source] kind must be opo, tmsv or direct, got ''",
    ),
    (
        "source_bad_kind",
        edit(OPO, "kind = opo", "kind = laser"),
        "[source] kind must be opo, tmsv or direct, got 'laser'",
    ),
    ("opo_no_epsilon", edit(OPO, "epsilon = 0.01\n", ""), "[source] kind = opo requires epsilon"),
    ("tmsv_no_r", edit(TMSV, "r = 0.3\n", ""), "[source] kind = tmsv requires r"),
    (
        "direct_no_covariance",
        edit(DIRECT, "covariance = cov.txt\n", ""),
        "[source] kind = direct requires covariance (a file path)",
    ),
    *[
        (
            f"trigger_no_{key}",
            edit(OPO, f"\n{key} = {value}\n", "\n"),
            f"[trigger] missing required key {key}",
        )
        for key, value in (
            ("tap_amplitude", "0.1"),
            ("filter_width", "none"),
            ("window_width", "0.02"),
        )
    ],
    (
        "exponential_no_alpha",
        edit(OPO, "alpha = 0.5\n", ""),
        "[output] exponential envelope requires alpha",
    ),
    (
        "tabulated_no_table",
        edit(OPO, "envelope = exponential", "envelope = tabulated"),
        "[output] tabulated envelope requires table (a file path)",
    ),
    (
        "bad_envelope",
        edit(OPO, "envelope = exponential", "envelope = gaussian"),
        "[output] envelope must be exponential or tabulated, got 'gaussian'",
    ),
    (
        "measurement_no_kind",
        edit(OPO, "[measurement]\nkind = click", "[measurement]"),
        "[measurement] kind must be number, on, click or vacuum, got ''",
    ),
    (
        "measurement_bad_kind",
        edit(OPO, "kind = click", "kind = homodyne"),
        "[measurement] kind must be number, on, click or vacuum, got 'homodyne'",
    ),
    (
        "number_no_n",
        edit(OPO, "kind = click", "kind = number"),
        "[measurement] kind = number requires n",
    ),
    (
        "number_n_out_of_range",
        edit(OPO, "kind = click", "kind = number\nn = 3"),
        "[measurement] n must be 0, 1 or 2, got 3",
    ),
    (
        "n_outside_number",
        edit(OPO, "kind = click", "kind = click\nn = 1"),
        "[measurement] n applies only to number detection",
    ),
    *[
        (
            f"not_a_number_{key}",
            set_key(OPO, section, key, raw),
            f"[{section}] {key} = {raw!r} is not a number",
        )
        for section, key, raw in (
            ("source", "gamma1", "fast"),
            ("source", "epsilon", "1e-2x"),
            ("trigger", "tap_amplitude", "a"),
            ("trigger", "filter_width", "wide"),
            ("trigger", "window_center", "?"),
            ("output", "alpha", "none"),
            ("output", "center", "mid"),
            ("outputs", "coherence_halfwidth", "x"),
            ("scan", "alpha_max", "big"),
        )
    ],
    (
        "tmsv_r_not_a_number",
        edit(TMSV, "r = 0.3", "r = 0.3.1"),
        "[source] r = '0.3.1' is not a number",
    ),
    # cosh 2r overflowed with a numpy warning, and the covariance was non-finite
    (
        "tmsv_r_past_bound",
        edit(TMSV, "r = 0.3", "r = -400"),
        "[source] r = -400 is too large: det V multiplies four entries of cosh 2r, "
        "so |r| must be below 88.72",
    ),
    (
        "n_not_an_integer",
        edit(OPO, "kind = click", "kind = number\nn = 1.5"),
        "[measurement] n = '1.5' is not an integer",
    ),
    (
        "points_not_an_integer",
        edit(OPO, "[outputs]", "[outputs]\ncoherence_points = 2.5"),
        "[outputs] coherence_points = '2.5' is not an integer",
    ),
    (
        "samples_not_an_integer",
        edit(OPO, "samples = 50", "samples = ten"),
        "[scan] samples = 'ten' is not an integer",
    ),
    (
        "coherence_not_a_boolean",
        edit(OPO, "[outputs]", "[outputs]\ncoherence = maybe"),
        "[outputs] coherence = 'maybe' is not a boolean",
    ),
    (
        "grid_too_few_values",
        edit(OPO, "grid = -5,5,-5,5,201,201", "grid = -5,5,-5"),
        "grid spec needs 6 comma-separated values, got '-5,5,-5'",
    ),
    (
        "grid_not_numbers",
        edit(OPO, "grid = -5,5,-5,5,201,201", "grid = -5,5,-5,5,a,b"),
        "bad grid spec '-5,5,-5,5,a,b'",
    ),
    (
        "grid_bad_range",
        edit(OPO, "grid = -5,5,-5,5,201,201", "grid = 5,-5,-5,5,11,11"),
        "bad grid spec '5,-5,-5,5,11,11': bad grid range (5.0, -5.0)",
    ),
    # a cell raises the axis values to the fourth power: past the bound a grid
    # warned of an overflow and wrote nan cells
    (
        "grid_end_past_bound",
        edit(OPO, "grid = -5,5,-5,5,201,201", "grid = -1,1,-5,1e100,3,3"),
        "bad grid spec '-1,1,-5,1e100,3,3': grid range (-5, 1e+100) reaches past "
        "+-1.701e+38: a cell raises the axis values to the fourth power",
    ),
    (
        "unknown_metric",
        edit(OPO, "[outputs]", "[outputs]\nmetrics = probability, fidelity_fock3"),
        "[outputs] unknown metrics ['fidelity_fock3']",
    ),
    (
        "trigger_on_tmsv",
        TMSV + "\n[trigger]\ntap_amplitude = 0.1\n",
        "[trigger]/[output] sections apply only to an opo source; source kind here is tmsv",
    ),
    (
        "output_on_direct",
        DIRECT + "\n[output]\nalpha = 0.5\n",
        "[trigger]/[output] sections apply only to an opo source; source kind here is direct",
    ),
    (
        "eta_out_of_range",
        set_key(OPO, "losses", "eta2", "1.5"),
        "[losses] eta2 must lie in [0, 1], got 1.5",
    ),
    (
        "xi_negative",
        set_key(OPO, "losses", "xi1", "-1"),
        "[losses] xi1 must be nonnegative, got -1.0",
    ),
    (
        "scan_no_alpha_min",
        edit(OPO, "alpha_min = 0.25\n", ""),
        "[scan] missing required key alpha_min",
    ),
    (
        "scan_bad_objective",
        edit(OPO, "objective = origin_value", "objective = purity"),
        "[scan] objective must be origin_value or fock1_fidelity, got 'purity'",
    ),
    (
        "scan_alpha_min_zero",
        set_key(OPO, "scan", "alpha_min", "0"),
        "[scan] bad range [0.0, 0.5]",
    ),
    (
        "scan_reversed_range",
        edit(OPO, "alpha_max = 0.5", "alpha_max = 0.2"),
        "[scan] bad range [0.25, 0.2]",
    ),
    # a malformed loss value is reported once, with one section prefix
    (
        "loss_not_a_number",
        edit(OPO, "eta2 = 0.0", "eta2 = abc"),
        "error [config]: [losses] eta2 = 'abc' is not a number",
    ),
    *[
        (
            f"not_finite_{key}",
            set_key(OPO, section, key, raw),
            f"[{section}] {key} = {raw.lower()!r} is not a finite number",
        )
        for section, key, raw in (
            ("source", "gamma1", "nan"),
            ("source", "epsilon", "inf"),
            ("trigger", "tap_amplitude", "nan"),
            ("trigger", "filter_width", "NaN"),
            ("trigger", "window_center", "inf"),
            ("trigger", "window_width", "-inf"),
            ("trigger", "detector_efficiency", "nan"),
            ("output", "alpha", "inf"),
            ("output", "center", "nan"),
            ("losses", "xi2", "inf"),
            ("outputs", "coherence_halfwidth", "nan"),
            ("scan", "alpha_max", "inf"),
        )
    ],
    (
        "tmsv_r_not_finite",
        edit(TMSV, "r = 0.3", "r = inf"),
        "[source] r = 'inf' is not a finite number",
    ),
    ("default_section", "[DEFAULT]\nfoo = 1\n\n" + OPO, "unknown section [DEFAULT]"),
]

# out-of-range trigger values are configuration errors in every stage
TRIGGER_RANGE = [
    ("tap_above_one", "tap_amplitude", "1.5", "|tap_amplitude| must be <= 1, got 1.5"),
    (
        "efficiency_above_one",
        "detector_efficiency",
        "1.2",
        "detector_efficiency must lie in [0, 1], got 1.2",
    ),
    ("window_zero", "window_width", "0", "window_width must be positive, got 0.0"),
    ("filter_negative", "filter_width", "-5", "filter_width must be positive, got -5.0"),
]


@pytest.mark.parametrize("text, fragment", [c[1:] for c in ERRORS], ids=[c[0] for c in ERRORS])
def test_config_error(tmp_path, capsys, text, fragment):
    assert run_stage(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and err.count("\n") == 1
    assert fragment in err


def test_unreadable_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)]) == 2
    assert "error [config]: cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage", ["run", "covariance", "condition", "metrics", "coherence", "scan-alpha"]
)
@pytest.mark.parametrize(
    "key, value, message", [c[1:] for c in TRIGGER_RANGE], ids=[c[0] for c in TRIGGER_RANGE]
)
def test_trigger_range_is_config_error(tmp_path, capsys, stage, key, value, message):
    text = set_key(set_key(OPO, "trigger", key, value), "outputs", "coherence_points", "5")
    assert run_stage(tmp_path, text, stage) == 2
    assert capsys.readouterr().err == f"error [config]: [trigger] {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "stage", ["run", "covariance", "condition", "metrics", "coherence", "scan-alpha"]
)
@pytest.mark.parametrize(
    "text, message", RULES.values(), ids=list(RULES)
)
def test_rule_is_config_error_in_every_stage(tmp_path, capsys, stage, text, message):
    assert run_stage(tmp_path, text, stage) == 2
    assert capsys.readouterr().err == f"error [config]: {message}\n"
    assert not (tmp_path / "out").exists()


MINIMAL = """\
[source]
kind = opo
epsilon = 0.01

[trigger]
tap_amplitude = 0.1
filter_width = none
window_width = 0.02

[output]
alpha = 0.5

[measurement]
kind = click

[scan]
alpha_min = 0.25
alpha_max = 0.5
"""


class TestDefaults:
    def test_absent_keys(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert (cfg.source.gamma1, cfg.source.gamma2) == (1.0, 0.0)
        t = cfg.trigger
        assert (t.filter_width, t.window_center, t.detector_efficiency) == (None, 0.0, 1.0)
        out = cfg.output
        assert (out.envelope, out.center, out.table) == ("exponential", 0.0, "")
        assert (cfg.losses.eta1, cfg.losses.xi1, cfg.losses.eta2, cfg.losses.xi2) == (0, 0, 0, 0)
        assert cfg.measurement.n == 0
        o = cfg.outputs
        assert o.grid == GridSpec(-5.0, 5.0, -5.0, 5.0, 201, 201)
        assert o.metrics == (
            "probability",
            "wigner_origin",
            "fidelity_fock0",
            "fidelity_fock1",
            "fidelity_fock2",
            "purity",
        )
        assert (o.coherence, o.coherence_halfwidth, o.coherence_points) == (False, 10.0, 201)
        assert (cfg.scan.samples, cfg.scan.objective) == (50, "origin_value")

    def test_empty_sections_take_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, TMSV + "\n[losses]\n\n[outputs]\n"))
        assert cfg.losses == LossParams()
        assert cfg.outputs == parse_config(write(tmp_path, TMSV)).outputs
        assert (cfg.trigger, cfg.output, cfg.scan) == (None, None, None)

    def test_no_scan_section(self, tmp_path):
        assert parse_config(write(tmp_path, drop_section(OPO, "scan"))).scan is None


def test_every_key_of_every_section_is_accepted(tmp_path):
    """Keys another source kind or envelope reads are accepted and not echoed."""
    text = edit(OPO, "epsilon = 0.01", "epsilon = 0.01\nr = 0.3\ncovariance = cov.txt")
    text = edit(text, "\ncenter = 0.0", "\ncenter = 0.0\ntable = env.txt")
    text = edit(
        text,
        "[outputs]",
        "[outputs]\nmetrics = purity, probability\ncoherence = yes\n"
        "coherence_halfwidth = 4\ncoherence_points = 9",
    )
    cfg = parse_config(write(tmp_path, text))
    assert cfg.outputs.metrics == ("purity", "probability")
    assert (cfg.outputs.coherence, cfg.outputs.coherence_halfwidth) == (True, 4.0)
    assert cfg.outputs.coherence_points == 9
    assert cfg.echo_lines() == parse_config(write(tmp_path, OPO)).echo_lines()


LOSSES = "eta1 = 0.1\nxi1 = 0.2\neta2 = 0.25\nxi2 = 0.3\n"
LOSS_ECHO = [
    "config.losses.eta1 = 0.1",
    "config.losses.xi1 = 0.2",
    "config.losses.eta2 = 0.25",
    "config.losses.xi2 = 0.3",
]
NO_LOSS_ECHO = [
    "config.losses.eta1 = 0",
    "config.losses.xi1 = 0",
    "config.losses.eta2 = 0",
    "config.losses.xi2 = 0",
]
CLICK_ECHO = ["config.measurement.kind = click"]
OPO_ECHO = [
    "config.source.kind = opo",
    "config.source.gamma1 = 1",
    "config.source.gamma2 = 0",
    "config.source.epsilon = 0.01",
    "config.trigger.tap_amplitude = 0.1",
    "config.trigger.filter_width = none",
    "config.trigger.window_center = 0",
    "config.trigger.window_width = 0.02",
    "config.trigger.detector_efficiency = 1",
    "config.output.envelope = exponential",
    "config.output.alpha = 0.5",
    "config.output.center = 0",
]

ECHOES = [
    ("opo", OPO, OPO_ECHO + NO_LOSS_ECHO + CLICK_ECHO),
    (
        "opo_filtered_lossy",
        edit(
            edit(OPO, "filter_width = none", "filter_width = 5"),
            "eta1 = 0.0\nxi1 = 0.0\neta2 = 0.0\nxi2 = 0.0\n",
            LOSSES,
        ),
        [line.replace("= none", "= 5") for line in OPO_ECHO] + LOSS_ECHO + CLICK_ECHO,
    ),
    (
        "tmsv",
        TMSV + "\n[losses]\n" + LOSSES,
        ["config.source.kind = tmsv", "config.source.r = 0.3"]
        + LOSS_ECHO
        + CLICK_ECHO,
    ),
    (
        "direct",
        DIRECT,
        ["config.source.kind = direct", "config.source.covariance = cov.txt"]
        + NO_LOSS_ECHO
        + CLICK_ECHO,
    ),
    (
        "tabulated",
        edit(
            edit(NO_SCAN, "exponential\nalpha = 0.5", "tabulated\ntable = env.txt"),
            "\ncenter = 0.0",
            "\ncenter = 1.5",
        ),
        OPO_ECHO[:9]
        + [
            "config.output.envelope = tabulated",
            "config.output.table = env.txt",
            "config.output.center = 1.5",
        ]
        + NO_LOSS_ECHO
        + CLICK_ECHO,
    ),
    (
        "number",
        edit(TMSV, "kind = click", "kind = number\nn = 2"),
        ["config.source.kind = tmsv", "config.source.r = 0.3"]
        + NO_LOSS_ECHO
        + ["config.measurement.kind = number", "config.measurement.n = 2"],
    ),
]


@pytest.mark.parametrize("text, lines", [c[1:] for c in ECHOES], ids=[c[0] for c in ECHOES])
def test_echo_lines(tmp_path, text, lines):
    assert parse_config(write(tmp_path, text)).echo_lines() == lines


def test_summary_ends_with_echo(tmp_path):
    """The metrics stage writes the echo after the values, unchanged."""
    cfg_path = write(tmp_path, edit(TMSV, "kind = click", "kind = number\nn = 1"))
    assert main(["covariance", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]) == 0
    assert main(["condition", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]) == 0
    assert main(["metrics", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"]) == 0
    lines = Path(tmp_path / "summary.txt").read_text().splitlines()
    assert lines[6:] == parse_config(cfg_path).echo_lines()
    assert lines[0].startswith("probability = ")
