import argparse
import csv
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import hhsim
from hhsim import hubbard, lattice, phases, rydberg
from hhsim.cli import DEFAULTS, FIGURES, _linspace, build_parser, main
from hhsim.constants import A_BOHR, H_PLANCK, M_RB87
from hhsim.lattice import PATTERN_CONSTRUCTORS

from _oracles import symmetric_orbits


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def _error(capsys, out, argv):
    """The message of the one JSON line on stderr with which ``hhsim --out out
    <argv>`` exits 1, having written nothing to stdout and made no ``out``."""
    assert main(["--out", str(out)] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    (line,) = captured.err.splitlines()
    return json.loads(line)["error"]


def test_no_subcommand_prints_usage():
    assert main([]) == 2


def test_explain_defaults(capsys):
    assert main(["--explain-defaults"]) == 0
    out = capsys.readouterr().out
    for key in DEFAULTS:
        assert key in out


def test_stark_writes_tables_and_manifest(tmp_path):
    out = tmp_path / "stark"
    assert main(["--out", str(out), "stark", "--species", "K-40", "--steps", "51"]) == 0
    names = {m["file"] for m in _manifest(out)["files"]}
    assert names == {"stark_sweep.csv", "stark_zeros.json"}
    rows = list(csv.reader((out / "stark_sweep.csv").open()))
    assert rows[0] == ["wavelength_nm", "V_nK"]
    assert len(rows) > 40
    zeros = json.loads((out / "stark_zeros.json").read_text())
    assert 766.7 < zeros["lambda_zero_nm"] < 770.1


def test_stark_unknown_species(capsys):
    # the species are argparse choices: a usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["stark", "--species", "Na-23"])
    assert exc.value.code == 2
    assert "invalid choice: 'Na-23'" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["1", "0"])
def test_stark_needs_two_steps(tmp_path, capsys, steps):
    message = _error(capsys, tmp_path / "stark", ["stark", "--steps", steps])
    assert message.startswith("stark --steps must be at least 2")


@pytest.mark.parametrize("steps", ["1", "0", "-3"])
def test_phonon_needs_two_steps_before_any_output(tmp_path, capsys, steps):
    message = _error(capsys, tmp_path / "ph", ["phonon", "--steps", steps])
    assert message.startswith("phonon --steps must be at least 2")


@pytest.mark.parametrize("cmd", ["binding", "pair", "params"])
@pytest.mark.parametrize("steps", ["1", "0", "-1"])
def test_sweeps_need_two_steps_before_any_output(tmp_path, capsys, cmd, steps):
    message = _error(capsys, tmp_path / "sweep", [cmd, "--steps", steps])
    assert message.startswith(f"{cmd} --steps must be at least 2")


@pytest.mark.parametrize("argv, message", [
    (["binding", "--t-prime", "0"], "t_prime must be positive"),
    (["binding", "--t-prime", "-1", "--steps", "2"], "t_prime must be positive"),
    (["binding", "--model", "full", "--t-prime", "0"], "t_prime must be positive"),
    (["binding", "--model", "full", "--t-prime", "nan"], "t_prime must be finite"),
    (["binding", "--model", "physical", "--t", "0"], "t must be positive"),
    (["binding", "--model", "physical", "--t", "-1"], "t must be positive"),
    (["binding", "--model", "physical", "--t", "nan"], "t must be finite"),
])
def test_binding_rejects_bad_t_prime_before_any_output(tmp_path, capsys, argv, message):
    assert message in _error(capsys, tmp_path / "binding", argv)


@pytest.mark.parametrize("argv, message", [
    (["binding", "--v-max", "inf"], "binding --v-max must be finite, got inf"),
    (["pair", "--v-min", "nan"], "pair --v-min must be finite, got nan"),
    (["params", "--v0-max", "inf"], "params --v0-max must be finite, got inf"),
    (["stark", "--wl-min", "nan"], "stark --wl-min must be finite, got nan"),
    (["stark", "--wl-max", "inf"], "stark --wl-max must be finite, got inf"),
    # a zero bound is used as given, not replaced by the default
    (["stark", "--wl-min", "0"], "wavelength must be positive"),
    # finite bounds whose difference overflows
    (["binding", "--v-min=-1.7e308", "--v-max", "1.7e308"],
     "binding --v-max minus --v-min must be finite, got inf"),
    (["pair", "--v-min", "1.7e308", "--v-max=-1.7e308"],
     "pair --v-max minus --v-min must be finite, got -inf"),
    (["params", "--v0-min=-1.7e308", "--v0-max", "1.7e308"],
     "params --v0-max minus --v0-min must be finite, got inf"),
    (["stark", "--wl-min=-1.7e308", "--wl-max", "1.7e308"],
     "stark --wl-max minus --wl-min must be finite, got inf"),
    # a coupling beyond 2^128 t': U defaults to each V, and is checked first
    (["pair", "--v-min=-1e308"],
     "U must lie in [-2^128 t', 2^128 t'] = [-3.40282e+38, 3.40282e+38], got -1e+308"),
    (["pair", "--U", "-1", "--v-min=-1e308"],
     "V2 must lie in [-2^128 t', 2^128 t'] = [-3.40282e+38, 3.40282e+38], got -1e+308"),
    # the determinant entries of this scan overflowed with numpy warnings
    (["pair", "--U=1e308", "--t-prime=2", "--v-max=0.5"],
     "U must lie in [-2^128 t', 2^128 t'] = [-6.80565e+38, 6.80565e+38], got 1e+308"),
    (["binding", "--v-max", "1e300"],
     "V must lie in [-2^128 t', 2^128 t'] = [-3.40282e+38, 3.40282e+38], got 5e+299"),
])
def test_sweep_bounds_are_checked_before_any_output(tmp_path, capsys, argv, message):
    # the whole of stderr is the JSON error: no numpy warning before it
    assert message in _error(capsys, tmp_path / "sweep", argv + ["--steps", "3"])


@pytest.mark.parametrize("config, message", [
    ("omega-ratio: 5\n", "unknown key 'omega-ratio'"),
    ('n_B: "0.02"\n', "n_B must be a number, got '0.02'"),
])
def test_config_keys_and_values_are_checked_before_any_output(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    assert message in _error(capsys, tmp_path / "phase", ["--config", str(cfg), "phase"])


@pytest.mark.parametrize("config, message", [
    # positive, but r_c^6 overflows, r_c^6 underflows, or alpha_bar^4 C6 underflows
    ("r_c_over_a: 1.0e+60\n", "r_c**eta must be finite, got inf"),
    ("r_c_over_a: 1.0e-60\n", "r_c**eta must be positive, got 0.0"),
    ("alpha_bar: 1.0e-300\n", "V_tilde must be positive, got 0.0"),
])
def test_degenerate_rydberg_config_is_rejected_before_any_output(tmp_path, capsys, config,
                                                                  message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    argv = ["--config", str(cfg), "phi-map", "--pattern", "holstein"]
    assert _error(capsys, tmp_path / "phi", argv) == message


@pytest.mark.parametrize("text", [None, "a: [1.6\n"], ids=["missing", "malformed"])
def test_unreadable_config_is_a_json_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    if text is not None:
        cfg.write_text(text)
    message = _error(capsys, tmp_path / "binding", ["--config", str(cfg), "binding"])
    assert message.startswith(f"config {cfg}: ")


@pytest.mark.parametrize("key, value", [(key, "nan") for key in sorted(DEFAULTS)]
                         + [("a_s0", "inf")])
def test_non_finite_config_value_is_rejected_before_any_output(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{key}: .{value}\n")
    message = _error(capsys, tmp_path / "fig", ["--config", str(cfg), "figures"])
    assert message == f"config {cfg}: {key} must be finite, got {value}"


@pytest.mark.parametrize("key", ["a", "r_c_over_a", "n_B", "alpha_bar", "w_ph", "V0_ph_scale",
                                 "omega_ratio"])
@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_config_value_is_rejected_by_its_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{key}: {value}\n")
    message = _error(capsys, tmp_path / "fig", ["--config", str(cfg), "figures"])
    assert message == f"config {cfg}: {key} must be positive, got {value}"


# the domains of the keys that the library calls check, each named with its value
@pytest.mark.parametrize("config, message", [
    ("prefactor: -1\n", "intensity_prefactor must be nonnegative, got -1"),   # the first bundle
    ("D: -1\n", "D must lie in [0, w_ph/2] = [0, 0.3] (a larger D forms a double well), got -1"),
    ("n_ryd: 26\n", "n_ryd must lie in [27, 32], got 26"),   # raised after the Stark bundles
    ("eta: 0\n", "eta must be 3 or 6, got 0"),
    ("n_B: 2\n", "n_B must lie in (0, 1), got 2"),           # raised by the last bundle
])
def test_failed_figures_run_writes_no_file(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    assert _error(capsys, tmp_path / "fig", ["--config", str(cfg), "figures"]) == message


def test_config_integer_beyond_the_float_range_is_rejected_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("a: 1" + "0" * 400 + "\n")
    message = _error(capsys, tmp_path / "binding", ["--config", str(cfg), "binding", "--steps", "3"])
    assert message == f"config {cfg}: a must be finite, got {10**400}"


@pytest.mark.parametrize("argv, field", [(["--ellipticity", "nan"], "ellipticity"),
                                         (["--gf", "nan", "--mf", "1"], "g_F")])
def test_stark_rejects_non_finite_state_before_any_output(tmp_path, capsys, argv, field):
    message = _error(capsys, tmp_path / "stark", ["stark"] + argv)
    assert message == f"{field} must be finite, got nan"


@pytest.mark.parametrize("argv, flags", [
    pytest.param(["--format", "json", "phase", "--T", "2", "--v0-max", "1e6"], ["--v0-max 1000000.0"],
                 id="phase-deep-lattice"),
    pytest.param(["phase", "--lam-max", "1e308"], ["--lam-max 1e+308"], id="phase-t-pair-overflows"),
    pytest.param(["stark", "--gf=-1e308", "--mf", "5"], ["--gf -1e+308", "--mf 5.0"],
                 id="stark-shift-overflows"),
    pytest.param(["phonon", "--v0-ph", "1e308", "--steps", "3"],
                 ["--v0-ph 1e+308"], id="phonon-hessian-overflows"),
    pytest.param(["phonon", "--v0-ph", "1e305", "--steps", "3"],
                 ["--v0-ph 1e+305"], id="phonon-frequency-overflows"),
])
def test_finite_flags_whose_results_overflow_are_rejected_by_name(tmp_path, capsys, argv, flags):
    # exit 1 with one JSON line on stderr, no warning before it, and no file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = _error(capsys, tmp_path / "out", argv)
    assert all(flag in message for flag in flags)


@pytest.mark.parametrize("argv, message", [
    # V0 = 1e-300 nK underflows the phonon frequency to 0, and lies below the recoil
    # energy, where hopping_t warns: the warning is shown only by a run that succeeds
    pytest.param(["params", "--v0-min", "1e6", "--v0-max", "1e-300", "--steps", "5"],
                 "params --v0-min 1000000.0 to --v0-max 1e-300: at V0 = 1e-300 nK the hopping, "
                 "the phonon frequency or W lambda leaves the float range", id="params-shallow"),
    pytest.param(["params", "--v0-min", "1", "--v0-max", "2e7", "--steps", "3"],
                 "params --v0-min 1.0 to --v0-max 20000000.0: at V0 = 10000000.5 nK the hopping, "
                 "the phonon frequency or W lambda leaves the float range", id="params-deep"),
])
def test_params_depths_out_of_the_float_range_end_in_one_error_line_alone(argv, message):
    # in a new interpreter, with the default warning filters, as a user runs it:
    # exit 1, and stderr is the JSON line, with no warning before it
    proc = _python("-m", "hhsim.cli", *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == json.dumps({"error": message}) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["--v0-max=-1e6"], "phase --v0-max must be positive, got -1000000.0"),
    (["--v0-min=0"], "phase --v0-min must be positive, got 0.0"),
])
def test_phase_depths_must_be_positive_by_flag(tmp_path, capsys, argv, message):
    # the check once named V0 in Hz, a value no flag holds
    assert _error(capsys, tmp_path / "phase", ["phase"] + argv) == message


_PHASE_RANGES = "phase --v0-min 20.0 to --v0-max {}, --lam-min 0.05 to --lam-max {}: "


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--v0-max=1e308"], _PHASE_RANGES.format("1e+308", "5.0")
                 + "V0 in Hz is not finite at V0 = 1e+308 nK", id="phase-depth-in-hz"),
    pytest.param(["--lam-max=1e308"], _PHASE_RANGES.format("600.0", "1e+308")
                 + "T_pair is not finite at V0 = 20.0 nK, lambda = 1e+308", id="phase-t-pair"),
])
def test_phase_failures_past_a_shallow_depth_end_in_one_error_line_alone(argv, message):
    # V0 = 20 nK lies below the recoil energy, where hopping_t warns; in a new
    # interpreter, as a user runs it, a failing run prints its JSON line alone
    proc = _python("-m", "hhsim.cli", "phase", "--v0-min=20", "--v0-steps", "2",
                   "--lam-steps", "2", *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == json.dumps({"error": message}) + "\n"


def test_a_shallow_phase_run_that_succeeds_shows_the_warning():
    proc = _python("-m", "hhsim.cli", "phase", "--v0-min=20", "--v0-steps", "2", "--lam-steps", "2")
    assert proc.returncode == 0
    assert "UserWarning: hopping_t: V0 < E_rec is outside the deep-lattice regime" in proc.stderr


def test_out_naming_a_file_is_a_json_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert main(["--out", str(out), "binding", "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert str(out) in json.loads(line)["error"]
    assert out.read_text() == "keep\n"


def _python(*args, check=False):
    """``python *args`` in a new interpreter that imports this hhsim, with
    stdout and stderr captured; this interpreter has loaded scipy through
    other tests, and pytest records its warnings."""
    src = str(Path(hhsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=check)


def _fresh_python(script):
    """stdout of ``script`` in a new interpreter."""
    return _python("-c", script, check=True).stdout


_PAIRS = ("elliptic", "greens", "orbits", "pairs")


# Each run in a new interpreter: the hhsim modules it loads beyond hhsim,
# hhsim.cli and hhsim.constants, which of OpenSSL (_hashlib), numpy,
# scipy, PyYAML, json and dataclasses it loads, and main's exit status.
# "{tmp}" in argv is a fresh directory holding cfg.yaml.  json loads only
# with JSON output, a manifest or an error line, and dataclasses (which
# imports inspect) only with a module that defines a dataclass.
_DATA = ("dataclasses",)


@pytest.mark.parametrize("argv, modules, extras, status", [
    pytest.param(None, (), (), None, id="import"),
    pytest.param(["--explain-defaults"], (), (), 0, id="explain-defaults"),
    pytest.param(["stark", "--steps", "3"], ("stark",), _DATA + ("json",), 0, id="stark"),
    pytest.param(["phonon", "--steps", "3"], ("lattice",), _DATA + ("json", "numpy"), 0,
                 id="phonon"),
    pytest.param(["phi-map", "--pattern", "holstein"], ("lattice", "rydberg"),
                 _DATA + ("numpy",), 0, id="phi-map"),
    pytest.param(["params", "--steps", "2"], ("hubbard", "lattice", "rydberg"),
                 _DATA + ("numpy",), 0, id="params"),
    pytest.param(["binding", "--steps", "3"], ("orbits",), (), 0, id="binding"),
    pytest.param(["binding", "--model", "full", "--steps", "3"], ("orbits",), (), 0,
                 id="binding-full"),
    pytest.param(["binding", "--model", "physical", "--steps", "3"], ("orbits",), (), 0,
                 id="binding-physical"),
    pytest.param(["--format", "json", "binding", "--steps", "3"], ("orbits",), ("json",), 0,
                 id="binding-json"),
    pytest.param(["binding", "--steps", "1"], ("orbits",), ("json",), 1, id="binding-error"),
    pytest.param(["--out", "{tmp}/out", "binding", "--steps", "3"], ("orbits",),
                 ("_hashlib", "json"), 0, id="binding-out"),
    pytest.param(["--config", "{tmp}/cfg.yaml", "binding", "--steps", "3"], ("orbits",), ("yaml",),
                 0, id="binding-config"),
    pytest.param(["pair", "--U", "-6", "--steps", "2"], _PAIRS, _DATA + ("numpy",), 0, id="pair"),
    pytest.param(["--out", "{tmp}/out", "oracle", "--U", "-8", "--sizes", "4"],
                 _PAIRS + ("oracle",), _DATA + ("_hashlib", "json", "numpy", "scipy"), 0,
                 id="oracle"),
    pytest.param(["phase", "--v0-steps", "2", "--lam-steps", "2"],
                 _PAIRS + ("hubbard", "phases"), _DATA + ("numpy",), 0, id="phase"),
    pytest.param(["figures"], _PAIRS + ("hubbard", "lattice", "phases", "rydberg", "stark"),
                 _DATA + ("json", "numpy"), 0, id="figures"),
])
def test_each_run_loads_only_the_modules_it_calls(tmp_path, argv, modules, extras, status):
    (tmp_path / "cfg.yaml").write_text("a: 1.73\n")
    run = "" if argv is None else (
        "with contextlib.redirect_stdout(io.StringIO()),"
        " contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({[arg.format(tmp=tmp_path) for arg in argv]!r}) == {status}\n")
    # sys.modules is read before the script imports json itself
    loaded = _fresh_python(
        "import contextlib, io, sys\nfrom hhsim.cli import main\n" + run
        + "loaded = sorted(sys.modules)\nimport json\n"
        "print(json.dumps([[m for m in loaded if m.split('.')[0] == 'hhsim'],"
        " sorted({m.split('.')[0] for m in loaded}"
        " & {'_hashlib', 'dataclasses', 'json', 'numpy', 'scipy', 'yaml'})]))")
    expected = sorted(["hhsim", "hhsim.cli", "hhsim.constants"] + [f"hhsim.{m}" for m in modules])
    assert json.loads(loaded) == [expected, sorted(extras)]


_SEEDED = np.random.default_rng(29).uniform(-50.0, 50.0, (4, 2)).tolist()


@pytest.mark.parametrize("lo, hi, n", [
    *[(lo, hi, n) for (lo, hi), n in zip(_SEEDED, (2, 7, 41, 401))],
    (20.0, -3.3, 17),                       # reversed bounds
    (2.0, 2.0, 3),                          # a zero step
    (0.0, 3 * 5e-324, 4),                   # three subnormals, one per step
    (-5e-324, 2 * 5e-324, 9),               # three subnormals over 8 steps: the step rounds to 0
    (1.0, 1.0 + 2.0**-52, 5),               # one ulp over 4 steps
    (-0.1, 0.1, 2),
    (-1.7e308, 1.7e308, 5),                 # hi - lo overflows: a nan first point
])
def test_linspace_has_the_bits_of_numpy_linspace(lo, hi, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(lo, hi, n)
    assert np.array(_linspace(lo, hi, n)).view(np.uint64).tolist() == \
        expected.view(np.uint64).tolist()


def test_package_loads_submodules_on_attribute_access():
    assert _fresh_python(
        "import sys, hhsim; print('hhsim.oracle' in sys.modules, "
        "hhsim.oracle is sys.modules['hhsim.oracle'])"
    ) == "False True\n"
    with pytest.raises(AttributeError, match="no_such_module"):
        hhsim.no_such_module


def test_output_deterministic(tmp_path, monkeypatch):
    args = ["binding", "--model", "diagonal", "--steps", "11"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(d1)] + args) == 0
    # a day later by the wall clock: a timestamp in any output would differ
    later, gmtime = time.time() + 86400.0, time.gmtime
    monkeypatch.setattr(time, "time", lambda: later)
    monkeypatch.setattr(time, "gmtime", lambda secs=None: gmtime(later if secs is None else secs))
    assert main(["--out", str(d2)] + args) == 0
    f1 = {m["file"]: m["sha256"] for m in _manifest(d1)["files"]}
    f2 = {m["file"]: m["sha256"] for m in _manifest(d2)["files"]}
    assert f1 == f2
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_json_format(tmp_path):
    out = tmp_path / "j"
    assert main(["--out", str(out), "--format", "json", "binding", "--steps", "5"]) == 0
    data = json.loads((out / "threshold_diagonal.json").read_text())
    assert isinstance(data, list) and {"V", "U_cr", "pole"} <= set(data[0])


def test_json_format_writes_a_pole_as_null(tmp_path):
    # U_cr is infinite at the pole V = -3 pi t'/4; RFC 8259 has no Infinity
    out = tmp_path / "j"
    assert main(["--out", str(out), "--format", "json", "binding", "--v-min", "-2.356194490192345",
                 "--v-max", "-2", "--steps", "2"]) == 0

    def no_constants(name):
        raise ValueError(f"non-JSON constant {name}")

    rows = json.loads((out / "threshold_diagonal.json").read_text(), parse_constant=no_constants)
    assert [(r["pole"], r["U_cr"] is None) for r in rows] == [(1, True), (0, False)]


def test_config_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"a": 2.0}))
    out = tmp_path / "p"
    assert main(["--config", str(cfg), "--out", str(out), "phi-map"]) == 0
    assert (out / "phi_map.csv").exists()
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    message = _error(capsys, tmp_path / "bad", ["--config", str(bad), "phi-map"])
    assert message == f"config {bad}: expected a mapping at top level"


def test_phonon_subcommand(tmp_path):
    out = tmp_path / "ph"
    assert main(["--out", str(out), "phonon", "--pattern", "crossed", "--steps", "21"]) == 0
    rec = json.loads((out / "phonon_modes.json").read_text())
    assert rec["pattern"] == "Crossed"
    assert len(rec["modes"]) == 2
    assert all(m["omega_rad_s"] >= 0.0 for m in rec["modes"])


@pytest.mark.parametrize("name", sorted(PATTERN_CONSTRUCTORS))
def test_phonon_record_holds_only_the_pattern_and_its_modes(tmp_path, name):
    # a two-spot closed form beside the modes would repeat them, and is
    # wrong for the four-spot crossed site
    out = tmp_path / "ph"
    assert main(["--out", str(out), "phonon", "--pattern", name, "--steps", "2"]) == 0
    assert set(json.loads((out / "phonon_modes.json").read_text())) == {"pattern", "modes"}


def test_pattern_choices_are_the_registry():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for cmd in ("phonon", "phi-map"):
        parser.parse_args([cmd])   # a subcommand's flags are added when it is first parsed
        action = next(a for a in commands.choices[cmd]._actions if a.dest == "pattern")
        assert list(action.choices) == sorted(PATTERN_CONSTRUCTORS)
    with pytest.raises(SystemExit):
        main(["phi-map", "--pattern", "no-such-pattern"])


# b/a' = 1.5 and b = -1 lie outside an offset pattern's range, 0 < b < a sqrt(2)
@pytest.mark.parametrize("argv, message", [
    pytest.param(["phi-map", "--pattern", "crossed", "--b-over-aprime", "0.3"], "plaquette",
                 id="argv0"),
    pytest.param(["phi-map", "--pattern", "bipartite-parallel", "--b-over-aprime", "0.5"],
                 "plaquette", id="argv1"),
    pytest.param(["phonon", "--pattern", "crossed", "--b", "0.5"], "plaquette", id="argv2"),
    pytest.param(["phonon", "--pattern", "bipartite-parallel", "--b", "0.2"], "plaquette",
                 id="argv3"),
    pytest.param(["phi-map", "--b-over-aprime", "1.5"],
                 "b must lie in (0, a*sqrt(2)) = (0, 2.4466), got 3.6699", id="phi-map-b-too-far"),
    pytest.param(["phonon", "--b", "-1"], "b must lie in (0, a*sqrt(2)) = (0, 2.4466), got -1",
                 id="phonon-b-negative"),
    # the holstein pattern's phonon site lies short of the next fermion site, 0 <= b < a
    pytest.param(["phonon", "--pattern", "holstein", "--b", "100"],
                 "b must lie in [0, a) = [0, 1.73), got 100", id="phonon-holstein-b-too-far"),
    pytest.param(["phi-map", "--pattern", "holstein", "--b-over-aprime", "-1"],
                 "b must lie in [0, a) = [0, 1.73), got -2.4466", id="phi-map-holstein-b-negative"),
])
def test_offset_on_plaquette_centred_pattern_is_an_error(tmp_path, argv, message, capsys):
    assert message in _error(capsys, tmp_path / "out", argv)


def test_oracle_subcommand_with_compare(tmp_path):
    out = tmp_path / "or"
    assert main(["--out", str(out), "oracle", "--U", "-8", "--V1", "-8",
                 "--sizes", "8,12,16", "--compare"]) == 0
    rec = json.loads((out / "oracle_summary.json").read_text())
    assert len(rec["determinant_roots"]) == 2
    assert rec["E_inf"] < -8.0


def test_oracle_diagonal_rejects_V2(tmp_path, capsys):
    message = _error(capsys, tmp_path / "or", ["oracle", "--U", "-8", "--V2", "-8"])
    assert message == "oracle --model diagonal takes its V from --V1; --V2 must be 0"


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "16,x"], "oracle --sizes '16,x': invalid literal for int() with base 10: 'x'"),
    (["--sizes", "16,5"], "oracle --sizes '16,5': L must be an even integer >= 4"),
    (["--n-states", "0"], "oracle --n-states must be positive, got 0"),
    (["--n-states", "-2"], "oracle --n-states must be positive, got -2"),
])
def test_oracle_sizes_and_n_states_are_checked_before_any_ed(tmp_path, capsys, monkeypatch,
                                                              argv, message):
    def no_ed(*args, **kwargs):
        raise AssertionError("ED ran before the flags were checked")

    monkeypatch.setattr(hhsim.oracle, "ground_energies", no_ed)
    assert _error(capsys, tmp_path / "or", ["oracle", "--U", "-8"] + argv) == message


def test_oracle_n_states_beyond_the_sector_is_an_error(tmp_path, capsys):
    message = _error(capsys, tmp_path / "or",
                     ["oracle", "--U", "-8", "--sizes", "4", "--n-states", "50"])
    dim = len(symmetric_orbits(4, ({(0, 0)}, {(1, 1), (-1, -1)}))[1])   # the diagonal model's A1
    assert message == f"n_states must be at most {dim - 2} in the {dim}-state symmetric sector, got 50"


def test_pair_and_params_subcommands(tmp_path):
    out = tmp_path / "pp"
    assert main(["--out", str(out), "pair", "--U", "-6", "--steps", "5"]) == 0
    assert main(["--out", str(out), "params", "--steps", "3"]) == 0
    assert (out / "pair_energies.csv").exists()
    rows = list(csv.reader((out / "params_sweep.csv").open()))
    assert rows[0] == ["V0_nK", "t_Hz", "U_Hz", "W_lambda_Hz"]


def test_phase_subcommand(tmp_path):
    out = tmp_path / "phase"
    assert main(["--out", str(out), "phase", "--v0-steps", "5", "--lam-steps", "6"]) == 0
    rows = list(csv.reader((out / "phase_grid.csv").open()))
    assert len(rows) == 1 + 5 * 6
    assert (out / "phase_contour.csv").exists()
    # one row per (V0, lambda) cell, V0 outer, columns from the same cell
    V0s, lams = np.linspace(100.0, 600.0, 5), np.linspace(0.05, 5.0, 6)
    grid = phases.phase_grid(V0s, lams, 20.0, phases.PhaseFamily())
    for k, (V0, lam, T_pair, T_bkt, label) in enumerate(rows[1:]):
        i, j = divmod(k, 6)
        assert float(V0) == pytest.approx(V0s[i], rel=1e-9)
        assert float(lam) == pytest.approx(lams[j], rel=1e-9)
        assert float(T_pair) == pytest.approx(grid.T_pair[i, j], rel=1e-9, abs=0.0)
        assert float(T_bkt) == pytest.approx(grid.T_bkt[i, j], rel=1e-9)
        assert label == grid.label[i, j]


@pytest.mark.parametrize("config, argv, name", [
    ({"omega_ratio": 0}, [], "omega_ratio must be positive"),
    ({"a": float("nan")}, [], "a must be finite"),
    ({}, ["--T", "nan"], "T must be finite"),
    ({}, ["--lam-min=-1", "--lam-max", "1", "--lam-steps", "3"],
     "lambda must be nonnegative, got -1.0"),
    ({}, ["--T", "-5"], "T must be nonnegative, got -5.0"),
])
def test_phase_rejects_bad_inputs_before_any_output(tmp_path, capsys, config, argv, name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(config))
    assert name in _error(capsys, tmp_path / "phase", ["--config", str(cfg), "phase"] + argv)


@pytest.mark.parametrize("flag, steps", [("--lam-steps", "0"), ("--lam-steps", "1"),
                                         ("--v0-steps", "1"), ("--v0-steps", "-2")])
def test_phase_steps_need_two_before_any_output(tmp_path, capsys, flag, steps):
    message = _error(capsys, tmp_path / "phase", ["phase", flag, steps])
    assert message.startswith(f"phase {flag} must be at least 2")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--v0-min", "nan"], "phase --v0-min must be finite, got nan", id="v0-min-nan"),
    pytest.param(["--v0-max", "inf"], "phase --v0-max must be finite, got inf", id="v0-max-inf"),
    pytest.param(["--lam-min", "inf"], "phase --lam-min must be finite, got inf", id="lam-min-inf"),
    pytest.param(["--lam-max", "nan"], "phase --lam-max must be finite, got nan", id="lam-max-nan"),
    pytest.param(["--v0-min=-1.7e308", "--v0-max", "1.7e308"],
                 "phase --v0-max minus --v0-min must be finite, got inf", id="v0-span-overflows"),
])
def test_phase_bounds_are_checked_before_any_output(tmp_path, capsys, argv, message):
    # the whole of stderr is the JSON error, and it names the flags
    assert _error(capsys, tmp_path / "phase", ["phase"] + argv) == message


def test_params_t_and_U_come_from_parameter_sweep(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"a": 1.6123, "a_s0": 85.0}))
    out = tmp_path / "params"
    assert main(["--config", str(cfg), "--out", str(out), "--format", "json",
                 "params", "--v0-min", "120", "--v0-max", "480", "--steps", "7"]) == 0
    rows = json.loads((out / "params_sweep.json").read_text())
    ref = hubbard.parameter_sweep(np.linspace(120.0, 480.0, 7), 1.6123,
                                  a_s_um=85.0 * A_BOHR * 1e6)
    assert [(r["V0_nK"], r["t_Hz"], r["U_Hz"]) for r in rows] == [
        (r["V0_nK"], r["t_Hz"], r["U_Hz"]) for r in ref]


def test_params_w_lambda_is_the_t_independent_closed_form(tmp_path):
    # W lam = Phi_00 / (2 M_Rb omega^2) / h, omega the two-spot frequency at V0_ph_scale V0
    config = {"a": 1.6123, "n_ryd": 29, "r_c_over_a": 0.12, "V0_ph_scale": 2.2,
              "w_ph": 0.62, "D": 0.29}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "params"
    assert main(["--config", str(cfg), "--out", str(out), "--format", "json",
                 "params", "--v0-min", "150", "--v0-max", "550", "--steps", "5"]) == 0
    rows = json.loads((out / "params_sweep.json").read_text())
    a = config["a"]
    spec = rydberg.RydbergSpec(C6=rydberg.c6_interpolated(29), r_c=0.12 * a,
                               alpha_bar=DEFAULTS["alpha_bar"][0])
    phi00 = rydberg.effective_interaction(lattice.holstein_reference(a, 100.0, 0.62, 0.29),
                                          spec, a).phi00
    phi00_si = phi00 * (1e6 * H_PLANCK) ** 2 / 1e-12   # MHz^2/um^2 -> J^2/m^2
    assert len(rows) == 5
    for r in rows:
        omega = lattice.two_spot_frequency(2.2 * r["V0_nK"], 0.62, 0.29, M_RB87)
        closed = phi00_si / (2.0 * M_RB87 * omega**2) / H_PLANCK
        assert abs(r["W_lambda_Hz"] - closed) <= 1e-14 * closed


def _files(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.fixture(scope="module")
def figures_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("figures")
    cfg = root / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"a": 1.6123, "n_ryd": 29, "prefactor": 1.1}))
    assert main(["--config", str(cfg), "--out", str(root / "fig"), "figures"]) == 0
    return root, cfg


def test_figures_bundles_equal_standalone_runs(figures_run):
    root, cfg = figures_run
    figures = _files(root / "fig")
    expected = {"manifest.json"}
    for k, (suffix, argv) in enumerate(FIGURES):
        alone = root / f"alone{k}"
        assert main(["--config", str(cfg), "--out", str(alone)] + argv) == 0
        for name, payload in _files(alone).items():
            if name == "manifest.json":
                continue
            stem, ext = name.rsplit(".", 1)
            assert figures[f"{stem}{suffix}.{ext}"] == payload, (argv, name)
            expected.add(f"{stem}{suffix}.{ext}")
    assert set(figures) == expected
    assert {f"phi_map_{p}.csv" for p in ("holstein", "offset_parallel", "crossed",
                                         "bipartite_parallel")} <= expected
    assert "phi_nnn_sweep_offset_parallel.csv" in expected


def test_figures_output_deterministic(figures_run):
    root, cfg = figures_run
    assert main(["--config", str(cfg), "--out", str(root / "again"), "figures"]) == 0
    assert _files(root / "again") == _files(root / "fig")


# ------------------------------------------- one settings path: --config only

def _figure_files(root, settings):
    cfg = root / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(settings))
    out = root / "fig"
    assert main(["--config", str(cfg), "--out", str(out), "figures"]) == 0
    files = _files(out)
    del files["manifest.json"]
    return files


@pytest.fixture(scope="module")
def default_figures(tmp_path_factory):
    return _figure_files(tmp_path_factory.mktemp("defaults"), {})


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_each_default_alone_in_config_changes_a_figure(tmp_path, default_figures, key):
    value = DEFAULTS[key][0]
    # the dressed pair potential takes eta 3 or 6
    changed = 3 if key == "eta" else value + 1 if isinstance(value, int) else value * 1.05
    assert _figure_files(tmp_path, {key: changed}) != default_figures


def test_no_subcommand_flag_shadows_a_default():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        # a subcommand's flags are added when it is first parsed; oracle requires --U
        parser.parse_args([name] + (["--U", "0"] if name == "oracle" else []))
        assert len(sub._actions) > 1 or name == "figures", name
        assert not {a.dest for a in sub._actions} & set(DEFAULTS), name
    assert not {a.dest for a in parser._actions} & set(DEFAULTS)


def test_plain_phase_is_the_library_map_of_the_default_family(tmp_path):
    out = tmp_path / "phase"
    assert main(["--out", str(out), "--format", "json", "phase"]) == 0
    d = build_parser().parse_args(["phase"])
    grid = phases.phase_grid(np.linspace(d.v0_min, d.v0_max, d.v0_steps),
                             np.linspace(d.lam_min, d.lam_max, d.lam_steps), d.T,
                             phases.PhaseFamily())
    rows = json.loads((out / "phase_grid.json").read_text())
    assert [(r["T_pair_nK"], r["T_bkt_nK"], r["label"]) for r in rows] == list(zip(
        grid.T_pair.ravel().tolist(), grid.T_bkt.ravel().tolist(), grid.label.ravel().tolist()))
    segments = json.loads((out / "phase_contour.json").read_text())
    assert [[s["V0_a"], s["lambda_a"], s["V0_b"], s["lambda_b"]] for s in segments] == (
        grid.contour.reshape(-1, 4).tolist())
