"""A derandomized fuzz of the command line: every subcommand, in process.

Each run attaches values with "=" (so a negative value is never read as a
flag), drawn from a fixed set of edge values, to a random subset of the
subcommand's flags, which are read off the parser itself.  A run must end
in one of three ways: exit 0 with finite output, exit 1 with exactly one
JSON line on stderr, or exit 2 from argparse.  A finite run may print
only the documented shallow-lattice warning of ``hubbard.hopping_t``, and
its output may hold a non-finite value only as a threshold pole's U_cr or
a Stark sweep's missing zero.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import random
import warnings

import pytest

from hhsim.cli import build_parser, main

VALUES = ("0", "1", "-1", "5", "-5", "0.5", "2", "20", "1e6", "-1e6", "1e-300", "1e308", "-1e308",
          "nan", "inf", "-inf")
INTS = ("0", "1", "-1", "5", "-5", "2", "20")
STEPS = tuple(v for v in INTS if int(v) <= 5)   # a sweep of at most 5 points stays cheap
RUNS = 600
SHALLOW = "hopping_t: V0 < E_rec is outside the deep-lattice regime"


def _subcommand_flags():
    """Each subcommand -> the argparse actions of its flags, which it adds on
    its first parse."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {}
    for cmd, sub in subparsers.choices.items():
        with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
            sub.parse_known_args([])   # exits where a flag is required
        flags[cmd] = [a for a in sub._actions
                      if a.option_strings and not isinstance(a, argparse._HelpAction)]
    return flags


def _draw(rng, action):
    """One "--flag=value" (a bare flag for a switch) of action."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return flag
    if action.choices:
        value = rng.choice(sorted(action.choices))
    elif action.type is int:
        value = rng.choice(STEPS if action.dest.endswith("steps") else INTS)
    elif action.type is float:
        value = rng.choice(VALUES)
    else:   # a list of numbers, as --sizes
        value = ",".join(rng.choice(VALUES) for _ in range(rng.randint(1, 3)))
    return f"{flag}={value}"


def _argvs():
    """RUNS argvs of the subcommands that take flags, then each flagless one
    (figures) once per format."""
    rng = random.Random("cli-fuzz")
    flags = _subcommand_flags()
    for _ in range(RUNS):
        cmd = rng.choice(sorted(cmd for cmd, actions in flags.items() if actions))
        argv = [f"--format={rng.choice(['csv', 'json'])}", cmd]
        argv += [_draw(rng, a) for a in flags[cmd] if rng.random() < 0.5]
        yield argv
    for cmd in sorted(cmd for cmd, actions in flags.items() if not actions):
        yield from ([f"--format={fmt}", cmd] for fmt in ("csv", "json"))


def _non_finite_cells(name, text):
    """The non-finite values of one emitted file, less the documented ones:
    U_cr and U_fesh_cr of a pole row, and a missing Stark zero."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        records = [dict(zip(header, row)) for row in rows]
    else:
        payload = json.loads(text)
        records = payload if isinstance(payload, list) else [payload]
    bad = []

    def walk(value, record, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, record, k)
        elif isinstance(value, list):
            for v in value:
                walk(v, record, key)
        else:
            try:
                finite = value is not None and math.isfinite(float(value))
            except (TypeError, ValueError):   # a label, a name or a flag
                return
            pole = str(record.get("pole")) == "1" and key in ("U_cr", "U_fesh_cr")
            no_zero = key == "lambda_zero_nm" and "error" in record
            if not finite and not pole and not no_zero:
                bad.append((key, value))

    for record in records:
        walk(record, record, None)
    return bad


def _outcome(capsys, argv):
    """A description of how ``main(argv)`` ended, if not in one of the three
    allowed ways; None if it did."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = main(argv)
        except SystemExit as exc:
            status = ("argparse", exc.code)
    out, err = capsys.readouterr()
    if status == ("argparse", 2):
        return None
    if status == 1:
        lines = err.splitlines()
        if out or caught or len(lines) != 1 or set(json.loads(lines[0])) != {"error"}:
            return (f"exit 1 with stdout {out[:200]!r}, warnings {[str(w.message) for w in caught]}, "
                    f"stderr {err[:400]!r}")
        return None
    if status != 0:
        return f"exit {status}: {err[:400]!r}"
    stray = [w for w in caught if str(w.message) != SHALLOW]
    err_lines = [line for line in err.splitlines() if SHALLOW not in line and not line.startswith(" ")]
    if stray or err_lines or not out:
        return f"exit 0 with warnings {[str(w.message) for w in stray]}, stderr {err[:400]!r}"
    sections = out.split("# --- ")[1:]
    bad = {}
    for section in sections:
        name, _, text = section.partition(" ---\n")
        cells = _non_finite_cells(name, text)
        if cells:
            bad[name] = cells[:5]
    return f"exit 0 with non-finite output {bad}" if bad else None


def test_every_fuzzed_run_ends_in_an_allowed_way(capsys):
    argvs = list(_argvs())
    # every subcommand is drawn, and every one of its flags
    flags = _subcommand_flags()
    for cmd, actions in flags.items():
        drawn = [argv for argv in argvs if argv[1] == cmd]
        assert drawn, cmd
        for action in actions:
            assert any(a.split("=")[0] == action.option_strings[0] for argv in drawn for a in argv), \
                (cmd, action.option_strings)
    failures = [(argv, outcome) for argv in argvs
                if (outcome := _outcome(capsys, argv)) is not None]
    assert not failures, "\n".join(f"{argv}: {outcome}" for argv, outcome in failures[:10])


@pytest.mark.parametrize("argv, expected", [
    (["binding", "--v-min=-2.356194490192345", "--v-max=0", "--steps=2"], None),   # a pole row
    (["phase", "--v0-min=0"], None),
    (["pair", "--steps=1e6"], None),
])
def test_the_outcome_check_accepts_the_documented_endings(capsys, argv, expected):
    assert _outcome(capsys, argv) == expected


def test_the_outcome_check_flags_non_finite_output():
    assert _non_finite_cells("t.csv", "V,U_cr,pole\n1,inf,0\n2,inf,1\n") == [("U_cr", "inf")]
    assert _non_finite_cells("t.json", '[{"E": null}]') == [("E", None)]
