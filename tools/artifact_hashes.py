"""SHA-256 of every artifact from a fixed list of ``hhsim`` runs, as JSON.

    python tools/artifact_hashes.py SRC

runs each command line of ``RUNS`` as ``python -m hhsim.cli`` with
``PYTHONPATH=SRC``, in a fresh temporary directory, and prints
``{run: {"exit": status, "stderr": text, "stdout": sha256, "files":
{name: sha256}}}``, manifests included.  Two source trees are compared by

    python tools/artifact_hashes.py OLD/src src

which runs both and prints only what differs: per run, the exit status,
stderr and stdout hash as ``{"old": ..., "new": ...}`` where they differ, and under
``"files"`` each file whose hash differs (null where a tree wrote no
such file).  ``{}`` means every run wrote the same bytes.  One tree under
several values of an environment variable is compared by

    python tools/artifact_hashes.py --env OPENBLAS_NUM_THREADS=1,2 SRC

which runs the list once per value, with the variable set in the runs'
environment only, and prints the runs that differ in the same form,
keyed by ``NAME=value`` instead of old and new.  An empty value leaves
the variable unset, as in ``OPENBLAS_CORETYPE=,Prescott``.  Given
``--env`` more than once, as in

    python tools/artifact_hashes.py --env OPENBLAS_NUM_THREADS=1,2 \
        --env OPENBLAS_CORETYPE=,Prescott SRC

it runs every combination of the values, keyed ``A=x,B=y``.

Paths inside a run are relative to its directory, so stderr does not
depend on where the temporary directory lies.  The package and the
tests do not import this script.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# a non-default config; of the figures files only the Stark zeros (a zero
# does not move with the prefactor) and the binding thresholds (which read
# no key) stay as by default
CONFIG = ("a: 1.6123\nn_ryd: 29\nprefactor: 1.1\nV0_ph_scale: 2.2\nw_ph: 0.62\nD: 0.29\n"
          "r_c_over_a: 0.12\nn_B: 0.02\nomega_ratio: 17.0\n")

# run name -> hhsim argv; "--out <name>" is prepended
RUNS = {
    "figures-csv": ["figures"],
    "figures-json": ["--format", "json", "figures"],
    "figures-config": ["--config", "config.yaml", "figures"],
    "binding-full": ["binding", "--model", "full"],
    # the thresholds at full precision (the CSV prints 10 digits): a diagonal sweep that
    # straddles the pole at V = -3 pi/4, and the full model's default sweep
    "binding-diagonal-pole-json": ["--format", "json", "binding", "--v-min", "-5", "--v-max",
                                   "-0.5", "--steps", "46"],
    "binding-full-json": ["--format", "json", "binding", "--model", "full"],
    "binding-physical": ["binding", "--model", "physical", "--renormalized"],
    # the physical thresholds at full precision
    "binding-physical-json": ["--format", "json", "binding", "--model", "physical",
                              "--renormalized"],
    # a zero-width sweep: the sweep grid's zero-step branch
    "binding-zero-step": ["binding", "--v-min", "2", "--v-max", "2", "--steps", "3"],
    "pair": ["pair", "--U", "-6"],
    # the diagonal model's determinant roots at full precision (the CSV prints 10 digits)
    "pair-json": ["--format", "json", "pair", "--U", "-6"],
    # four solves whose first polish estimate misses a root by more than 1e-12 t', so each
    # takes a second, secant, polish step: their roots at full precision
    "pair-second-step-json": ["--format", "json", "pair", "--U", "-28", "--v-min", "-12",
                              "--v-max", "-9", "--steps", "4"],
    # search brackets down to s = ln(|E|/8t' - 1) = 5.6, with roots near -2,000 t'
    "pair-deep": ["pair", "--U", "-2000", "--steps", "5"],
    # the roots of U = -9t', V = -t' and 0 at a tiny and a huge t': E/t' does not depend on t'
    "pair-tiny-t-prime": ["pair", "--t-prime", "1e-160", "--U=-9e-160", "--v-min=-1e-160",
                          "--v-max", "0", "--steps", "2"],
    "pair-huge-t-prime": ["pair", "--t-prime", "1e200", "--U=-9e200", "--v-min=-1e200",
                          "--v-max", "0", "--steps", "2"],
    "oracle-compare": ["oracle", "--U", "-10", "--V1", "-1", "--compare"],
    "oracle-full": ["oracle", "--model", "full", "--U", "-6", "--V1", "-1", "--V2", "-1",
                    "--sizes", "8,12,16"],
    # the full model's determinant root at full precision, in oracle_summary.json
    "oracle-full-compare": ["oracle", "--model", "full", "--U", "-10", "--V1", "-1", "--V2", "-1",
                            "--sizes", "8,12,16", "--compare"],
    # two determinant roots, -13.978 and -9.165, polished in the same calls
    "oracle-full-two-roots": ["oracle", "--model", "full", "--U", "-10", "--V1", "-7", "--V2", "-7",
                              "--sizes", "8,12,16", "--compare"],
    # sectors of 153, 325 and 561 states: both sides of oracle._BANDED_MAX
    "oracle-straddle": ["oracle", "--model", "full", "--U", "-10", "--V1", "-1", "--V2", "-1",
                        "--sizes", "32,48,64"],
    # the diagonal model's sectors of 273, 601 and 1,057 states, likewise
    "oracle-diagonal-straddle": ["oracle", "--U", "-10", "--V1", "-1.5", "--sizes", "32,48,64",
                                 "--compare"],
    "stark-rb87": ["stark", "--species", "Rb-87", "--steps", "51"],
    "stark-lines": ["stark", "--wl-min", "766.7", "--wl-max", "770.1", "--steps", "5"],
    "phase": ["phase", "--T", "5"],
    # a finer grid than the default: the contour's full-precision bytes over many segments
    "phase-fine-json": ["--format", "json", "phase", "--v0-steps", "41", "--lam-steps", "61"],
    "phonon-json": ["--format", "json", "phonon", "--pattern", "crossed"],
    # with figures (offset-parallel) and phonon-holstein-b, every pattern's phonon_modes.json
    "phonon-json-rotated": ["--format", "json", "phonon", "--pattern", "offset-parallel-rotated"],
    "phonon-json-bipartite": ["--format", "json", "phonon", "--pattern", "bipartite-parallel"],
    "phonon-holstein-b": ["phonon", "--pattern", "holstein", "--b", "0.3"],
    "phi-map-rotated": ["phi-map", "--pattern", "offset-parallel-rotated",
                        "--b-over-aprime", "0.3"],
    # help, usage and choice errors on stdout and stderr: the parser adds a
    # subcommand's flags, and imports their registries, only when it parses it
    "help": ["--help"],
    "stark-help": ["stark", "--help"],
    "phonon-help": ["phonon", "--help"],
    "phi-map-help": ["phi-map", "--help"],
    "stark-unknown-species": ["stark", "--species", "Na-23"],
    "phi-map-unknown-pattern": ["phi-map", "--pattern", "no-such-pattern"],
    # the numpy-free paths: the defaults table on stdout, and a value error's JSON
    # line on stderr, whose json module the CLI imports only to write it
    "explain-defaults": ["--explain-defaults"],
    "binding-error": ["binding", "--steps", "1"],
    # a coupling beyond 2^128 t': one JSON error line on stderr, no numpy warning before it
    "pair-coupling-range-error": ["pair", "--U=1e308", "--t-prime=2", "--v-max=0.5",
                                  "--steps", "2"],
    "binding-coupling-range-error": ["binding", "--v-max", "1e300", "--steps", "2"],
}


def artifact_hashes(src, env=None):
    """The report of every run of RUNS from the tree src, with the
    variables of env added to the runs' environment (removed from it
    where the value is empty)."""
    env = env or {}
    unset = {name for name, value in env.items() if not value}
    env = {**os.environ, **env, "PYTHONPATH": str(Path(src).resolve())}
    env = {name: value for name, value in env.items() if name not in unset}
    report = {}
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "config.yaml").write_text(CONFIG)
            proc = subprocess.run([sys.executable, "-m", "hhsim.cli", "--out", name] + argv,
                                  cwd=tmp, env=env, capture_output=True, text=True)
            out = Path(tmp, name)
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())} if out.is_dir() else {}
        report[name] = {"exit": proc.returncode, "stderr": proc.stderr,
                        "stdout": hashlib.sha256(proc.stdout.encode()).hexdigest(), "files": files}
    return report


def changed(reports):
    """The runs that differ between reports (label -> report), with only
    their differing entries, each as {label: value}."""
    diff = {}
    for name in RUNS:
        runs = {label: report[name] for label, report in reports.items()}
        entry = {key: {label: r[key] for label, r in runs.items()}
                 for key in ("exit", "stderr", "stdout")
                 if len({r[key] for r in runs.values()}) > 1}
        names = sorted(set().union(*(r["files"] for r in runs.values())))
        files = {f: {label: r["files"].get(f) for label, r in runs.items()} for f in names}
        files = {f: hashes for f, hashes in files.items() if len(set(hashes.values())) > 1}
        if files:
            entry["files"] = files
        if entry:
            diff[name] = entry
    return diff


if __name__ == "__main__":
    args = sys.argv[1:]
    axes = []   # per --env flag, its (name, value) pairs
    while len(args) >= 2 and args[0] == "--env" and "=" in args[1]:
        name, values = args[1].split("=", 1)
        axes.append([(name, v) for v in values.split(",")])
        args = args[2:]
    if axes and len(args) == 1:
        report = changed({",".join(f"{n}={v}" for n, v in combo):
                          artifact_hashes(args[0], dict(combo))
                          for combo in itertools.product(*axes)})
    elif len(args) == 1:
        report = artifact_hashes(args[0])
    elif len(args) == 2 and not axes:
        report = changed({"old": artifact_hashes(args[0]), "new": artifact_hashes(args[1])})
    else:
        sys.exit("usage: artifact_hashes.py SRC | artifact_hashes.py OLD_SRC NEW_SRC | "
                 "artifact_hashes.py --env NAME=V1,V2[,...] [--env NAME=V1,V2[,...]] SRC")
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
