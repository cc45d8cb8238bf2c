"""Command-line front end.

Subcommands cover the full pipeline: Stark-shift sweeps, phonon-site
modes, effective-interaction maps, Hubbard parameter sweeps, binding
thresholds, pair dispersions, the exact-diagonalization oracle, and the
phase map.  Output is deterministic: CSV tables (or JSON records) with
no embedded timestamps; when writing to a directory, a manifest lists
every file with its SHA-256 digest.

A run imports only what its subcommand calls: each ``cmd_*`` imports its
hhsim modules, and each subcommand's flags are added when it is parsed.
The module imports no numpy (its sweep grids come from ``_linspace``),
nor do ``stark`` and ``orbits``, so ``hhsim stark``, ``hhsim binding``
and ``--explain-defaults`` load none.  It imports json only to write
JSON, a manifest or an error line (``_json``), and ``orbits`` defines no
dataclass, so a CSV ``hhsim binding`` to stdout and ``--explain-defaults``
load neither json nor dataclasses.

The physical defaults (``DEFAULTS``) are set by ``--config`` alone and
resolved once per run; every value error (a non-finite ``--config``
value, or a non-positive one of a key that must be positive, included)
and every file-system error end the run with one JSON line
``{"error": ...}`` on stderr and exit status 1, and write no file.
"""

import argparse
import csv
import io
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .constants import A_BOHR, M_RB87, require_finite, require_positive

# name -> (value, note) of each default a --config file may override
DEFAULTS = {
    "a": (1.73, "fermion lattice constant in micrometres"),
    "r_c_over_a": (0.1, "dressed-interaction soft-core radius relative to a"),
    "n_B": (0.01, "dilute pair density entering the BKT temperature estimate"),
    "a_s0": (90.0, "background s-wave scattering length in Bohr radii"),
    "eta": (6, "power-law exponent of the dressed pair potential"),
    "n_ryd": (27, "Rydberg principal quantum number (sets C6)"),
    "alpha_bar": (0.004, "Rydberg dressing ratio Omega/(2 Delta)"),
    "w_ph": (0.6, "phonon spot waist in micrometres (design choice)"),
    "D": (0.2823, "phonon spot half-separation in micrometres"),
    "V0_ph_scale": (2.5, "phonon spot depth as a multiple of the fermion depth"),
    "prefactor": (1.0, "Stark-shift intensity prefactor in nK"),
    "omega_ratio": (18.52, "pinned phonon quantum in units of the hopping"),
}
# the keys that must be positive; the library calls that take the others
# check their domains
_POSITIVE = ("a", "r_c_over_a", "n_B", "alpha_bar", "w_ph", "V0_ph_scale", "omega_ratio")


class OutputSink:
    """Collects named CSV/JSON artifacts; ``finish`` writes them to a
    directory, with a manifest, or to stdout.  A run that fails before
    ``finish`` writes nothing.

    Every file name gets ``suffix`` appended to its stem; ``suffixed``
    gives a view with another suffix that shares the payloads.  JSON
    payloads write a non-finite float as null.
    """

    def __init__(self, out_dir=None, fmt="csv", suffix="", payloads=None):
        self.out_dir = Path(out_dir) if out_dir else None
        self.fmt = fmt
        self.suffix = suffix
        self.payloads = {} if payloads is None else payloads   # file -> text, in emit order

    def suffixed(self, suffix):
        return OutputSink(self.out_dir, self.fmt, suffix, self.payloads)

    def emit_table(self, name, header, rows):
        if self.fmt == "json":
            payload = _json(_json_ready([dict(zip(header, r)) for r in rows]),
                            indent=2, sort_keys=True) + "\n"
            ext = "json"
        else:
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(header)
            for r in rows:
                w.writerow([_fmt_cell(x) for x in r])
            payload = buf.getvalue()
            ext = "csv"
        self.payloads[f"{name}{self.suffix}.{ext}"] = payload

    def emit_record(self, name, record):
        payload = _json(_json_ready(record), indent=2, sort_keys=True) + "\n"
        self.payloads[f"{name}{self.suffix}.json"] = payload

    def finish(self):
        if not self.out_dir:
            for fname, payload in self.payloads.items():
                sys.stdout.write(f"# --- {fname} ---\n{payload}")
        elif self.payloads:
            import hashlib   # OpenSSL: loaded only by a run that writes a manifest

            self.out_dir.mkdir(parents=True, exist_ok=True)
            for fname, payload in self.payloads.items():
                (self.out_dir / fname).write_text(payload)
            files = [{"file": f, "sha256": hashlib.sha256(self.payloads[f].encode()).hexdigest()}
                     for f in sorted(self.payloads)]
            manifest = {"version": __version__, "files": files}
            (self.out_dir / "manifest.json").write_text(_json(manifest, indent=2) + "\n")


def _json(value, **options):
    """``json.dumps(value, allow_nan=False, **options)``.  json is imported
    here, by a run that writes JSON, a manifest or an error line: a CSV run
    to stdout loads none of it."""
    import json

    return json.dumps(value, allow_nan=False, **options)


def _json_ready(value):
    """value with each non-finite float (U_cr at a pole) as None, written
    as null: RFC 8259 JSON has no Infinity or NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _fmt_cell(x):
    if isinstance(x, float):
        if x == 0.0:
            return "0"
        if 1e-3 <= abs(x) < 1e6:
            return f"{x:.10g}"
        return f"{x:.10e}"
    return x


def _settings(path):
    """Every ``DEFAULTS`` key -> its value: the default, unless the YAML file
    at ``path`` (``--config``) sets it.  Any fault of the file is a ValueError."""
    settings = {key: value for key, (value, _) in DEFAULTS.items()}
    if path is None:
        return settings
    import yaml   # only a --config run needs PyYAML

    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ValueError(f"config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path}: expected a mapping at top level")
    for key, value in data.items():
        if key not in DEFAULTS:
            raise ValueError(f"config {path}: unknown key {key!r}; known: {sorted(DEFAULTS)}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config {path}: {key} must be a number, got {value!r}")
        named = {f"config {path}: {key}": value}
        require_finite(**named)
        if key in _POSITIVE:
            require_positive(**named)
    settings.update(data)
    return settings


def _rydberg_spec(s):
    from . import rydberg

    return rydberg.RydbergSpec(C6=rydberg.c6_interpolated(s["n_ryd"]),
                               r_c=s["r_c_over_a"] * s["a"],
                               alpha_bar=s["alpha_bar"], eta=s["eta"])


def _steps(args, flag="steps"):
    """The count of ``--<flag>``, checked before any output: a sweep includes
    both ends."""
    steps = getattr(args, flag.replace("-", "_"))
    if steps < 2:
        raise ValueError(f"{args.cmd} --{flag} must be at least 2 (the sweep includes both ends)")
    return steps


def _linspace(lo, hi, n):
    """n >= 2 evenly spaced floats from lo to hi, both included, with the bits
    of ``numpy.linspace(lo, hi, n)``: i step + lo, the last point hi; where the
    step (hi - lo)/(n - 1) is 0, (i/(n - 1)) (hi - lo) + lo."""
    step = (hi - lo) / (n - 1)
    if step == 0.0:   # numpy's branch for a zero or subnormal step
        points = [i / (n - 1) * (hi - lo) + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


def _bounds(args, flag, lo, hi):
    """The sweep bounds ``lo``, ``hi`` of ``--<flag>-min/max``, checked as finite,
    and close enough that hi - lo is finite, before any grid is built."""
    low, high = f"{args.cmd} --{flag}-min", f"{args.cmd} --{flag}-max"
    require_finite(**{low: lo, high: hi})
    require_finite(**{f"{high} minus --{flag}-min": hi - lo})
    return lo, hi


# ---------------------------------------------------------------- subcommands

def cmd_stark(args, sink):
    from . import stark

    atom = stark.SPECIES[args.species]
    cfg = stark.StarkConfig(g_F=args.gf, m_F=args.mf, ellipticity=args.ellipticity,
                            intensity_prefactor=args.settings["prefactor"])
    lo, hi = _bounds(args, "wl",
                     atom.lambda_D2 - 3.0 if args.wl_min is None else args.wl_min,
                     atom.lambda_D1 + 3.0 if args.wl_max is None else args.wl_max)
    n = _steps(args)
    rows = []
    for i in range(n):
        wl = lo + (hi - lo) * i / (n - 1)
        try:
            v = stark.ac_stark_shift(atom, wl, cfg)
        except stark.ResonanceError:
            continue
        rows.append((wl, v))
    # finite flags can still overflow the shift: g_F m_F scales its vector part
    for wl, v in rows:
        if not math.isfinite(v):
            raise ValueError(f"stark --gf {args.gf} and --mf {args.mf} (prefactor "
                             f"{cfg.intensity_prefactor}) give a shift of {v} nK at {wl} nm")
    sink.emit_table("stark_sweep", ["wavelength_nm", "V_nK"], rows)
    summary = {"species": atom.species_name}
    try:
        summary["lambda_zero_nm"] = stark.find_stark_zero(atom, cfg)
    except stark.NoZeroCrossingError as exc:
        summary["lambda_zero_nm"] = None
        summary["error"] = str(exc)
    sink.emit_record("stark_zeros", summary)


def cmd_phonon(args, sink):
    import numpy as np

    from . import lattice

    steps = _steps(args)
    s, V0_ph = args.settings, args.v0_ph
    w_ph, D = s["w_ph"], s["D"]
    pattern = lattice.PATTERN_CONSTRUCTORS[args.pattern](s["a"], V0_ph, w_ph, D, b=args.b)
    k = len(pattern.centers) // 2
    try:
        modes = lattice.phonon_modes(lattice.dynamical_matrix(pattern, k), M_RB87)
    except OverflowError as exc:
        raise ValueError(f"phonon --v0-ph {V0_ph}: {exc}") from None
    sink.emit_record("phonon_modes", {
        "pattern": pattern.pattern_id,
        "modes": [{"omega_rad_s": m.frequency,
                   "freq_Hz": m.frequency / (2 * math.pi),
                   "polarization": list(m.polarization)} for m in modes],
    })
    xs = np.asarray(_linspace(-w_ph, w_ph, steps))
    points = pattern.centers[k] + np.stack([xs, np.zeros_like(xs)], axis=-1)
    rows = [(float(x), float(v))
            for x, v in zip(xs, lattice.site_potential(pattern, k, points))]
    sink.emit_table("phonon_cross_section", ["x_um", "V_nK"], rows)


def cmd_phi_map(args, sink):
    from . import lattice, rydberg

    s = args.settings
    a, w_ph, D = s["a"], s["w_ph"], s["D"]
    spec = _rydberg_spec(s)
    b = None if args.b_over_aprime is None else args.b_over_aprime * a * math.sqrt(2.0)
    pattern = lattice.PATTERN_CONSTRUCTORS[args.pattern](a, 100.0, w_ph, D, b=b)
    emap = rydberg.effective_interaction(pattern, spec, a)
    rows = [(n, l, v) for (n, l), v in emap.values.items()]
    sink.emit_table("phi_map", ["dx", "dy", "phi_ratio"], rows)
    if args.sweep_b:
        sweep = []
        for frac in _linspace(0.25, 0.45, 9):
            bb = frac * a * math.sqrt(2.0)
            pat = lattice.offset_parallel(a, 100.0, w_ph, D, bb)
            m = rydberg.effective_interaction(pat, spec, a)
            est = rydberg.nnn_ratio_estimate(bb, a, spec.eta)
            sweep.append((frac, abs(m.values[(1, 1)]), est))
        sink.emit_table("phi_nnn_sweep", ["b_over_aprime", "numeric", "estimate"], sweep)


def cmd_params(args, sink):
    from . import hubbard, lattice, rydberg

    steps = _steps(args)
    s = args.settings
    a, w_ph, D = s["a"], s["w_ph"], s["D"]
    emap = rydberg.effective_interaction(lattice.holstein_reference(a, 100.0, w_ph, D),
                                         _rydberg_spec(s), a)
    lo, hi = _bounds(args, "v0", args.v0_min, args.v0_max)
    require_positive(**{"params --v0-min": lo, "params --v0-max": hi})
    rows = []
    # hopping_t warns of a shallow lattice; its warnings are shown once every row
    # is valid, so that a failing run writes its error line alone
    with warnings.catch_warnings(record=True) as shallow:
        for V0 in _linspace(lo, hi, steps):
            try:
                (r,) = hubbard.parameter_sweep([V0], a, a_s_um=s["a_s0"] * A_BOHR * 1e6)
                W = 4.0 * r["t_Hz"]
                omega = lattice.two_spot_frequency(s["V0_ph_scale"] * V0, w_ph, D, M_RB87)
                W_lambda = W * rydberg.lambda_dimensionless(emap.phi00, W, M_RB87, omega)
            except (ValueError, ZeroDivisionError):   # t or omega out of the float range
                W_lambda = math.nan
            if not math.isfinite(W_lambda):
                raise ValueError(f"params --v0-min {args.v0_min} to --v0-max {args.v0_max}: at "
                                 f"V0 = {V0} nK the hopping, the phonon frequency or W lambda "
                                 "leaves the float range")
            rows.append((r["V0_nK"], r["t_Hz"], r["U_Hz"], W_lambda))
    for w in shallow:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    sink.emit_table("params_sweep", ["V0_nK", "t_Hz", "U_Hz", "W_lambda_Hz"], rows)


def cmd_binding(args, sink):
    from . import orbits

    tp = args.t_prime
    sweep = _linspace(*_bounds(args, "v", args.v_min, args.v_max), _steps(args))
    rows = []
    if args.model == "diagonal":
        for V in sweep:
            th = orbits.threshold_diagonal(V, tp)
            rows.append((V, th.U_cr, int(th.pole)))
        sink.emit_table("threshold_diagonal", ["V", "U_cr", "pole"], rows)
    elif args.model == "physical":
        for lam in sweep:
            res = orbits.threshold_physical(lam, args.t, args.renormalized)
            rows.append((lam, res["U_cr"], res["U_fesh_cr"], int(res["pole"])))
        sink.emit_table("threshold_physical", ["lambda", "U_cr", "U_fesh_cr", "pole"], rows)
    else:
        for V in sweep:
            th = orbits.threshold_full(V, V, tp)
            rows.append((V, th.U_cr, int(th.pole)))
        sink.emit_table("threshold_full", ["V1=V2", "U_cr", "pole"], rows)


def cmd_pair(args, sink):
    from . import pairs

    tp = args.t_prime
    rows = []
    for V in _linspace(*_bounds(args, "v", args.v_min, args.v_max), _steps(args)):
        U = args.U if args.U is not None else V
        for branch, s in enumerate(pairs.pair_energies(pairs.UVModel.diagonal(U, V, tp))):
            rows.append((U, V, branch, s.E))
    sink.emit_table("pair_energies", ["U", "V", "branch", "E"], rows)


def cmd_oracle(args, sink):
    from . import oracle, pairs

    if args.model == "diagonal":
        if args.V2:
            raise ValueError("oracle --model diagonal takes its V from --V1; --V2 must be 0")
        model = pairs.UVModel.diagonal(args.U, args.V1, args.t_prime)
    else:
        model = pairs.UVModel.full(args.U, args.V1, args.V2, args.t_prime)
    try:
        Ls = [oracle.FiniteLattice(int(x)).L for x in args.sizes.split(",")]
    except ValueError as exc:
        raise ValueError(f"oracle --sizes {args.sizes!r}: {exc}") from None
    require_positive(**{"oracle --n-states": args.n_states})
    rows = []
    per_L = []
    for L in Ls:
        spectrum = oracle.ground_energies(model, L, n_states=args.n_states)
        per_L.append(spectrum.energies[0])
        for i, E in enumerate(spectrum.energies):
            rows.append((L, i, E))
    sink.emit_table("oracle_energies", ["L", "index", "E"], rows)
    record = {"model": args.model, "U": args.U, "V1": args.V1, "V2": args.V2}
    if len(Ls) >= 3:
        ex = oracle.extrapolate_energy(Ls, per_L)
        record.update({"E_inf": ex.E_inf, "error": ex.error, "reliable": ex.reliable})
    if args.compare:
        roots = pairs.pair_energies(model)
        record["determinant_roots"] = [s.E for s in roots]
    sink.emit_record("oracle_summary", record)


def cmd_phase(args, sink):
    import numpy as np

    from . import phases

    s = args.settings
    family = phases.PhaseFamily(a=s["a"], n_B=s["n_B"], omega_ratio=s["omega_ratio"])
    lo, hi = _bounds(args, "v0", args.v0_min, args.v0_max)
    require_positive(**{"phase --v0-min": lo, "phase --v0-max": hi})
    V0s = np.asarray(_linspace(lo, hi, _steps(args, "v0-steps")))
    lams = np.asarray(_linspace(*_bounds(args, "lam", args.lam_min, args.lam_max),
                                _steps(args, "lam-steps")))
    # hopping_t's shallow-lattice warnings are shown only by a run that succeeds
    with warnings.catch_warnings(record=True) as shallow:
        try:
            grid = phases.phase_grid(V0s, lams, args.T, family)
        except OverflowError as exc:
            raise ValueError(f"phase --v0-min {args.v0_min} to --v0-max {args.v0_max}, --lam-min "
                             f"{args.lam_min} to --lam-max {args.lam_max}: {exc}") from None
    for w in shallow:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    columns = (*np.meshgrid(V0s, lams, indexing="ij"), grid.T_pair, grid.T_bkt, grid.label)
    rows = list(zip(*(c.ravel().tolist() for c in columns)))
    sink.emit_table("phase_grid", ["V0_nK", "lambda", "T_pair_nK", "T_bkt_nK", "label"], rows)
    sink.emit_table("phase_contour", ["V0_a", "lambda_a", "V0_b", "lambda_b"],
                    grid.contour.reshape(-1, 4).tolist())


# The bundles of ``figures``: (file-name suffix, subcommand argv).  Each
# argv goes through the same parser as on the command line, so the
# subcommand defaults apply.
FIGURES = (
    ("_k40", ["stark", "--species", "K-40"]),
    ("_rb87", ["stark", "--species", "Rb-87"]),
    ("", ["phonon", "--pattern", "offset-parallel", "--steps", "401"]),
    ("_holstein", ["phi-map", "--pattern", "holstein"]),
    ("_offset_parallel", ["phi-map", "--pattern", "offset-parallel", "--sweep-b"]),
    ("_crossed", ["phi-map", "--pattern", "crossed"]),
    ("_bipartite_parallel", ["phi-map", "--pattern", "bipartite-parallel"]),
    ("", ["params"]),
    ("", ["binding"]),
    ("", ["phase"]),
)


def cmd_figures(args, sink):
    for suffix, argv in FIGURES:
        # argparse keeps attributes the namespace already has: the resolved settings
        bundle = args.parser.parse_args(argv, argparse.Namespace(settings=args.settings))
        bundle.func(bundle, sink.suffixed(suffix))


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its flags on its first parse.

    ``flags(parser)`` adds them, importing the module whose registry gives
    a flag's choices, so building the parser imports no such module; a
    run imports only those of the subcommand it parses.
    """

    def __init__(self, flags=None, **kwargs):
        super().__init__(**kwargs)
        self._flags = flags

    def parse_known_args(self, args=None, namespace=None):
        flags, self._flags = self._flags, None
        if flags is not None:
            flags(self)
        return super().parse_known_args(args, namespace)


def _stark_flags(s):
    from . import stark

    s.add_argument("--species", choices=sorted(stark.SPECIES), default="K-40")
    s.add_argument("--wl-min", type=float)
    s.add_argument("--wl-max", type=float)
    s.add_argument("--steps", type=int, default=401)
    s.add_argument("--gf", type=float, default=0.0)
    s.add_argument("--mf", type=float, default=0.0)
    s.add_argument("--ellipticity", type=float, default=0.0)


def _pattern_flag(s):
    from . import lattice

    s.add_argument("--pattern", choices=sorted(lattice.PATTERN_CONSTRUCTORS),
                   default="offset-parallel")


def _phonon_flags(s):
    _pattern_flag(s)
    s.add_argument("--v0-ph", type=float, default=250.0)
    s.add_argument("--b", type=float)
    s.add_argument("--steps", type=int, default=101)


def _phi_map_flags(s):
    _pattern_flag(s)
    s.add_argument("--b-over-aprime", type=float)
    s.add_argument("--sweep-b", action="store_true")


def _params_flags(s):
    s.add_argument("--v0-min", type=float, default=100.0)
    s.add_argument("--v0-max", type=float, default=600.0)
    s.add_argument("--steps", type=int, default=26)


def _binding_flags(s):
    s.add_argument("--model", choices=("diagonal", "full", "physical"), default="diagonal")
    s.add_argument("--t-prime", type=float, default=1.0)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--renormalized", action="store_true")
    s.add_argument("--v-min", type=float, default=0.0)
    s.add_argument("--v-max", type=float, default=20.0)
    s.add_argument("--steps", type=int, default=41)


def _pair_flags(s):
    s.add_argument("--U", type=float)
    s.add_argument("--t-prime", type=float, default=1.0)
    s.add_argument("--v-min", type=float, default=-10.0)
    s.add_argument("--v-max", type=float, default=0.0)
    s.add_argument("--steps", type=int, default=21)


def _oracle_flags(s):
    s.add_argument("--model", choices=("diagonal", "full"), default="diagonal")
    s.add_argument("--U", type=float, required=True)
    s.add_argument("--V1", type=float, default=0.0,
                   help="NN potential of the full model; the diagonal model's V")
    s.add_argument("--V2", type=float, default=0.0, help="NNN potential of the full model")
    s.add_argument("--t-prime", type=float, default=1.0)
    s.add_argument("--sizes", default="16,24,32")
    s.add_argument("--n-states", type=int, default=4)
    s.add_argument("--compare", action="store_true",
                   help="also report determinant-equation roots")


def _phase_flags(s):
    s.add_argument("--T", type=float, default=20.0)
    s.add_argument("--v0-min", type=float, default=100.0)
    s.add_argument("--v0-max", type=float, default=600.0)
    s.add_argument("--v0-steps", type=int, default=21)
    s.add_argument("--lam-min", type=float, default=0.05)
    s.add_argument("--lam-max", type=float, default=5.0)
    s.add_argument("--lam-steps", type=int, default=26)


def build_parser():
    p = argparse.ArgumentParser(prog="hhsim",
                                description="Painted-lattice Hubbard-Holstein "
                                            "simulator design toolkit")
    p.add_argument("--config", help="YAML file that overrides --explain-defaults values")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--explain-defaults", action="store_true",
                   help="print the built-in physical defaults and exit")
    sub = p.add_subparsers(dest="cmd", parser_class=_Subcommand)
    sub.add_parser("stark", help="AC Stark shift sweep and zero crossings",
                   flags=_stark_flags).set_defaults(func=cmd_stark)
    sub.add_parser("phonon", help="phonon-site potential and normal modes",
                   flags=_phonon_flags).set_defaults(func=cmd_phonon)
    sub.add_parser("phi-map", help="effective interaction map",
                   flags=_phi_map_flags).set_defaults(func=cmd_phi_map)
    sub.add_parser("params", help="t, U, W*lambda vs lattice depth",
                   flags=_params_flags).set_defaults(func=cmd_params)
    sub.add_parser("binding", help="pairing threshold curves",
                   flags=_binding_flags).set_defaults(func=cmd_binding)
    sub.add_parser("pair", help="bound pair energies along a V sweep",
                   flags=_pair_flags).set_defaults(func=cmd_pair)
    sub.add_parser("oracle", help="finite-lattice exact two-body energies",
                   flags=_oracle_flags).set_defaults(func=cmd_oracle)
    sub.add_parser("phase", help="pairing/BKT phase map",
                   flags=_phase_flags).set_defaults(func=cmd_phase)
    sub.add_parser("figures", help="emit all reproduction bundles").set_defaults(
        func=cmd_figures, parser=p)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.explain_defaults:
        for key, (value, note) in sorted(DEFAULTS.items()):
            print(f"{key} = {value}  # {note}")
        return 0
    if not getattr(args, "cmd", None):
        parser.print_usage()
        return 2
    try:
        args.settings = _settings(args.config)
        sink = OutputSink(args.out, args.format)
        args.func(args, sink)
        sink.finish()
    except (ValueError, OSError) as exc:
        print(_json({"error": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
