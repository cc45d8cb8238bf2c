"""One benchmark workload in its own interpreter, as a closed-loop caller.

``run.py`` starts this script once for each of the ``PARTS`` parts of an
untraced run, or once for a traced run.  The script builds the workload's inputs from the
seed, computes any reference values, then calls the program in a closed
loop (the next operation starts when the previous one has returned and
been checked) for the given number of seconds.  It prints one JSON
object on its last stdout line.

Each workload's operations form a fixed cycle built from the seed; the
traced phase runs whole cycles, so per-operation counts repeat exactly.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

CLI_MAIN = "import sys; from hhsim.cli import main; sys.exit(main())"
# An untraced run is split over this many fresh interpreters; part k
# starts k / PARTS of the way into the operation cycle.
PARTS = 5

# The machine's speed drifts by up to 1.4x over seconds to minutes (shared
# host), in CPU time as much as in wall time.  Every time reported is
# therefore scaled to a reference speed: multiplied by a probe's reference
# time over the time of that probe run next to it.  The "cpu" probe is a
# fixed pure-Python kernel; the "spawn" probe starts a bare interpreter,
# which tracks the cost of starting processes that the kernel misses.  The
# reference times are the probes' medians on the 2-vCPU Intel Xeon where
# the bounds were set.
PROBE_ITERATIONS = 20000


def cpu_probe():
    """Time a fixed pure-Python kernel that does not touch hhsim."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        acc += math.sqrt(i) * 1.0000001
    return time.perf_counter() - t0


def spawn_probe():
    """Time the start and exit of a bare interpreter (no site, no hhsim)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


PROBES = {"cpu": (cpu_probe, 1.6e-3), "spawn": (spawn_probe, 10e-3)}


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def ensure(cond, message):
    if not cond:
        raise CheckFailed(message)


def import_hhsim():
    """Import the package from this checkout's src/, and nowhere else."""
    import hhsim

    src = (ROOT / "src").resolve()
    if src not in Path(hhsim.__file__).resolve().parents:
        raise SystemExit(f"hhsim imported from {hhsim.__file__}, not from {src}")
    return hhsim


class PairScan:
    """``pairs.pair_energies`` on models near U_cr and deeply bound ones.

    Each threshold pair is two consecutive operations on one (V1, V2)
    with U on either side of the closed-form U_cr; the root count must
    drop by exactly one across it.  The factors keep the shallow root
    well above the 1e-10 t' search edge (2D binding energies vanish
    exponentially at threshold).  Deep models are all-attractive, so
    they bind at least one pair; their ranges are chosen to bind one or
    two.  Every slot of the cycle keeps its variant and root count for
    any seed, so the cost of a cycle barely depends on the seed.
    """

    name = "pair-scan"
    probe = "cpu"
    THRESHOLD = {"diagonal": ((3.5, 6.0), 1.5, 0.7), "full": ((0.5, 6.0), 1.25, 0.8)}
    # (variant, U range, V range) in units of t'; one and two bound pairs
    DEEP = (("diagonal", (-12.0, -6.0), (-4.0, -1.0)), ("diagonal", (-9.0, -8.0), (-7.0, -6.0)),
            ("full", (-12.0, -8.0), (-2.0, -1.0)), ("full", (-10.0, -8.0), (-7.0, -6.0)))

    def __init__(self, seed, workdir):
        import_hhsim()
        from hhsim import pairs

        self.pairs = pairs
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = []   # (kind, model); kind in above / below / deep
        for variant, (v_range, above, below) in self.THRESHOLD.items():
            for _ in range(4):
                tp = rng.uniform(0.5, 2.0)
                V1, V2 = rng.uniform(*v_range) * tp, rng.uniform(*v_range) * tp
                if variant == "diagonal":
                    U_cr = pairs.threshold_diagonal(V2, tp).U_cr
                else:
                    U_cr = pairs.threshold_full(V1, V2, tp).U_cr
                for kind, factor in (("above", above), ("below", below)):
                    self.ops.append((kind, self._model(variant, U_cr * factor, V1, V2, tp)))
        for variant, u_range, v_range in self.DEEP:
            tp = rng.uniform(0.5, 2.0)
            U, V1, V2 = (rng.uniform(*r) * tp for r in (u_range, v_range, v_range))
            self.ops.append(("deep", self._model(variant, U, V1, V2, tp)))
        self.counters = {"pairs.roots": 0}

    def _model(self, variant, U, V1, V2, tp):
        if variant == "diagonal":
            return self.pairs.UVModel.diagonal(U, V2, tp)
        return self.pairs.UVModel.full(U, V1, V2, tp)

    def call(self, i):
        return self.pairs.pair_energies(self.ops[i % len(self.ops)][1])

    def check(self, i, states, prev):
        kind, m = self.ops[i % len(self.ops)]
        E = [s.E for s in states]
        self.counters["pairs.roots"] += len(E)
        edge = -8.0 * m.t_prime
        lowest = edge + min(0.0, m.U, m.V1, m.V2)
        ensure(E == sorted(E), f"roots not sorted: {E}")
        ensure(all(lowest <= e < edge for e in E), f"root outside [{lowest}, {edge}): {E}")
        if kind == "deep":
            ensure(len(E) >= 1, "all-attractive model has no bound pair")
        elif kind == "below" and prev is not None:
            ensure(len(prev) == len(E) + 1,
                   f"root count {len(prev)} above U_cr, {len(E)} below")


class OracleValidate:
    """Finite-lattice ED of gapped models against the determinant roots.

    Gapped means the lowest determinant root lies below -9 t', where the
    finite-size error falls off as 1/L^2 and the L -> inf extrapolation
    is reliable.  Roots and the L = 6 reduced ground energy are computed
    in set-up, so the Green's functions run only there.  Every fourth
    model is diagonal, the rest full: a diagonal model costs about 1.5x a
    full one, and with the two kinds in equal numbers the median latency
    would fall in the gap between them.
    """

    name = "oracle-validate"
    probe = "cpu"
    SIZES = (16, 24, 32, 48, 64)
    MODELS = 16

    def __init__(self, seed, workdir):
        import_hhsim()
        from hhsim import oracle, pairs

        self.oracle = oracle
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = []   # (model, determinant ground root, L = 6 reduced ground energy)
        while len(self.ops) < self.MODELS:
            tp = rng.uniform(0.5, 2.0)
            U = rng.uniform(-11.0, -9.0) * tp
            if len(self.ops) % 4 == 3:
                model = pairs.UVModel.diagonal(U, rng.uniform(-2.0, -1.0) * tp, tp)
            else:
                model = pairs.UVModel.full(U, rng.uniform(-2.0, -1.0) * tp,
                                           rng.uniform(-2.0, -1.0) * tp, tp)
            roots = pairs.pair_energies(model)
            if roots and roots[0].E < -9.0 * tp:
                self.ops.append((model, roots[0].E, oracle.ground_energies(model, 6).energies[0]))
        self.counters = {"oracle.sites": 0}

    def call(self, i):
        model = self.ops[i % len(self.ops)][0]
        spectra = [self.oracle.ground_energies(model, L) for L in self.SIZES]
        fit = self.oracle.extrapolate_energy(list(self.SIZES), [s.energies[0] for s in spectra])
        return spectra, fit, self.oracle.brute_force_two_body(model, 6)[0]

    def check(self, i, out, prev):
        model, root, ground6 = self.ops[i % len(self.ops)]
        spectra, fit, brute6 = out
        # the lattices the program reports it solved, not the sizes asked for
        self.counters["oracle.sites"] += sum(s.L * s.L for s in spectra)
        tp = model.t_prime
        ensure(abs(fit.E_inf - root) <= 1e-3 * tp,
               f"E_inf {fit.E_inf} vs determinant root {root}")
        ensure(abs(brute6 - ground6) <= 1e-9 * tp,
               f"L=6 brute force {brute6} vs reduced {ground6}")


class Figures:
    """In-process ``hhsim figures`` with a seeded YAML config.

    The set-up run is the reference: every artifact of every operation
    must hash as it did there.  ``manifest.json`` is checked against the
    benchmark's own hashes of the files; a manifest whose bytes differ
    from the reference's (its ``generated_at`` stamp) is counted, not
    failed.
    """

    name = "figures"
    probe = "cpu"
    K40_ZERO_NM = 768.97

    def __init__(self, seed, workdir):
        import_hhsim()
        from hhsim import cli

        self.cli = cli
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        config = {
            "a": rng.uniform(1.6, 1.9),
            "n_ryd": rng.randint(27, 32),
            "alpha_bar": rng.uniform(0.003, 0.006),
            "w_ph": rng.uniform(0.58, 0.64),
            "D": rng.uniform(0.24, 0.28),
            "a_s0": rng.uniform(80.0, 100.0),
            "n_B": rng.uniform(0.005, 0.02),
            "omega_ratio": rng.uniform(15.0, 20.0),
            "prefactor": rng.uniform(0.8, 1.2),
            "V0_ph_scale": rng.uniform(2.0, 3.0),
        }
        self.config = workdir / "figures.yaml"
        self.config.write_text("".join(f"{k}: {v!r}\n" for k, v in config.items()))
        self.ops = [self.config]
        self.counters = dict.fromkeys(
            ("cli.files_written", "cli.bytes_written", "cli.manifest_nondeterministic"), 0)
        status, out = self.call(-1)
        ensure(status == 0, f"reference run exited {status}")
        files = self._read(out)
        self.reference_manifest = files.pop("manifest.json", None)
        self.reference = {f: hashlib.sha256(b).digest() for f, b in files.items()}
        self._check_files(files, self.reference_manifest)

    def call(self, i):
        out = self.workdir / f"figures-{i}"
        return self.cli.main(["--config", str(self.config), "--out", str(out), "figures"]), out

    @staticmethod
    def _read(out):
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files

    def _check_files(self, files, manifest):
        ensure(manifest is not None, "no manifest.json")
        listed = {m["file"]: m["sha256"] for m in json.loads(manifest)["files"]}
        ensure(listed == {f: hashlib.sha256(b).hexdigest() for f, b in files.items()},
               "manifest does not match the files written")
        zero = json.loads(files["stark_zeros_k40.json"])["lambda_zero_nm"]
        ensure(abs(zero - self.K40_ZERO_NM) <= 0.05, f"K-40 Stark zero at {zero} nm")

    def check(self, i, out, prev):
        status, path = out
        files = self._read(path)
        self.counters["cli.files_written"] += len(files)
        self.counters["cli.bytes_written"] += sum(len(b) for b in files.values())
        ensure(status == 0, f"exit status {status}")
        manifest = files.pop("manifest.json", None)
        ensure({f: hashlib.sha256(b).digest() for f, b in files.items()} == self.reference,
               "artifacts differ from the set-up run")
        self._check_files(files, manifest)
        if manifest != self.reference_manifest:
            self.counters["cli.manifest_nondeterministic"] += 1


class CliCold:
    """``hhsim binding`` with a seeded sweep, one fresh interpreter per call.

    The set-up run's stdout is the reference: it is checked against the
    closed-form U_cr = -2 V t' / (t' + 4 V / 3 pi) written out here, and
    every later run must print the same bytes.  Under tracing, the
    subprocess runs the CLI through ``spans.py`` and its spans are merged.
    """

    name = "cli-cold"
    probe = "spawn"

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.tracer = None
        self.workdir = workdir
        t_prime = round(rng.uniform(0.5, 2.0), 3)
        v_min = round(rng.uniform(0.0, 2.0), 3)
        v_max = round(rng.uniform(8.0, 20.0), 3)
        steps = rng.randint(21, 61)
        self.argv = ["binding", "--model", "diagonal", "--t-prime", str(t_prime),
                     "--v-min", str(v_min), "--v-max", str(v_max), "--steps", str(steps)]
        self.ops = [self.argv]
        self.counters = {"cli.bytes_written": 0}
        proc = self.call(-1)
        ensure(proc.returncode == 0, f"reference run exited {proc.returncode}: {proc.stderr!r}")
        self.reference = proc.stdout
        body = self.reference.decode().split("\n", 1)[1]
        rows = list(csv.reader(io.StringIO(body)))
        ensure(rows[0] == ["V", "U_cr", "pole"] and len(rows) == steps + 1,
               "unexpected threshold table layout")
        for k, (V, U_cr, pole) in enumerate(rows[1:]):
            V_k = v_min + (v_max - v_min) * k / (steps - 1)
            expect = -2.0 * V_k * t_prime / (t_prime + 4.0 * V_k / (3.0 * math.pi))
            ensure(math.isclose(float(V), V_k, rel_tol=1e-9, abs_tol=1e-12)
                   and math.isclose(float(U_cr), expect, rel_tol=1e-8, abs_tol=1e-12)
                   and pole == "0", f"row {k}: {V}, {U_cr}, {pole} (expected U_cr {expect})")

    def call(self, i):
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *self.argv]
        else:
            cmd = [sys.executable, str(BENCH / "spans.py"), str(self.workdir / "cli-spans.json"),
                   repr(time.perf_counter()), "--", *self.argv]
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, timeout=60)

    def check(self, i, proc, prev):
        if self.tracer is not None:
            path = self.workdir / "cli-spans.json"
            self.tracer.merge(json.loads(path.read_text()))
            path.unlink()
        self.counters["cli.bytes_written"] += len(proc.stdout)
        ensure(proc.returncode == 0, f"exit status {proc.returncode}: {proc.stderr!r}")
        ensure(proc.stdout == self.reference, "stdout differs from the set-up run")


WORKLOADS = {w.name: w for w in (PairScan, OracleValidate, Figures, CliCold)}


def speed_factors(probes, ref):
    """Per operation: ``ref`` over the centred median of five probe times."""
    return [ref / statistics.median(probes[max(0, i - 2):i + 3]) for i in range(len(probes))]


def closed_loop(wl, seconds, tracer=None, whole_cycles=False, first=0):
    """Call, time and check operations until ``seconds`` have passed.

    Operations are numbered from ``first`` on.  Only the call is timed;
    the check runs after it, before the next call.  A speed probe runs
    before each call, outside the timing.  With ``whole_cycles`` the loop
    stops only at the end of a cycle.  Errors are (position, message).
    """
    cycle = len(wl.ops)
    probe, ref = PROBES[wl.probe]
    latencies, probes, errors = [], [], []
    prev = None
    start = time.perf_counter()
    deadline = start + seconds
    i = first
    while i == first or time.perf_counter() < deadline or (whole_cycles and (i - first) % cycle):
        probes.append(probe())
        if tracer is not None:
            tracer.op_id = i - first
        t0 = time.perf_counter()
        try:
            out = wl.call(i)
        except Exception as exc:  # a raising operation is a failed one
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        t1 = time.perf_counter()
        if error is None:
            try:
                wl.check(i, out, prev)
            except Exception as exc:  # CheckFailed, or output the check cannot read
                error = f"{type(exc).__name__}: {exc}"
        prev = out if error is None else None
        if error is not None:
            errors.append((len(latencies), f"op {i}: {error}"))
        latencies.append(t1 - t0)
        i += 1
    return {"start": start, "latencies": latencies, "probes": probes,
            "factors": speed_factors(probes, ref), "errors": errors}


def pool(loops):
    """One loop record from several, as if their operations ran in one."""
    out = {"latencies": [], "probes": [], "factors": [], "errors": []}
    for loop in loops:
        out["errors"] += [(pos + len(out["latencies"]), msg) for pos, msg in loop["errors"]]
        for key in ("latencies", "probes", "factors"):
            out[key] += loop[key]
    return out


def latency_summary(loop):
    """Throughput, median and tail of one closed loop, at reference speed.

    Each operation's time is multiplied by its speed factor.  Throughput
    is completed operations over the summed call times, so the checks and
    probes between calls are left out.  A failed operation's latency
    counts as infinite in the percentiles; its time counts in throughput.  The tail is the
    highest percentile with at least ten samples above it: the 11th
    largest latency, at percentile 100 (n - 10) / n.  A run of 20
    samples or fewer has no such tail above its median, so there the
    tail is the largest latency, at percentile 100.
    """
    scaled = [t * f for t, f in zip(loop["latencies"], loop["factors"])]
    failed = {i for i, _ in loop["errors"]}
    lat = sorted(math.inf if i in failed else t for i, t in enumerate(scaled))
    n = len(lat)
    k = 10 if n > 20 else 0
    return {
        "attempted": n,
        "failed": len(failed),
        "throughput_ops_s": (n - len(failed)) / sum(scaled),
        "raw_throughput_ops_s": (n - len(failed)) / sum(loop["latencies"]),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[n - 1 - k] * 1e3,
        "tail_percentile": 100.0 * (n - k) / n,
        "samples_beyond_tail": k,
        "raw_op_p50_ms": statistics.median(loop["latencies"]) * 1e3,
        "probe_median_ms": statistics.median(loop["probes"]) * 1e3,
        "errors": [msg for _, msg in loop["errors"][:5]],
    }


def per_layer(wl, traced, untraced, summary):
    """Per-operation layer metrics of the traced phase (see BENCHMARK.json).

    ``summary`` comes from ``spans.summarize`` with the traced loop's
    speed factors, so its times are at reference speed like the loop's.
    """
    ops = len(traced["latencies"])
    calls, busy_fn = summary["calls"], summary["busy_fn"]
    busy, self_s, entries = summary["busy"], summary["self"], summary["entries"]

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    solves = count("pairs.pair_energies")
    out = {
        "greens.calls": entries["greens"],
        "greens.busy_s": busy["greens"],
        "elliptic.calls": entries["elliptic"],
        "elliptic.busy_s": busy["elliptic"],
        "pairs.solves": solves,
        "pairs.det_evals": count("pairs.det_diagonal", "pairs.det_full"),
        "pairs.roots": wl.counters.get("pairs.roots", 0),
        "oracle.ground_calls": count("oracle.ground_energies"),
        "oracle.sites": wl.counters.get("oracle.sites", 0),
        "oracle.build_s": busy_fn.get("oracle.relative_hamiltonian", 0.0)
        + busy_fn.get("oracle.inversion_projector", 0.0),
        "oracle.eigsh_s": busy["eigsh"],
        "oracle.eigsh_calls": entries["eigsh"],
        "oracle.bruteforce_s": busy_fn.get("oracle.brute_force_two_body", 0.0),
        "rydberg.phi_maps": count("rydberg.effective_interaction"),
        "rydberg.coupling_f_calls": count("rydberg.coupling_f"),
        "rydberg.busy_s": busy["rydberg"],
        "lattice.patterns": count(*(f"lattice.{f}" for f in (
            "holstein_reference", "offset_parallel", "offset_parallel_rotated",
            "crossed", "bipartite_parallel"))),
        "lattice.site_potential_calls": count("lattice.site_potential"),
        "lattice.busy_s": busy["lattice"],
        "stark.calls": entries["stark"],
        "stark.busy_s": busy["stark"],
        "hubbard.calls": entries["hubbard"],
        "hubbard.busy_s": busy["hubbard"],
        "phases.points": count("phases.phase_point"),
        "phases.busy_s": busy["phases"],
        "cli.files_written": wl.counters.get("cli.files_written", 0),
        "cli.bytes_written": wl.counters.get("cli.bytes_written", 0),
        "cli.manifest_nondeterministic": wl.counters.get("cli.manifest_nondeterministic", 0),
        "trace.spans": summary["spans"],
    }
    for layer in spans.ALL_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    op_s = sum(t * f for t, f in zip(traced["latencies"], traced["factors"]))
    attributed = sum(self_s.values())
    out.update({"trace.op_s": op_s, "trace.attributed_s": attributed,
                "trace.unattributed_s": op_s - attributed})
    ratios = {
        "pairs.det_evals_per_solve": out["pairs.det_evals"] / solves if solves else 0.0,
        "greens.us_per_call": busy["greens"] / entries["greens"] * 1e6 if entries["greens"] else 0.0,
        "trace.ops": ops,
    }
    out = {k: v / ops for k, v in out.items()}
    out.update(ratios)
    untraced_rate = latency_summary(untraced)["throughput_ops_s"]
    traced_rate = latency_summary(traced)["throughput_ops_s"]
    out.update({"trace.untraced_ops_s": untraced_rate, "trace.traced_ops_s": traced_rate,
                "trace.slowdown": untraced_rate / traced_rate})
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--part", type=int, default=0, choices=range(PARTS),
                   help="untraced: start at operation part * cycle // PARTS")
    args = p.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    if not args.trace:
        loop = closed_loop(wl, args.seconds, first=args.part * len(wl.ops) // PARTS)
        result = {"loop": loop}
    else:
        loop = untraced = closed_loop(wl, args.seconds / 2)
        for key in wl.counters:
            wl.counters[key] = 0
        tracer = wl.tracer = spans.Tracer()
        tracer.install()
        try:
            traced = closed_loop(wl, args.seconds / 2, tracer=tracer, whole_cycles=True)
        finally:
            tracer.uninstall()
        tracer.save(args.workdir.parent / f"spans-{args.workload}.json")
        summary = spans.summarize(tracer, traced["factors"])
        result = {"loop": pool([untraced, traced]),
                  "per_layer": per_layer(wl, traced, untraced, summary)}
    result.update(ready=loop["start"], probes=loop["probes"][:5])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # cli-cold's users wait on the CLI processes, so theirs is the peak that matters
    result["peak_rss_kb"] = children if args.workload == "cli-cold" else own
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
