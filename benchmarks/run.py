"""hhsim benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload pair-scan --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads and metrics are listed in
``BENCHMARK.json``; ``benchmarks/README.md`` explains them.

With ``--trace 0`` the workload runs untraced for ``--seconds``, split
over five fresh interpreters one after the other (each starts a fifth of
the way further into the operation cycle), and the end-to-end metrics
are reported over their pooled operations; the set-up time is the
median of the five.  With ``--trace 1`` the workload runs half
the time untraced and half traced, and the per-layer metrics are
reported.  Every process started here runs with BLAS/OpenMP pinned to
one thread, one at a time.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``# report``, records the machine, environment, seed and
sample counts.  Exits non-zero without a result if the checkout has no
``src/hhsim`` or a set-up fails.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from workload import PARTS, PROBES, WORKLOADS, latency_summary, pool  # noqa: E402

STARTUP_SAMPLES = 5      # spawns each for cli.interp_s and cli.import_s
# a child may take this long beyond the seconds it measures (set-up, a
# traced run's last whole cycle) before it is stopped
CHILD_MARGIN_S = 120
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, env, seconds=0.0):
    """Run a child that measures ``seconds`` to completion; return
    (wall seconds, spawn time, process).  Exits without a result if the
    child runs past ``seconds`` plus the margin."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env, cwd=ROOT, timeout=seconds + CHILD_MARGIN_S)
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"{cmd[1]} ran past {exc.timeout:g} s; stopped") from None
    return time.perf_counter() - t0, t0, proc


def run_workload(args, env, workdir, seconds, extra=()):
    """Start workload.py; return its set-up time and parsed last stdout line.

    The set-up time runs from the spawn to the first timed operation, at
    reference speed: the speed is the median of five probes just before
    the spawn and the child's first five.
    """
    probe, ref = PROBES[WORKLOADS[args.workload].probe]
    before = [probe() for _ in range(5)]
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    _, t_spawn, proc = spawn(cmd, env, seconds)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"workload {args.workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    raw = result["ready"] - t_spawn
    return raw * ref / statistics.median(before + result["probes"]), raw, result


def startup_times(env):
    """Medians of a bare interpreter start and of a fresh ``import hhsim.cli``,
    at reference speed (a probe runs before each spawn)."""
    probe, ref = PROBES["cpu"]
    bare, full, probes = [], [], []
    for _ in range(STARTUP_SAMPLES):
        probes.append(probe())
        bare.append(spawn([sys.executable, "-c", "pass"], env)[0])
        probes.append(probe())
        full.append(spawn([sys.executable, "-c", "import hhsim.cli"], env)[0])
    scale = ref / statistics.median(probes)
    interp = statistics.median(bare)
    return interp * scale, (statistics.median(full) - interp) * scale


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy", "mpmath", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = git.stdout.decode().strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hhsim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), **versions,
        "commit": commit, "src_sha256": src_hash.hexdigest(),
        "thread_pins": THREAD_PINS,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hhsim" / "__init__.py").is_file():
        print(f"no hhsim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    report = {"env": environment(args)}
    # one CPU for this process and every child: the speed probes then
    # measure the CPU the program runs on
    report["env"]["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {report["env"]["pinned_cpu"]})
    env = child_env()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        # writes the bytecode caches, so no timed start compiles
        _, _, warm = spawn([sys.executable, "-c", "import hhsim.cli"], env)
        if warm.returncode != 0:
            sys.stderr.write(warm.stderr.decode(errors="replace"))
            return 2
        setups, raw_setups, results = [], [], []
        if args.trace:
            interp_s, import_s = startup_times(env)
            parts = [(args.seconds, [])]
        else:
            parts = [(args.seconds / PARTS, ["--part", str(k)]) for k in range(PARTS)]
        for seconds, extra in parts:
            setup, raw, result = run_workload(args, env, workdir, seconds, extra)
            setups.append(setup)
            raw_setups.append(raw)
            results.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = latency_summary(pool([r["loop"] for r in results]))
    report["loop"] = loop
    if args.trace:
        values = dict(results[0]["per_layer"], **{"cli.interp_s": interp_s,
                                                  "cli.import_s": import_s})
        wanted = spec["per_layer"]
    else:
        report.update(setup_samples_s=setups, raw_setup_samples_s=raw_setups)
        values = {
            "throughput_ops_s": loop["throughput_ops_s"],
            "op_p50_ms": loop["op_p50_ms"],
            "op_tail_ms": loop["op_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024.0,
        }
        wanted = spec["end_to_end"]
    # a failed operation makes latencies infinite, which JSON cannot hold
    metrics = {m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]]) else None,
                           "unit": m["unit"]} for m in wanted}

    print(f"hhsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {values[name]:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  op_tail_ms is p{loop['tail_percentile']:.2f} of {loop['attempted']} samples "
              f"({loop['samples_beyond_tail']} beyond it); setup_s is the median of "
              f"{len(setups)} set-ups")
    kind = WORKLOADS[args.workload].probe
    print(f"  times are at reference speed: {kind} probe median {loop['probe_median_ms']:.4g} ms "
          f"vs {PROBES[kind][1] * 1e3:.4g} ms; unscaled op_p50_ms {loop['raw_op_p50_ms']:.6g}")
    fail_frac = loop["failed"] / loop["attempted"]
    print(f"  {'fail_frac':34s} {fail_frac:14.6g} ratio "
          f"({loop['failed']} failed of {loop['attempted']} attempted)")
    for error in loop["errors"]:
        print(f"  failed: {error}")
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": loop["failed"] == 0, "attempted": loop["attempted"],
                      "failed": loop["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
