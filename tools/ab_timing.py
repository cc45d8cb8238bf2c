"""Interleaved timing of two hhsim source trees in one interpreter.

    python tools/ab_timing.py OLD/src src --workload oracle-validate --seed 1

copies each tree's ``hhsim`` package under its own name (``hhsim_parent``
from the first tree, ``hhsim_change`` from the second) into a temporary
directory, imports both, and builds each one's operation cycle with the
workload class of ``benchmarks/workload.py``, so both sides run the very
operations and checks of ``benchmarks/run.py``.  Only the in-process
workloads ``oracle-validate`` and ``pair-scan`` are supported.

One untimed cycle per side comes first: it warms the caches, counts the
ARPACK products (the operator applications of every ``eigsh`` call in
``oracle``) and the Green's tables (the ``greens_M_table`` calls that
``pairs`` makes), and compares the two sides' levels.  Then ``--cycles``
cycles run with the two sides interleaved operation by operation: each
operation runs on both sides back to back, and the side that goes first
alternates from one operation to the next and from one cycle to the
next, so a drift of the machine's speed reaches both sides alike.  Only
the call is timed; the workload's check runs after it.

Reported per side and operation kind (the model variant for
oracle-validate; above, below or deep for pair-scan; and ``all``): p50
and p90 in ms, and the change/parent ratio of each with a 95% bootstrap
interval over whole cycles.  The JSON also records the cycle count, the
ARPACK products and Green's tables per cycle, the largest level
difference between the sides in units of t', failed operations, each
tree's source hash (the ``src_sha256`` of ``benchmarks/run.py``), the
machine and the thread pins.  ``--write BENCH_<label>.json`` writes it; the summary goes to
stdout.  One tree against itself,

    python tools/ab_timing.py src src --workload oracle-validate --seed 1

is the A/A check: its ratios show the noise of the method.  The package
and the tests do not import this script.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

# pinned before numpy loads, as benchmarks/run.py pins its children
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workload  # noqa: E402

SIDES = ("parent", "change")
# the operation kind and the levels (with their unit t') of one operation
KINDS = {"oracle-validate": lambda op: op[0].variant, "pair-scan": lambda op: op[0]}
LEVELS = {"oracle-validate": lambda op, out: ([e for s in out[0] for e in s.energies], op[0].t_prime),
          "pair-scan": lambda op, out: ([s.E for s in out], op[1].t_prime)}
BOOTSTRAP = 2000


def load_tree(src, name, tmp):
    """Import src/hhsim as the package ``name``, copied into tmp."""
    shutil.copytree(Path(src) / "hhsim", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def build(cls, pkg, seed, workdir):
    """The workload built on pkg: ``from hhsim import ...`` in its set-up
    resolves to pkg while it runs."""
    saved = sys.modules.get("hhsim"), workload.import_hhsim
    sys.modules["hhsim"], workload.import_hhsim = pkg, lambda: pkg
    try:
        return cls(seed, workdir)
    finally:
        workload.import_hhsim = saved[1]
        if saved[0] is None:
            del sys.modules["hhsim"]
        else:
            sys.modules["hhsim"] = saved[0]


def counted_cycle(wl, pkg):
    """Run one cycle untimed; return its outputs, its ARPACK product count
    and its count of ``pairs.greens_M_table`` calls."""
    oracle = sys.modules.get(f"{pkg.__name__}.oracle")
    pairs = sys.modules.get(f"{pkg.__name__}.pairs")
    products = tables = 0
    if oracle is not None:
        from scipy.sparse.linalg import LinearOperator

        real_eigsh = oracle.eigsh

        def eigsh(A, **kw):
            def matvec(x):
                nonlocal products
                products += 1
                return A.matvec(x)
            return real_eigsh(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), **kw)

        oracle.eigsh = eigsh
    if pairs is not None:
        real_table = pairs.greens_M_table

        def greens_M_table(*args):
            nonlocal tables
            tables += 1
            return real_table(*args)

        pairs.greens_M_table = greens_M_table
    try:
        outs = [wl.call(i) for i in range(len(wl.ops))]
    finally:
        if oracle is not None:
            oracle.eigsh = real_eigsh
        if pairs is not None:
            pairs.greens_M_table = real_table
    return outs, products, tables


def timed(wl, i, prev):
    """(seconds, output or None, error or None) of operation i and its check."""
    t0 = time.perf_counter()
    try:
        out = wl.call(i)
    except Exception as exc:  # a raising operation is a failed one
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        wl.check(i, out, prev)
    except Exception as exc:  # CheckFailed, or output the check cannot read
        return dt, None, f"{type(exc).__name__}: {exc}"
    return dt, out, None


def ratio(times, mask, q, rng):
    """change/parent ratio of the q-th percentile of the operations in
    mask, and its 95% bootstrap interval over resampled cycles.  times
    holds a (cycles, ops) array of ms per side."""
    def stat(cycles):
        return (np.percentile(times["change"][cycles][:, mask], q)
                / np.percentile(times["parent"][cycles][:, mask], q))

    n = times["parent"].shape[0]
    boot = [stat(rng.integers(n, size=n)) for _ in range(BOOTSTRAP)]
    return {"value": float(stat(np.arange(n))),
            "ci95": [float(v) for v in np.percentile(boot, [2.5, 97.5])]}


def tree_sha256(src):
    """SHA-256 of src/hhsim/*.py, as ``benchmarks/run.py`` reports it."""
    digest = hashlib.sha256()
    for path in sorted((Path(src) / "hhsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), platform.machine())
    except OSError:
        return platform.machine()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", help="the parent's src directory")
    p.add_argument("new", help="the change's src directory")
    p.add_argument("--workload", required=True, choices=sorted(KINDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--write", metavar="FILE", help="write the JSON here")
    args = p.parse_args(argv)
    if args.cycles < 2:
        p.error("--cycles must be at least 2")

    pinned_cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned_cpu})
    cls = workload.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load_tree(src, f"hhsim_{side}", tmp)
                for side, src in zip(SIDES, (args.old, args.new))}
        wls = {side: build(cls, pkgs[side], args.seed, Path(tmp)) for side in SIDES}
        ops = wls["parent"].ops
        kinds = [KINDS[args.workload](op) for op in ops]
        products, tables, levels = {}, {}, {}
        for side in SIDES:
            outs, products[side], tables[side] = counted_cycle(wls[side], pkgs[side])
            levels[side] = [LEVELS[args.workload](op, out) for op, out in zip(wls[side].ops, outs)]
        diffs = [abs(a - b) / tp for (xs, tp), (ys, _) in zip(levels["parent"], levels["change"])
                 for a, b in zip(xs, ys)]
        same_counts = all(len(x[0]) == len(y[0]) for x, y in zip(levels["parent"], levels["change"]))

        times = {side: [] for side in SIDES}
        failed = {side: [] for side in SIDES}
        prev = dict.fromkeys(SIDES)
        for c in range(args.cycles):
            for side in SIDES:
                times[side].append([])
            for k in range(len(ops)):
                i = c * len(ops) + k
                for side in (SIDES if (k + c) % 2 == 0 else SIDES[::-1]):
                    dt, prev[side], error = timed(wls[side], i, prev[side])
                    times[side][c].append(dt * 1e3)
                    if error is not None:
                        failed[side].append(f"op {i}: {error}")

    times = {side: np.array(times[side]) for side in SIDES}
    rng = np.random.default_rng(0)
    summary = {}
    for kind in sorted(set(kinds)) + ["all"]:
        mask = np.array([kind in (k, "all") for k in kinds])
        row = {side: {"n": int(times[side][:, mask].size),
                      "p50_ms": float(np.percentile(times[side][:, mask], 50)),
                      "p90_ms": float(np.percentile(times[side][:, mask], 90))} for side in SIDES}
        row["p50_ratio"] = ratio(times, mask, 50, rng)
        row["p90_ratio"] = ratio(times, mask, 90, rng)
        summary[kind] = row

    result = {
        "workload": args.workload, "seed": args.seed, "cycles": args.cycles,
        "ops_per_cycle": len(ops), "src_sha256": {"parent": tree_sha256(args.old), "change": tree_sha256(args.new)},
        "arpack_products_per_cycle": products, "greens_tables_per_cycle": tables,
        "max_level_difference_t_prime": max(diffs, default=0.0) if same_counts else None,
        "failed": failed, "kinds": summary, "thread_pins": THREAD_PINS, "pinned_cpu": pinned_cpu,
        "machine": cpu_model(), "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if args.write:
        Path(args.write).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload} seed {args.seed}: {args.cycles} cycles of {len(ops)} ops; "
          f"ARPACK products per cycle {products['parent']} -> {products['change']}; "
          f"Green's tables per cycle {tables['parent']} -> {tables['change']}; "
          f"max level difference {result['max_level_difference_t_prime']} t'")
    for kind, row in summary.items():
        print(f"  {kind:9s} p50 {row['parent']['p50_ms']:8.3f} -> {row['change']['p50_ms']:8.3f} ms "
              f"(x{row['p50_ratio']['value']:.3f}, {row['p50_ratio']['ci95'][0]:.3f}-"
              f"{row['p50_ratio']['ci95'][1]:.3f})  p90 {row['parent']['p90_ms']:8.3f} -> "
              f"{row['change']['p90_ms']:8.3f} ms (x{row['p90_ratio']['value']:.3f}, "
              f"{row['p90_ratio']['ci95'][0]:.3f}-{row['p90_ratio']['ci95'][1]:.3f})")
    for side in SIDES:
        for error in failed[side]:
            print(f"  {side} failed: {error}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
