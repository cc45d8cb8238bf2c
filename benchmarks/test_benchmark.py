"""Tests of the benchmark itself (not collected by the package's tests/):

    python3 -m pytest benchmarks
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def _src_on_child_path(monkeypatch):
    # cli-cold's subprocesses import hhsim through PYTHONPATH
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_has_no_failed_operation(name, trace):
    proc = run_benchmark(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]


def one_cycle(wl, tracer=None):
    """Run exactly one cycle of the workload's operations."""
    return workload.closed_loop(wl, 0, tracer=tracer, whole_cycles=True)


def _wrong_pair_reference(wl):
    # the first "above U_cr" model replaced by its "below" partner
    wl.ops[0] = ("above", wl.ops[1][1])
    return 1


def _wrong_root(wl):
    wl.ops = [(model, root + 0.01, ground6) for model, root, ground6 in wl.ops]


def _wrong_artifact_hash(wl):
    wl.reference["phase_grid.csv"] = b"\0" * 32


def _wrong_stdout(wl):
    wl.reference = wl.reference.replace(b"0", b"1", 1)


CORRUPTIONS = {
    "pair-scan": _wrong_pair_reference,
    "oracle-validate": _wrong_root,
    "figures": _wrong_artifact_hash,
    "cli-cold": _wrong_stdout,
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_reference_counts_as_failed_operation(name, tmp_path):
    wl = workload.WORKLOADS[name](1, tmp_path)
    expected = CORRUPTIONS[name](wl)
    loop = one_cycle(wl)
    n = len(loop["latencies"])
    assert n == len(wl.ops)
    assert len(loop["errors"]) == (n if expected is None else expected), loop["errors"]
    summary = workload.latency_summary(loop)
    assert summary["failed"] == len(loop["errors"])
    assert math.isinf(summary["op_tail_ms"])


def traced_cycle(name, seed, workdir):
    workdir.mkdir()
    wl = workload.WORKLOADS[name](seed, workdir)
    tracer = spans.Tracer()
    wl.tracer = tracer
    tracer.install()
    try:
        loop = one_cycle(wl, tracer)
    finally:
        tracer.uninstall()
    assert not loop["errors"]
    return workload.per_layer(wl, loop, loop, spans.summarize(tracer, loop["factors"]))


@pytest.mark.parametrize("name, counts", [
    ("pair-scan", ("greens.calls", "pairs.det_evals", "elliptic.calls")),
    ("oracle-validate", ("oracle.sites", "oracle.eigsh_calls")),
    ("figures", ("rydberg.coupling_f_calls", "lattice.site_potential_calls")),
])
def test_layer_counts_repeat_for_a_seed(name, counts, tmp_path):
    first = traced_cycle(name, 3, tmp_path / "a")
    second = traced_cycle(name, 3, tmp_path / "b")
    for key in counts:
        assert first[key] > 0 and first[key] == second[key], key
    assert first["trace.attributed_s"] <= first["trace.op_s"]


def test_tracer_rebinds_every_namespace_and_restores_it():
    import hhsim.greens
    import hhsim.oracle
    import hhsim.pairs
    import hhsim.phases

    original = hhsim.greens.greens_M_all
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, attr in ((hhsim.pairs, "greens_M_all"), (hhsim.greens, "greens_M_all"),
                          (hhsim.greens, "elliptic_KE"), (hhsim.oracle, "eigsh"),
                          (hhsim.phases, "hopping_t")):
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        hhsim.pairs.det_full(-9.0, -2.0, 0.5, 0.5, 1.0)
    finally:
        tracer.uninstall()
    assert hhsim.pairs.greens_M_all is original
    summary = spans.summarize(tracer)
    assert summary["calls"] == {"pairs.det_full": 1, "greens.greens_M_all": 1,
                                "elliptic.elliptic_KE": 1}
    assert summary["entries"]["greens"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
