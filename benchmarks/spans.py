"""Span tracing of the hhsim layers, installed from outside the package.

Every public function defined in a layer module is wrapped, and the
wrapper is rebound in every ``hhsim`` namespace (and module-level dict)
that holds the original, so ``from .greens import greens_M_all`` in
``pairs`` is traced as well.  ``eigsh`` bound in ``oracle`` is wrapped as
its own layer.  Nothing under ``src/`` is modified; ``uninstall`` puts
the originals back.

A span is (name, start, end, parent span, operation id), kept in flat
in-memory arrays and written out once, after the traced phase, as a
JSON list of such tuples.  A span's
self time is its duration minus the durations of its direct children.

Run as a script, this module executes the ``hhsim`` command line under
the tracer and writes the spans to a JSON file; the ``cli-cold``
workload uses that to trace its subprocesses:

    python3 benchmarks/spans.py SPANS.json SPAWN_TIME -- binding --steps 41
"""

import time

_SCRIPT_START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

LAYERS = ("stark", "lattice", "rydberg", "hubbard", "elliptic", "greens",
          "pairs", "oracle", "phases", "cli")
# Layers for the accounting only: the scipy solver bound in oracle, and the
# interpreter start and package import of a traced CLI subprocess.
EXTRA_LAYERS = ("eigsh", "startup")
ALL_LAYERS = LAYERS + EXTRA_LAYERS


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack = [-1]
        self._undo = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name, start, end, parent=-1):
        """Append a finished span; returns its index."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)
        return idx

    def _wrap(self, fn, name):
        nid = self.name_id(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the layer functions of the imported ``hhsim`` modules."""
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"hhsim.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        eigsh = sys.modules["hhsim.oracle"].eigsh
        wrappers[id(eigsh)] = (eigsh, self._wrap(eigsh, "eigsh.eigsh"))

        def rebind(table):
            for key, obj in list(table.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    table[key] = hit[1]
                    self._undo.append((table, key, obj))

        for modname, mod in list(sys.modules.items()):
            if modname == "hhsim" or modname.startswith("hhsim."):
                namespace = vars(mod)
                rebind(namespace)
                for obj in list(namespace.values()):
                    if isinstance(obj, dict):
                        rebind(obj)

    def uninstall(self):
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def merge(self, spans, parent=-1):
        """Append spans saved by another process (same monotonic clock),
        under ``parent`` and the current operation."""
        base = len(self.start)
        for name, start, end, par, _op in spans:
            self.add_span(name, start, end, base + par if par >= 0 else parent)

    def save(self, path):
        """Write the spans as a JSON list of (name, start, end, parent, op)."""
        with open(path, "w") as fh:
            json.dump([(self.names[n], s, e, p, o) for n, s, e, p, o in
                       zip(self.name, self.start, self.end, self.parent, self.op)], fh)


def summarize(tracer, op_scale=None):
    """Per-layer totals and per-function counts of all recorded spans.

    With ``op_scale``, each span's duration is multiplied by the entry
    for its operation id (spans outside an operation are left as they are).

    Returns {"self": {layer: s}, "busy": {layer: s}, "entries": {layer: n},
    "calls": {function: n}, "busy_fn": {function: s}, "spans": n}.  A
    layer's entries are its spans whose parent lies in another layer (or
    none); its busy time is the summed duration of those entries.
    """
    layer_of = [n.split(".", 1)[0] for n in tracer.names]
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    if op_scale is not None:
        dur = [d * op_scale[op] if op >= 0 else d for d, op in zip(dur, tracer.op)]
    child = [0.0] * len(dur)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    out = {"self": dict.fromkeys(ALL_LAYERS, 0.0), "busy": dict.fromkeys(ALL_LAYERS, 0.0),
           "entries": dict.fromkeys(ALL_LAYERS, 0), "calls": {}, "busy_fn": {},
           "spans": len(dur)}
    for i, nid in enumerate(tracer.name):
        name, layer = tracer.names[nid], layer_of[nid]
        out["self"][layer] += dur[i] - child[i]
        out["calls"][name] = out["calls"].get(name, 0) + 1
        out["busy_fn"][name] = out["busy_fn"].get(name, 0.0) + dur[i]
        p = tracer.parent[i]
        if p < 0 or layer_of[tracer.name[p]] != layer:
            out["entries"][layer] += 1
            out["busy"][layer] += dur[i]
    return out


def _run_cli(spans_path, spawn_time, argv):
    """Import and run the hhsim CLI under the tracer; spans go to a JSON file."""
    tracer = Tracer()
    tracer.add_span("startup.interp", spawn_time, _SCRIPT_START)
    t0 = time.perf_counter()
    cli = importlib.import_module("hhsim.cli")
    tracer.add_span("startup.import", t0, time.perf_counter())
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.save(spans_path)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: spans.py SPANS.json SPAWN_TIME -- CLI-ARGS...")
    sys.exit(_run_cli(sys.argv[1], float(sys.argv[2]), sys.argv[4:]))
