"""Rules about the package source as a whole, read from its syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hhsim"

# Public names that no code in src/hhsim reads, each with the reader outside it.
_GAMMA = "acceptance criterion 02 and tests/_oracles.threshold_full_closed_form"
UNREAD_ALLOWED = {
    "greens.GAMMA1": _GAMMA,
    "greens.GAMMA2": _GAMMA,
    "greens.GAMMA3": _GAMMA,
    "oracle.brute_force_two_body": "benchmark workload oracle-validate",
    "pairs.lf_map_main": "ROADMAP item 6 plans its caller",
    "pairs.lf_map_physical": "ROADMAP item 6 plans its caller",
    "pairs.pair_dispersion_strong_coupling": "acceptance criterion 08",
    "pairs.pair_mass": "acceptance criterion 08",
    "pairs.threshold_physical_poles": "acceptance criterion 07",
    "rydberg.rydberg_potential": "test reference: coupling_f is its gradient",
}


# Defaulted parameters and dataclass fields that no call in src/hhsim sets,
# each with the reason it stays.
_EXTENT = "test reference: the truncation test builds extent 8"
UNSET_ALLOWED = {
    "main.argv": "the entry point: tests and the benchmark pass argv",
    "bipartite_parallel.extent": _EXTENT,
    "crossed.extent": _EXTENT,
    "holstein_reference.extent": _EXTENT,
    "offset_parallel.extent": _EXTENT,
    "offset_parallel_rotated.extent": _EXTENT,
    "LFParams.hbar_omega_ph": "ROADMAP item 6 plans its caller",
    "LFParams.phi_nn_ratio": "ROADMAP item 6 plans its caller",
    "LFParams.phi_nnn_ratio": "ROADMAP item 6 plans its caller",
    "LFParams.U_fesh": "ROADMAP item 6 plans its caller",
    "PhaseFamily.phi_nn_ratio": "ROADMAP item 6 plans its setter",
}

# Dataclass fields that no statement in src/hhsim reads, each with the reader
# outside it.
FIELD_UNREAD_ALLOWED = {
    "oracle.TwoBodySpectrum.bound_count": "acceptance criterion 05",
    "phases.PhaseGrid.lam_axis": "acceptance criterion 11",
}


def _names(node):
    """Every name a subtree reads: bare names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _defined(stmt):
    """The names a top-level statement binds: a def's or class's, or those an
    assignment stores."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def unread_public_names(src):
    """Sorted ``module.name`` of each public top-level def, class or assigned
    name in src/*.py that no other top-level statement of any module in src
    reads."""
    statements = [(p.stem, stmt) for p in sorted(src.glob("*.py"))
                  for stmt in ast.parse(p.read_text()).body]
    read = [_names(stmt) for _, stmt in statements]
    return sorted(f"{module}.{name}" for i, (module, stmt) in enumerate(statements)
                  for name in _defined(stmt) if not name.startswith("_")
                  and not any(name in names for j, names in enumerate(read) if j != i))


def test_every_public_name_in_src_has_a_reader_in_src_or_an_allowlisted_one():
    unread = unread_public_names(SRC)
    extra = [name for name in unread if name not in UNREAD_ALLOWED]
    assert not extra, f"public names that nothing in src/hhsim reads: {extra}"
    # an allowlisted name that gained a reader in src, or was deleted, leaves the list
    assert sorted(UNREAD_ALLOWED) == [name for name in unread if name in UNREAD_ALLOWED]


@pytest.mark.parametrize("source, unread", [
    ("def f(): pass\nclass C: pass\nf(C)", []),
    ("def f(): pass\ndef _g(): pass", ["m.f"]),                   # a private name is not counted
    ("X = 1\nY: int = 2\nA, (B, _c) = 3, (4, 5)\nprint(Y, B)", ["m.A", "m.X"]),
    ("X = 1\ndef f(): return X\nf()", []),                      # read inside a def
    ("X = [1]\nX[0] = 2", []),                                    # a store into X reads X
    ("def f(): return f\nX = X if 0 else 1", ["m.X", "m.f"]),     # its own statement does not count
])
def test_unread_public_names_counts_defs_classes_and_assigned_names(tmp_path, source, unread):
    (tmp_path / "m.py").write_text(source)
    assert unread_public_names(tmp_path) == unread


def _is_dataclass(stmt):
    return isinstance(stmt, ast.ClassDef) and any("dataclass" in _names(d)
                                                  for d in stmt.decorator_list)


def _defaulted_parameters(fn, bound):
    """(name, position) of each defaulted parameter of a def: position is its
    index among the positional parameters, None if keyword-only; a bound
    method's first parameter is not counted."""
    positional = (fn.args.posonlyargs + fn.args.args)[bound:]
    first = len(positional) - len(fn.args.defaults)
    return ([(a.arg, first + i) for i, a in enumerate(positional[first:])]
            + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def _keywords(call):
    return {k.arg: k.value for k in call.keywords if k.arg}


def _dataclass_fields(cls):
    """(name, position) of each defaulted init field of a dataclass, as above."""
    out, position = [], 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        is_field = isinstance(value, ast.Call) and _names(value.func) == {"field"}
        options = _keywords(value) if is_field else {}
        flags = {k: v.value for k, v in options.items() if isinstance(v, ast.Constant)}
        if flags.get("init") is False:
            continue
        kw_only = flags.get("kw_only") is True
        if value is not None and (not is_field or {"default", "default_factory"} & options.keys()):
            out.append((stmt.target.id, None if kw_only else position))
        position += not kw_only
    return out


def _public_signatures(tree):
    """owner -> defaulted parameters of each public function, method and class
    of a module; owner is ``f``, ``Class`` or ``Class.method``."""
    signatures = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        if isinstance(stmt, ast.FunctionDef):
            signatures[stmt.name] = _defaulted_parameters(stmt, 0)
        elif isinstance(stmt, ast.ClassDef):
            methods = {m.name: m for m in stmt.body if isinstance(m, ast.FunctionDef)}
            if _is_dataclass(stmt):
                signatures[stmt.name] = _dataclass_fields(stmt)
            elif "__init__" in methods:
                signatures[stmt.name] = _defaulted_parameters(methods["__init__"], 1)
            for name, m in methods.items():
                if not name.startswith("_"):
                    static = any("staticmethod" in _names(d) for d in m.decorator_list)
                    signatures[f"{stmt.name}.{name}"] = _defaulted_parameters(m, 0 if static else 1)
    return signatures


def _registries(tree):
    """name -> value names of each module-level dict whose values are all names."""
    return {stmt.targets[0].id: [v.id for v in stmt.value.values]
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
            and isinstance(stmt.targets[0], ast.Name)
            and all(isinstance(v, ast.Name) for v in stmt.value.values)}


def _calls(tree, registries):
    """(callee names, positional count, keyword names) of every call in a module.

    ``cls(...)`` in a class body calls that class; ``REGISTRY[...](...)``, with
    REGISTRY one of ``registries``, calls each of its values.  A ``*``
    argument ends the positional count, and a ``**`` mapping sets no name.
    """
    for stmt in tree.body:
        for call in (n for n in ast.walk(stmt) if isinstance(n, ast.Call)):
            func = call.func
            if isinstance(func, ast.Subscript):
                callees = [v for name in _names(func.value) for v in registries.get(name, [])]
            elif isinstance(func, ast.Name):
                callees = [stmt.name if func.id == "cls" and isinstance(stmt, ast.ClassDef)
                           else func.id]
            else:
                callees = [func.attr] if isinstance(func, ast.Attribute) else []
            starred = [isinstance(a, ast.Starred) for a in call.args] + [True]
            yield callees, starred.index(True), set(_keywords(call))


def unset_defaults(src):
    """Sorted ``owner.name`` of each defaulted parameter of a public function
    or method, and each defaulted field of a public dataclass, in src/*.py
    that no call in src sets, by position or by keyword.  A call reaches an
    owner whose name, or whose last dotted part, it names."""
    trees = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))]
    signatures = {owner: params for tree in trees
                  for owner, params in _public_signatures(tree).items()}
    registries = {name: values for tree in trees for name, values in _registries(tree).items()}
    given = set()
    for tree in trees:
        for callees, n_positional, keywords in _calls(tree, registries):
            for owner, params in signatures.items():
                if owner.rsplit(".", 1)[-1] in callees:
                    given |= {(owner, name) for name, position in params if name in keywords
                              or (position is not None and position < n_positional)}
    return sorted(f"{owner}.{name}" for owner, params in signatures.items() for name, _ in params
                  if (owner, name) not in given)


def test_every_default_in_src_is_set_by_a_call_in_src_or_allowlisted():
    unset = unset_defaults(SRC)
    extra = [name for name in unset if name not in UNSET_ALLOWED]
    assert not extra, f"defaults that no call in src/hhsim sets: {extra}"
    # an allowlisted default that gained a setter in src, or was deleted, leaves the list
    assert sorted(UNSET_ALLOWED) == [name for name in unset if name in UNSET_ALLOWED]


@pytest.mark.parametrize("source, unset", [
    ("def f(x, y=1): pass\nf(0, 1)", []),
    ("def f(x, y=1): pass\nf(0)", ["f.y"]),
    ("def f(x, *, y=1): pass\nf(0, y=2)", []),
    ("def f(x, y=1): pass\nf(*[0, 1])", ["f.y"]),        # a * argument hides what it sets
    ("def f(x, y=1): pass\nf(0, **{'y': 2})", ["f.y"]),  # and so does a ** mapping
    ("def f(x, y=1): pass\ndef _g(x, y=1): pass\nR = {'f': f}\nR['f'](0, 1)", []),
    ("@dataclass\nclass C:\n    x: int\n    y: int = 0\n"
     "    @classmethod\n    def make(cls, z=0): return cls(z, 1)\nC.make(z=1)", []),
    ("@dataclass\nclass C:\n    x: int = field(init=False)\n"
     "    y: int = field(default=0, kw_only=True)\n    z: int = 0\nC(1)", ["C.y"]),
    ("class C:\n    def __init__(self, x=0): pass\n    def m(self, y=0): pass\nC(1).m()",
     ["C.m.y"]),
])
def test_unset_defaults_reads_positions_keywords_classes_and_registries(tmp_path, source, unset):
    (tmp_path / "m.py").write_text(source)
    assert unset_defaults(tmp_path) == unset


def unread_fields(src):
    """Sorted ``module.Class.field`` of each field of a public dataclass in
    src/*.py that no statement in src reads as an attribute (``x.field``);
    a read in the class's own ``__post_init__`` counts."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{module}.{cls.name}.{stmt.target.id}"
                  for module, tree in trees.items() for cls in tree.body
                  if _is_dataclass(cls) and not cls.name.startswith("_")
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


def test_every_dataclass_field_in_src_is_read_in_src_or_allowlisted():
    unread = unread_fields(SRC)
    extra = [name for name in unread if name not in FIELD_UNREAD_ALLOWED]
    assert not extra, f"dataclass fields that nothing in src/hhsim reads: {extra}"
    # an allowlisted field that gained a reader in src, or was deleted, leaves the list
    assert sorted(FIELD_UNREAD_ALLOWED) == [name for name in unread if name in FIELD_UNREAD_ALLOWED]


@pytest.mark.parametrize("source, unread", [
    ("@dataclass\nclass C:\n    x: int\nC(1).x", []),
    ("@dataclass\nclass C:\n    x: int\n    y: int = 0\nC(1).x", ["m.C.y"]),
    ("@dataclass\nclass C:\n    x: int\nc = C(1)\nc.x = 2", ["m.C.x"]),   # a write is no read
    ("@dataclass\nclass C:\n    x: int\n    y: int = field(init=False)\n"
     "    def __post_init__(self): self.y = 2 * self.x\nC(1).y", []),
    ("@dataclass\nclass _C:\n    x: int", []),                        # private class
    ("class C:\n    x: int = 0", []),                                   # not a dataclass
])
def test_unread_fields_counts_attribute_reads_of_public_dataclass_fields(tmp_path, source, unread):
    (tmp_path / "m.py").write_text(source)
    assert unread_fields(tmp_path) == unread
