"""Rules about the package source as a whole, read from its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hhsim"

# Public names that no code in src/hhsim reads, each with the reader outside it.
UNREAD_ALLOWED = {
    "oracle.brute_force_two_body": "benchmark workload oracle-validate",
    "pairs.lf_map_main": "ROADMAP item 6 plans its caller",
    "pairs.lf_map_physical": "ROADMAP item 6 plans its caller",
    "pairs.pair_dispersion_strong_coupling": "acceptance criterion 08",
    "pairs.pair_energies_full": "acceptance criterion 06",
    "pairs.pair_mass": "acceptance criterion 08",
    "pairs.threshold_physical_poles": "acceptance criterion 07",
    "rydberg.rydberg_potential": "test reference: coupling_f is its gradient",
}


def _names(node):
    """Every name a subtree reads: bare names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unread_public_names(src):
    """Sorted ``module.name`` of each public top-level def or class in
    src/*.py that no other top-level statement of any module in src reads."""
    statements = [(p.stem, stmt) for p in sorted(src.glob("*.py"))
                  for stmt in ast.parse(p.read_text()).body]
    read = [_names(stmt) for _, stmt in statements]
    return sorted(f"{module}.{stmt.name}" for i, (module, stmt) in enumerate(statements)
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and not stmt.name.startswith("_")
                  and not any(stmt.name in names for j, names in enumerate(read) if j != i))


def test_every_public_name_in_src_has_a_reader_in_src_or_an_allowlisted_one():
    unread = unread_public_names(SRC)
    extra = [name for name in unread if name not in UNREAD_ALLOWED]
    assert not extra, f"public names that nothing in src/hhsim reads: {extra}"
    # an allowlisted name that gained a reader in src, or was deleted, leaves the list
    assert sorted(UNREAD_ALLOWED) == [name for name in unread if name in UNREAD_ALLOWED]
