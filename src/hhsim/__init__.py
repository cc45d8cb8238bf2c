"""Design and analysis toolkit for a painted-lattice Hubbard-Holstein
quantum simulator: trap potentials, phonon modes, Rydberg-mediated
couplings, Hubbard parameters, two-body pairing thresholds, pair masses
and the pairing/BKT phase map, validated against an exact finite-lattice
two-body solver.

Submodules load on first attribute access (PEP 562), so ``import hhsim``
pulls in no numerics, and scipy loads only with ``hhsim.oracle``.  The
command line imports per subcommand: ``hhsim binding`` loads ``orbits``
alone and ``hhsim stark`` loads ``stark`` alone, neither of which imports
numpy, and OpenSSL loads only with ``--out``, for the manifest's digests.
The stdlib ``json`` loads only with JSON output, a manifest or an error
line, and a CSV ``hhsim binding`` loads no ``dataclasses`` (nor the
``inspect`` it imports).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "constants",
    "elliptic",
    "greens",
    "hubbard",
    "lattice",
    "oracle",
    "orbits",
    "pairs",
    "phases",
    "rydberg",
    "stark",
})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
