"""Exact two-body solver on a finite periodic square lattice.

Independent validation of the determinant-equation pair energies: at
zero total momentum the two-particle problem reduces to a single
particle in the relative coordinate with doubled hopping and a diagonal
potential on the interaction shells.  Only the A1 sector of the model's
point group is kept: the vectors fixed by every operation of the square
lattice's point group that maps each orbit of ``pairs._ORBITS`` onto
itself (all 8 for the full variant, 4 for the diagonal one).  That is
the fully symmetric (s-wave, spin-singlet) sector the determinant
solves.  Sectors of up to ``_DENSE_MAX`` states are solved by dense
``numpy.linalg.eigvalsh``, larger ones by ``eigsh``.

A brute-force builder of the full two-particle Hamiltonian on tiny
lattices validates the reduction itself.  Both builders share one
periodic adjacency matrix, one orbit-basis builder and the shell table
of ``UVModel.shells()``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .constants import require_positive
from .pairs import _ORBITS

_BOUND_MARGIN = 5.0   # band-edge margin of a bound state, in t' / L^2
_DENSE_MAX = 300      # sectors of up to this many states are solved densely

# the square lattice's point group: (a, b, c, d) maps (x, y) to (ax + by, cx + dy)
_SQUARE_GROUP = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
                 (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))


@dataclass
class FiniteLattice:
    L: int

    def __post_init__(self):
        if self.L < 4 or self.L % 2 != 0:
            raise ValueError("L must be an even integer >= 4")


@functools.lru_cache(maxsize=32)
def _adjacency(L):
    """Periodic nearest-neighbor matrix of the L x L lattice (site x*L + y).

    Cached per process, like ``_a1_basis``: callers must not modify it.
    """
    site = np.arange(L * L).reshape(L, L)
    rows = np.tile(site.ravel(), 4)
    cols = np.concatenate([np.roll(site, s, axis=a).ravel() for a in (0, 1) for s in (1, -1)])
    return sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(L * L, L * L)).tocsr()


def _shell_potential(model, L):
    """Potential at every relative displacement, the shells folded mod L."""
    pot = np.zeros((L, L))
    for (dx, dy), v in model.shells().items():
        pot[dx % L, dy % L] = v
    return pot.ravel()


@functools.lru_cache(maxsize=None)
def _point_group(variant):
    """The operations of ``_SQUARE_GROUP`` that map every orbit of the
    variant's orbit table onto itself.

    Read from the table, not from the couplings, so a zero V changes nothing.
    """
    return tuple((a, b, c, d) for a, b, c, d in _SQUARE_GROUP
                 if all({(a * x + b * y, c * x + d * y) for x, y in members} == set(members)
                        for _, members in _ORBITS[variant]))


def _symmetric_basis(images):
    """Orthonormal columns spanning the vectors that every row of images fixes.

    images is a (g, n) array: row k holds the image of each index under the
    k-th operation of a group (the identity may be left out).  One column per
    orbit, the orbit sum with entries 1/sqrt(|orbit|), ordered by the orbit's
    smallest index.
    """
    i = np.arange(images.shape[1])
    lead = np.minimum(i, images.min(axis=0))   # lead[i]: smallest index of the orbit of i
    col = np.cumsum(i == lead) - 1   # col[j]: column of the orbit whose smallest index is j
    size = np.bincount(lead)
    return sp.coo_matrix((1.0 / np.sqrt(size[lead]), (i, col[lead])),
                         shape=(i.size, col[-1] + 1)).tocsr()


@functools.lru_cache(maxsize=32)
def _a1_basis(L, group):
    """Basis of the sector of the L x L relative coordinate fixed by group."""
    x, y = np.divmod(np.arange(L * L), L)
    return _symmetric_basis(np.array([((a * x + b * y) % L) * L + (c * x + d * y) % L
                                      for a, b, c, d in group]))


def _lowest(H, P, n_states):
    """Lowest n_states eigenvalues of H in the sector spanned by P, ascending.

    At most dim - 2 of the sector's dim states may be asked for.  Up to
    ``_DENSE_MAX`` states the sector is solved densely, above by eigsh.
    """
    Hs = P.T @ H @ P
    dim = Hs.shape[0]
    if n_states > dim - 2:
        raise ValueError(f"n_states must be at most {dim - 2} in the {dim}-state "
                         f"symmetric sector, got {n_states}")
    if dim <= _DENSE_MAX:
        vals = np.linalg.eigvalsh(Hs.toarray())[:n_states]
    else:
        v0 = np.ones(dim) / math.sqrt(dim)
        vals = eigsh(Hs.tocsr(), k=n_states, which="SA", v0=v0, tol=1e-12,
                     return_eigenvectors=False)
    return sorted(float(v) for v in vals)


def relative_hamiltonian(model, L):
    """Sparse H on the L x L relative coordinate at zero total momentum.

    Kinetic term: hops of amplitude -2t' to the four neighbors (each
    particle's hopping adds at K = 0); potential: the shells of
    ``model.shells()`` on the diagonal.
    """
    L = FiniteLattice(L).L
    H = -2.0 * model.t_prime * _adjacency(L) + sp.diags(_shell_potential(model, L))
    return H.tocsr()


@dataclass
class TwoBodySpectrum:
    L: int
    energies: list
    bound_count: int = 0


def ground_energies(model, L, n_states=4):
    """Lowest eigenvalues in the A1 sector of the model's point group, ascending.

    A state counts as bound if E < -8t' - 5/L^2 * t' (the margin absorbs
    the finite-size shift of the band edge).
    """
    require_positive(n_states=n_states)
    P = _a1_basis(L, _point_group(model.variant))
    energies = _lowest(relative_hamiltonian(model, L), P, n_states)
    edge = -8.0 * model.t_prime - _BOUND_MARGIN / L**2 * model.t_prime
    bound = sum(1 for e in energies if e < edge)
    return TwoBodySpectrum(L=L, energies=energies, bound_count=bound)


def _pair_hamiltonian(model, L):
    """T x 1 + 1 x T + V(r1 - r2) on the L^4 two-particle states, T = -t' A."""
    n = L * L
    T = -model.t_prime * _adjacency(L)
    one = sp.identity(n, format="csr")
    x, y = np.divmod(np.arange(n), L)
    rel = ((x[:, None] - x) % L) * L + (y[:, None] - y) % L
    H = sp.kron(T, one) + sp.kron(one, T) + sp.diags(_shell_potential(model, L)[rel.ravel()])
    return H.tocsr()


def brute_force_two_body(model, L, n_states=4):
    """Full two-particle spectrum on L x L (spatially symmetric sector).

    The sector is the one even under particle exchange.  Dimension grows
    as L^4; intended for L <= 6 to validate the relative-coordinate
    reduction.  Returns the lowest eigenvalues over all total momenta
    (the ground state sits at K = 0 for attractive couplings).
    """
    L = FiniteLattice(L).L
    if L > 8:
        raise ValueError("brute force is for tiny lattices only")
    require_positive(n_states=n_states)
    exchange = np.arange(L**4).reshape(L * L, L * L).T.ravel()
    return _lowest(_pair_hamiltonian(model, L), _symmetric_basis(exchange[None, :]), n_states)


@dataclass
class Extrapolation:
    E_inf: float
    error: float
    reliable: bool = True


def extrapolate_energy(Ls, energies):
    """Fit E(L) = E_inf + c/L^2 by least squares.

    Suitable for gapped bound states; band-edge states converge only
    logarithmically and are flagged unreliable when the sequence is not
    monotone.
    """
    if len(Ls) != len(energies):
        raise ValueError("need one energy per size")
    if len(Ls) < 3:
        raise ValueError("need at least three sizes")
    x = np.array([1.0 / L**2 for L in Ls])
    y = np.array(energies, dtype=float)
    if np.allclose(y, y[0]):
        return Extrapolation(E_inf=float(y[0]), error=0.0)
    A = np.vstack([np.ones_like(x), x]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    err = float(np.sqrt(np.mean(resid**2)))
    diffs = np.diff(y)
    monotone = np.all(diffs >= -1e-13) or np.all(diffs <= 1e-13)
    return Extrapolation(E_inf=float(coef[0]), error=err, reliable=bool(monotone))
