"""Exact two-body solver on a finite periodic square lattice.

Independent validation of the determinant-equation pair energies: at
zero total momentum the two-particle problem reduces to a single
particle in the relative coordinate with doubled hopping and a diagonal
potential on the interaction shells.  Only the inversion-symmetric
(spatially even, spin-singlet) sector is kept, matching the symmetric
two-body wavefunction of the determinant formulation.

A brute-force builder of the full two-particle Hamiltonian on tiny
lattices validates the reduction itself.  Both builders share one
periodic adjacency matrix, one symmetric-sector basis and the shell
table of ``UVModel.shells()``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .pairs import UVModel

_BOUND_MARGIN = 5.0   # band-edge margin of a bound state, in t' / L^2


@dataclass
class FiniteLattice:
    L: int

    def __post_init__(self):
        if self.L < 4 or self.L % 2 != 0:
            raise ValueError("L must be an even integer >= 4")


def _adjacency(L):
    """Periodic nearest-neighbor matrix of the L x L lattice (site x*L + y)."""
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


def _symmetric_basis(perm):
    """Orthonormal columns spanning the vectors that the involution perm fixes.

    One column per orbit {i, perm[i]}, ordered by the orbit's smaller index.
    """
    i = np.arange(len(perm))
    lead = np.minimum(i, perm)
    col = np.cumsum(i == lead) - 1   # col[j]: column of the orbit whose smaller index is j
    vals = np.where(i == perm, 1.0, 1.0 / math.sqrt(2.0))
    return sp.coo_matrix((vals, (i, col[lead])), shape=(len(perm), col[-1] + 1)).tocsr()


def _lowest(H, P, n_states):
    """Lowest n_states eigenvalues of H in the sector spanned by P, ascending."""
    Hs = (P.T @ H @ P).tocsr()
    k = min(n_states, Hs.shape[0] - 2)
    v0 = np.ones(Hs.shape[0]) / math.sqrt(Hs.shape[0])
    vals = eigsh(Hs, k=k, which="SA", v0=v0, tol=1e-12,
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


def inversion_projector(L):
    """Sparse basis matrix of the r -> -r symmetric sector (columns orthonormal)."""
    minus = -np.arange(L) % L
    return _symmetric_basis((minus[:, None] * L + minus).ravel())


@dataclass
class TwoBodySpectrum:
    L: int
    model: UVModel
    energies: list
    bound_count: int = 0


def ground_energies(model, L, n_states=4):
    """Lowest eigenvalues in the symmetric sector, sorted ascending.

    A state counts as bound if E < -8t' - 5/L^2 * t' (the margin absorbs
    the finite-size shift of the band edge).
    """
    energies = _lowest(relative_hamiltonian(model, L), inversion_projector(L), n_states)
    edge = -8.0 * model.t_prime - _BOUND_MARGIN / L**2 * model.t_prime
    bound = sum(1 for e in energies if e < edge)
    return TwoBodySpectrum(L=L, model=model, energies=energies, bound_count=bound)


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
    exchange = np.arange(L**4).reshape(L * L, L * L).T.ravel()
    return _lowest(_pair_hamiltonian(model, L), _symmetric_basis(exchange), n_states)


@dataclass
class Extrapolation:
    E_inf: float
    error: float
    reliable: bool = True
    note: str = ""


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
    return Extrapolation(E_inf=float(coef[0]), error=err, reliable=bool(monotone),
                         note="" if monotone else "non-monotone sequence; fit unreliable")
