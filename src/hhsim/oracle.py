"""Exact two-body solver on a finite periodic square lattice.

Independent validation of the determinant-equation pair energies: at
zero total momentum the two-particle problem reduces to a single
particle in the relative coordinate with doubled hopping and a diagonal
potential on the interaction shells.  Only the A1 sector of the model's
point group is kept: the vectors fixed by every operation of
``UVModel.point_group()``, the square-lattice operations that map each
orbit of the model onto itself (all 8 for the full variant, 4 for the
diagonal one).  That is the fully symmetric (s-wave, spin-singlet)
sector the determinant solves.  Both solvers read the sector's
Hamiltonian in band form.  The band comes from ordering the sector's
orbits by torus shell, the Manhattan distance
d = min(x, L - x) + min(y, L - y) of their lead site: every point-group
operation keeps d, and on an even torus a hop changes it by exactly
one, so in that order the hopping block is block-tridiagonal, its
bandwidth at most the largest size of two adjacent shells, minus one
(13 at L = 48 for the full model, against about L/2 in lead order).

Sectors of up to ``_BANDED_MAX`` states are solved by LAPACK's
selected-eigenvalue driver (``scipy.linalg.eig_banded``, dsbevx:
Schwarz's band-to-tridiagonal reduction, Numer. Math. 12, 231 (1968),
then bisection for the lowest levels only).  Larger ones are solved by
the spectral transformation (Ericsson and Ruhe, Math. Comp. 35, 1251
(1980)): ``eigsh`` finds the largest eigenvalues mu of (H - sigma)^-1,
applied by a banded Cholesky solve (LAPACK dpbtrf, then dpbtrs), and
lambda = sigma + 1/mu.  The lowest levels are then the best separated
mu, which ARPACK finds in far fewer products than in regular mode, where
the continuum levels near -8t' lie only ~0.02 t' apart at L = 64, and
the closer sigma lies below the ground level, the fewer.  So sigma is
placed just below it: 0.1t' below u0, the lowest level of the sector's
leading 40 states in shell order, rounded down to a multiple of 2^-6 t'.
Those states span a principal submatrix, so u0 >= lambda_0 by Cauchy
interlacing; where they hold the bound state, u0 lies within far less
than 0.1t' of it.  The factorization certifies the shift: it succeeds
only if H - sigma is positive definite.  Where it fails (no bound state
in the leading shells), the Gershgorin shift
sigma_G = min_i(H_ii - R_i) - t', R_i the radius of row i, which lies
at least t' below the spectrum, is taken instead.  The levels come out
to a relative accuracy tol in mu, an error of about
tol * (lambda - sigma) in lambda.  So a coupling deep enough to put the
shift taken more than ``_SHIFT_SPAN`` t' below zero, where the
continuum levels would lose digits (measured: ~1e-11 t' at
sigma = -1000 t'), sends a large sector to ``eig_banded`` as well.

A brute force on the full two-particle space of tiny lattices validates
the reduction itself.  It keeps the A1 sector of the group generated by
particle exchange and the model's point group acting on both
coordinates about site 0, and always solves it densely.  The hopping is
non-positive and the two-particle graph connected, so by
Perron-Frobenius the ground state is unique and nodeless, hence fixed
by every symmetry: it lies in that sector, at zero total momentum,
whatever the couplings.

Both solvers read one cached sector builder, ``_sector``: per lattice
size, group and space it holds the orbit-basis projection of the
hopping and the weights that map the shell potential of
``UVModel.shells()`` to the sector diagonal, so a call only scales the
one and adds the other.  ``_shell_band`` keeps, per lattice size and
group, the shell order, the hopping block's upper band in it and the
block's Gershgorin radii.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import LinearOperator, eigsh

from .constants import require_positive

_BOUND_MARGIN = 5.0   # band-edge margin of a bound state, in t' / L^2
_BANDED_MAX = 450     # relative sectors of up to this many states: eig_banded; above, shift-invert eigsh
_SHIFT_SPAN = 100.0   # a shift more than this many t' below zero costs shift-invert digits: eig_banded
_LEAD_STATES = 40     # the leading shell-order states whose lowest level places the shift
_SHIFT_GAP = 0.1      # the shift lies this many t' below that level ...
_SHIFT_GRID = 2.0**-6  # ... rounded down to a multiple of this many t'


@dataclass
class FiniteLattice:
    L: int

    def __post_init__(self):
        if not isinstance(self.L, numbers.Integral) or self.L < 4 or self.L % 2 != 0:
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


def _site_images(L, group):
    """(g, L*L) array: row k holds the image of each site x*L + y under the
    k-th operation of group, about site 0."""
    x, y = np.divmod(np.arange(L * L), L)
    return np.array([((a * x + b * y) % L) * L + (c * x + d * y) % L for a, b, c, d in group])


@functools.lru_cache(maxsize=32)
def _sector(L, group, pair):
    """Hopping block K and potential weights W of a symmetric sector.

    Relative coordinate (pair false): the L x L displacements fixed by
    group.  Pair (pair true): the L^4 two-particle states (r1, r2), index
    r1*L^2 + r2, fixed by particle exchange and by group acting on both
    coordinates about site 0.  With P the sector's orbit basis and A the
    space's periodic adjacency (A x 1 + 1 x A for the pair), K = P^T A P,
    and W @ pot is the diagonal of P^T diag(pot) P for a potential pot on
    the L x L relative displacements.  Both are sparse.

    Cached per process and shared by every call: both are read-only.
    """
    n = L * L
    A = _adjacency(L)
    if pair:
        one = sp.identity(n, format="csr")
        A = sp.kron(A, one) + sp.kron(one, A)
        r1, r2 = np.divmod(np.arange(n * n), n)
        img = _site_images(L, group)
        P = _symmetric_basis(np.concatenate([img[:, r1] * n + img[:, r2],
                                             img[:, r2] * n + img[:, r1]]))
        x, y = np.divmod(np.arange(n), L)
        rel = ((x[r1] - x[r2]) % L) * L + (y[r1] - y[r2]) % L
        R = sp.csr_matrix((np.ones(n * n), (np.arange(n * n), rel)), shape=(n * n, n))
    else:
        P = _symmetric_basis(_site_images(L, group))
        R = sp.identity(n, format="csr")
    K, W = (P.T @ A @ P).tocsr(), (P.multiply(P).T @ R).tocsr()
    for a in (K.data, K.indices, K.indptr, W.data, W.indices, W.indptr):
        a.flags.writeable = False
    return K, W


@functools.lru_cache(maxsize=32)
def _shell_band(L, group):
    """Shell order, hopping band and Gershgorin radii of the
    relative-coordinate sector.

    perm lists the sector's columns (``_symmetric_basis`` order) by the
    torus Manhattan distance of their orbit's lead site, ties by lead
    index.  band is the upper band of K[perm][:, perm], K from
    ``_sector``, as ``eig_banded`` and dpbtrf read it: band[u + i - j, j]
    holds entry (i, j), j - u <= i <= j, for bandwidth u.  radius[i] is
    the off-diagonal sum of |K| over row i of that matrix.  Cached per
    process and shared by every call: all three are read-only.
    """
    K, _ = _sector(L, group, False)
    lead = np.flatnonzero(_site_images(L, group).min(axis=0) >= np.arange(L * L))
    x, y = np.divmod(lead, L)
    perm = np.argsort(np.minimum(x, L - x) + np.minimum(y, L - y), kind="stable")
    order = np.empty_like(perm)
    order[perm] = np.arange(perm.size)
    Kp = K.tocoo()
    i, j = order[Kp.row], order[Kp.col]
    upper = i <= j
    u = int((j - i).max())
    band = np.zeros((u + 1, perm.size), order="F")   # LAPACK's layout: no copy per call
    band[u + i[upper] - j[upper], j[upper]] = Kp.data[upper]
    radius = np.bincount(i, weights=np.where(i != j, abs(Kp.data), 0.0), minlength=perm.size)
    perm.flags.writeable = band.flags.writeable = radius.flags.writeable = False
    return perm, band, radius


def _relative_band(model, L):
    """H = -2t' K + diag(W @ pot) of the model's relative-coordinate
    ``_sector`` in shell order, as the upper band of ``_shell_band``, and
    the shift sigma = min_i(H_ii - R_i) - t' with R_i = 2t' radius_i.  By
    Gershgorin's theorem every eigenvalue of H is at least sigma + t'.
    Each particle's hopping adds at K = 0, hence the 2t'.
    """
    group = model.point_group()
    perm, band, radius = _shell_band(L, group)
    _, W = _sector(L, group, False)
    H = -2.0 * model.t_prime * band
    H[-1] += (W @ _shell_potential(model, L))[perm]
    return H, float(np.min(H[-1] - 2.0 * model.t_prime * radius)) - model.t_prime


def _shifted_cholesky(H, sigma_g, t_prime):
    """Banded Cholesky factor of H - sigma, and the shift sigma.

    H is the band of ``_relative_band`` and sigma_g its Gershgorin shift.
    The first shift tried lies just below u0, the lowest level of the
    leading ``_LEAD_STATES`` states in shell order, whose block (the
    band's leading columns) is a principal submatrix, so u0 >= lambda_0
    by Cauchy interlacing.  It is
    u0 - ``_SHIFT_GAP`` t' rounded down to a multiple of ``_SHIFT_GRID``
    t', so a last-bit change of u0 does not move it.  dpbtrf certifies it:
    the factorization succeeds only if H - sigma is positive definite.
    Where it fails (no bound state in the leading shells), sigma_g, which
    lies at least t' below the spectrum, is used instead.  Returns
    (None, sigma) for a shift more than ``_SHIFT_SPAN`` t' below zero,
    where ``eig_banded`` solves the sector.  H is left as it was.
    """
    u0 = eig_banded(H[:, :_LEAD_STATES], eigvals_only=True, select="i", select_range=(0, 0))[0]
    near = math.floor((u0 / t_prime - _SHIFT_GAP) / _SHIFT_GRID) * _SHIFT_GRID * t_prime
    for sigma in (near, sigma_g):
        if sigma < -_SHIFT_SPAN * t_prime:
            return None, sigma
        shifted = H.copy(order="F")
        shifted[-1] -= sigma
        chol, info = dpbtrf(shifted, overwrite_ab=True)
        if info == 0:
            return chol, sigma
    raise ArithmeticError(f"H - sigma is not positive definite at sigma = {sigma_g!r}")


@dataclass
class TwoBodySpectrum:
    L: int
    energies: list
    bound_count: int = 0


def ground_energies(model, L, n_states=4):
    """Lowest n_states eigenvalues in the A1 sector of the model's point
    group, ascending.

    n_states is a positive integer, at most dim - 2 of the sector's dim
    states.  A sector of up to ``_BANDED_MAX`` states is solved in shell
    order by ``eig_banded``, which computes only the n_states lowest
    levels.  A larger one is solved by eigsh on (H - sigma)^-1, from the
    start vector ones/sqrt(dim) with tol = 1e-12.  The shift sigma lies
    just below the ground level, under the lowest level of the leading
    shells (see ``_shifted_cholesky``), or, where the Cholesky
    factorization of H - sigma rejects that, at the Gershgorin bound
    (see ``_relative_band``), at least t' below the spectrum: the
    factorization certifies the shift taken, and a level's error is
    about tol * (E - sigma).  Where sigma < -``_SHIFT_SPAN`` t', that
    error would grow past 1e-12 t', and ``eig_banded`` solves the large
    sector too.  A state counts as bound if
    E < -8t' - 5/L^2 * t' (the margin absorbs the finite-size shift of
    the band edge).
    """
    L = FiniteLattice(L).L
    if isinstance(n_states, bool) or not isinstance(n_states, numbers.Integral):
        raise ValueError(f"n_states must be an integer, got {n_states!r}")
    require_positive(n_states=n_states)
    dim = _sector(L, model.point_group(), False)[0].shape[0]
    if n_states > dim - 2:
        raise ValueError(f"n_states must be at most {dim - 2} in the {dim}-state "
                         f"symmetric sector, got {n_states}")
    H, sigma = _relative_band(model, L)
    chol = None
    if dim > _BANDED_MAX:
        chol, sigma = _shifted_cholesky(H, sigma, model.t_prime)
    if chol is None:
        vals = eig_banded(H, eigvals_only=True, overwrite_a_band=True, select="i",
                          select_range=(0, n_states - 1))
    else:
        inverse = LinearOperator((dim, dim), matvec=lambda x: dpbtrs(chol, x)[0], dtype=float)
        mu = eigsh(inverse, k=n_states, which="LA", v0=np.ones(dim) / math.sqrt(dim),
                   tol=1e-12, return_eigenvectors=False)
        vals = sigma + 1.0 / mu
    energies = sorted(float(v) for v in vals)
    edge = -8.0 * model.t_prime - _BOUND_MARGIN / L**2 * model.t_prime
    bound = sum(1 for e in energies if e < edge)
    return TwoBodySpectrum(L=L, energies=energies, bound_count=bound)


def brute_force_two_body(model, L):
    """Every two-particle energy of the A1 sector on L x L, ascending, from
    the full L^4 space (L <= 8), to validate the relative-coordinate reduction.

    The sector is the A1 one of particle exchange times the model's point
    group acting on both coordinates (see ``_sector``), solved densely, so
    every level in it comes out as often as it occurs.  Index 0 is the
    lowest energy over all total momenta and all symmetry sectors: by
    Perron-Frobenius the ground state is unique and nodeless, hence fixed
    by every symmetry and at zero total momentum, for any couplings.
    """
    L = FiniteLattice(L).L
    if L > 8:
        raise ValueError("brute force is for tiny lattices only")
    K, W = _sector(L, model.point_group(), True)
    H = K.toarray()
    H *= -model.t_prime
    H.flat[::H.shape[0] + 1] += W @ _shell_potential(model, L)
    return np.linalg.eigvalsh(H).tolist()


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
