"""Painted optical-lattice potentials and phonon-site normal modes.

Potentials are sums of Gaussian spots painted inside a single optical
pancake.  A phonon site is a group of N_S closely spaced spots whose
summed potential is broad and deep; the trapped atom's in-plane normal
modes follow from the Hessian (dynamical matrix) of the site potential
at its minimum.

A ``SpotPattern`` holds its n sites as float arrays with a leading site
axis k: ``centers`` (n, 2), ``displacements`` (n, N_S, 2) and
``polarizations`` (n, n_modes, 2); row k is tiling site (i, j), i outer.
N_S = 2 and n_modes = 1 except for ``crossed`` (4 and 2).
``site_potential`` and ``dynamical_matrix`` take the site index k.

Units: energies in nK, lengths in micrometres, masses in kg, angular
frequencies in rad/s.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .constants import K_B, require_finite, require_positive

# nK/um^2 -> J/m^2
_CURV_SI = K_B * 1e-9 / 1e-12
_STATIONARY_TOL = 1e-6   # largest centre gradient of a site, in V0_ph / w_ph
_CLAMP_TOL = 1e-9        # negative curvature clamped to zero, relative to max|eig|


@dataclass(eq=False)
class SpotPattern:
    """Phonon sites tiled over the fermion lattice; the named constructors below build them."""

    pattern_id: str
    V0_ph: float                  # phonon spot depth, nK
    w_ph: float                   # phonon spot waist, um
    centers: np.ndarray = field(kw_only=True)        # (n, 2) site centres, um
    displacements: np.ndarray = field(kw_only=True)  # (n, N_S, 2) spot offsets from centre, um
    polarizations: np.ndarray = field(kw_only=True)  # (n, n_modes, 2) axes used in couplings

    def __post_init__(self):
        require_finite(V0_ph=self.V0_ph, w_ph=self.w_ph)
        require_positive(V0_ph=self.V0_ph, w_ph=self.w_ph)
        arrays = [np.array(x, dtype=float)
                  for x in (self.centers, self.displacements, self.polarizations)]
        self.centers, self.displacements, self.polarizations = arrays
        if ([x.ndim for x in arrays] != [2, 3, 3] or any(x.shape[-1] != 2 for x in arrays)
                or len({len(x) for x in arrays}) != 1 or len(self.centers) == 0):
            raise ValueError("centers, displacements and polarizations must have shapes "
                             "(n, 2), (n, N_S, 2) and (n, n_modes, 2) with n >= 1")


# The patterns pass these axes as the polarization itself: renormalizing
# _DIAG1 (norm 1 - 1e-16) would change its last bit.
_DIAG1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
_DIAG2 = np.array([1.0, -1.0]) / math.sqrt(2.0)
_XHAT = np.array([1.0, 0.0])
_YHAT = np.array([0.0, 1.0])


def _grid(a, extent):
    """Integer (i, j) of every |i|, |j| <= extent, (n, 2), row-major with i outer."""
    require_finite(a=a)
    require_positive(a=a)
    if operator.index(extent) < 0:  # float extent: TypeError
        raise ValueError(f"extent must be an integer >= 0, got {extent}")
    span = np.arange(-extent, extent + 1)
    return np.stack(np.meshgrid(span, span, indexing="ij"), axis=-1).reshape(-1, 2)


def _two_spots(axis):
    """Spot offsets per unit D, +-1 along the normalized ``axis``, (2, 2)."""
    axis = axis / np.linalg.norm(axis)
    return np.array([axis, -axis])


def _pattern(pattern_id, V0_ph, w_ph, D, centers, spots, axes):
    """SpotPattern at ``centers``; one site's spot offsets and polarization axes apply to all.

    ``spots`` holds one site's spot offsets per unit D.  The spot
    half-separation D must be finite, checked before it scales them, and
    satisfy 0 <= D <= w_ph/2; the pattern checks its own fields first.
    """
    require_finite(D=D)
    spots = np.asarray(spots) * D
    n = len(centers)
    pattern = SpotPattern(pattern_id, V0_ph, w_ph, centers=centers,
                          displacements=np.broadcast_to(spots, (n, *np.shape(spots)[-2:])),
                          polarizations=np.broadcast_to(axes, (n, *np.shape(axes)[-2:])))
    if not (0.0 <= D <= w_ph / 2.0):
        raise ValueError(f"D must lie in [0, w_ph/2] = [0, {w_ph / 2.0}] "
                         f"(a larger D forms a double well), got {D}")
    return pattern


def _offset(pattern_id, axis, a, V0_ph, w_ph, D, b, extent):
    ij = _grid(a, extent)
    bound = a * math.sqrt(2.0)
    b = 0.5 * bound if b is None else b
    if not (0.0 < b < bound):
        raise ValueError(f"b must lie in (0, a*sqrt(2)) = (0, {bound:.5g}), got {b:.5g}")
    return _pattern(pattern_id, V0_ph, w_ph, D, ij * a + b * axis, _two_spots(axis), [axis])


def holstein_reference(a, V0_ph, w_ph, D, b=None, extent=5):
    """Phonon site adjacent to each fermion site (near-local coupling).

    Each fermion site (i, j)a carries a two-spot phonon site displaced
    by b along x (default b = 0.1a), soft axis x.  b lies in [0, a):
    short of the next fermion site along x, and b = 0 is the on-site
    (Holstein) limit.
    """
    ij = _grid(a, extent)
    b = 0.1 * a if b is None else b
    require_finite(b=b)
    if not (0.0 <= b < a):
        raise ValueError(f"b must lie in [0, a) = [0, {a:.5g}), got {b:.5g}")
    return _pattern("HolsteinReference", V0_ph, w_ph, D, ij * a + [b, 0.0],
                    _two_spots(_XHAT), [_XHAT])


def offset_parallel(a, V0_ph, w_ph, D, b=None, extent=5):
    """One phonon site per fermion site, offset b along the (1,1) diagonal.

    Soft axis along the diagonal; the default b = 0.5 a' (a' = a*sqrt(2))
    puts the sites at the plaquette centers (the centered parallel
    arrangement).
    """
    return _offset("OffsetParallel", _DIAG1, a, V0_ph, w_ph, D, b, extent)


def offset_parallel_rotated(a, V0_ph, w_ph, D, b=None, extent=5):
    """offset_parallel mirrored y -> -y (soft axis and offset along (1,-1))."""
    return _offset("OffsetParallelRotated", _DIAG2, a, V0_ph, w_ph, D, b, extent)


def crossed(a, V0_ph, w_ph, D, b=None, extent=5):
    """Four-spot crossed sites at the plaquette centers, two equal modes."""
    if b is not None:
        raise ValueError("Crossed sites sit at the plaquette centres; b must be None")
    ij = _grid(a, extent)
    return _pattern("Crossed", V0_ph, w_ph, D, (ij + 0.5) * a,
                    np.array([_DIAG1, -_DIAG1, _DIAG2, -_DIAG2]),
                    [_DIAG1, _DIAG2])


def bipartite_parallel(a, V0_ph, w_ph, D, b=None, extent=5):
    """Two-spot sites at plaquette centers, soft axis x / y on a checkerboard."""
    if b is not None:
        raise ValueError("BipartiteParallel sites sit at the plaquette centres; b must be None")
    ij = _grid(a, extent)
    even = (ij.sum(axis=1) % 2 == 0)[:, None, None]
    return _pattern("BipartiteParallel", V0_ph, w_ph, D, (ij + 0.5) * a,
                    np.where(even, _two_spots(_XHAT), _two_spots(_YHAT)),
                    np.where(even, _XHAT, _YHAT))


# Pattern names of the command line (``--pattern``).  Every constructor
# takes (a, V0_ph, w_ph, D, b=None, extent=5); b=None is each pattern's
# own geometry, and the plaquette-centred ones accept no other b.
PATTERN_CONSTRUCTORS = {
    "holstein": holstein_reference,
    "offset-parallel": offset_parallel,
    "offset-parallel-rotated": offset_parallel_rotated,
    "crossed": crossed,
    "bipartite-parallel": bipartite_parallel,
}


def spot_potential(r, V0, w):
    """Single Gaussian spot, depth V0 (nK), waist w (um), at distance r."""
    return -V0 * np.exp(-2.0 * np.asarray(r) ** 2 / w**2)


def site_potential(pattern, k, xy):
    """In-plane potential of the pattern's site k at points xy (..., 2) (um), nK.

    Per-spot normalized sum: the peak depth of an N_S-spot site matches a
    single spot, so painting a broad site costs no extra laser power.
    The result has the shape of xy without its last axis.
    """
    xy = np.asarray(xy, dtype=float)[..., None, :]
    r_vec = xy - pattern.centers[k] - pattern.displacements[k]
    # np.linalg.norm's 1-D dot, batched: one point keeps norm's bits
    spots = spot_potential(np.sqrt(np.vecdot(r_vec, r_vec)), pattern.V0_ph, pattern.w_ph)
    return spots.sum(axis=-1) / spots.shape[-1]


def dynamical_matrix(pattern, k):
    """Hessian (nK/um^2) of the potential of site k at its center, in closed form.

    A spot with r = centre - spot, V_s = -(V0_ph/N_S) exp(-2|r|^2/w^2),
    adds V_s (16 r r^T/w^4 - 4 I/w^2) to the Hessian and -4 V_s r/w^2 to
    the gradient; the center must be a stationary point (gradient below
    _STATIONARY_TOL * V0_ph / w_ph).  A sum of elementwise products,
    symmetric by construction.  Raises OverflowError, with no numpy
    warning, where the Hessian leaves the float range.
    """
    w2 = pattern.w_ph**2
    r = -pattern.displacements[k]   # (N_S, 2)
    V_s = spot_potential(np.sqrt((r * r).sum(axis=-1)), pattern.V0_ph, pattern.w_ph) / len(r)
    gx, gy = -4.0 / w2 * (V_s[:, None] * r).sum(axis=0)
    if math.hypot(gx, gy) > _STATIONARY_TOL * pattern.V0_ph / pattern.w_ph:
        raise ValueError("site center is not a stationary point of the potential")
    terms = 16.0 * r[:, :, None] * r[:, None, :] / w2**2 - 4.0 * np.eye(2) / w2
    with np.errstate(over="ignore", invalid="ignore"):
        hessian = (V_s[:, None, None] * terms).sum(axis=0)
    if not np.isfinite(hessian).all():
        raise OverflowError(f"the Hessian of site {k} is not finite at V0_ph = {pattern.V0_ph} nK")
    return hessian


@dataclass
class PhononMode:
    frequency: float      # rad/s
    polarization: np.ndarray

    def __post_init__(self):
        n = np.linalg.norm(self.polarization)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("polarization must be a unit vector")


def phonon_modes(matrix, M):
    """Normal modes from a symmetric 2x2 dynamical matrix (nK/um^2).

    omega = sqrt(eigenvalue/M) after converting curvature to SI; tiny
    negative eigenvalues within -_CLAMP_TOL * max|eig| are clamped to zero,
    anything more negative means an unstable site.  Modes are returned
    in descending frequency.  Raises OverflowError where a frequency
    leaves the float range.
    """
    require_finite(M=M)
    require_positive(M=M)
    matrix = np.asarray(matrix, dtype=float)
    if not np.allclose(matrix, matrix.T):
        raise ValueError("dynamical matrix must be symmetric")
    evals, evecs = np.linalg.eigh(matrix)
    scale = max(abs(evals).max(), 1.0)
    if evals[0] < -_CLAMP_TOL * scale:     # eigh sorts ascending
        raise ValueError(f"unstable site: negative curvature {evals[0]}")
    modes = []
    for ev, vec in zip(evals, evecs.T):
        # deterministic sign: first nonzero component positive
        if vec[np.argmax(np.abs(vec) > 1e-12)] < 0:
            vec = -vec
        # in Python floats, which overflow to inf without a numpy warning
        frequency = math.sqrt(max(float(ev), 0.0) * _CURV_SI / M)
        if not math.isfinite(frequency):
            raise OverflowError(f"a mode frequency is not finite at curvature {ev} nK/um^2")
        modes.append(PhononMode(frequency=frequency, polarization=vec))
    modes.sort(key=lambda m: -m.frequency)
    return modes


def two_spot_frequency(V0_ph, w_ph, D, M):
    """Soft-mode frequency (rad/s) of a two-spot site.

    omega = 2 exp(-D^2/w^2) sqrt(V0 (w^2 - 4D^2) / (M w^4)) with
    V0_ph in nK and lengths in um; vanishes at D = w/2 where the
    curvature at the midpoint flattens out.
    """
    require_finite(V0_ph=V0_ph, w_ph=w_ph, D=D, M=M)
    require_positive(V0_ph=V0_ph, w_ph=w_ph, M=M)
    if not (0.0 <= D <= w_ph / 2.0):
        raise ValueError("D must satisfy 0 <= D <= w_ph/2")
    V0_J = V0_ph * 1e-9 * K_B
    w_m = w_ph * 1e-6
    D_m = D * 1e-6
    return 2.0 * math.exp(-D_m**2 / w_m**2) * math.sqrt(
        V0_J * (w_m**2 - 4.0 * D_m**2) / (M * w_m**4)
    )
