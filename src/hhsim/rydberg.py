"""Dressed-Rydberg interactions and the phonon-mediated coupling map.

The dressed pair potential is a soft-core power law
V_R(r) = V_tilde / (r_c^eta + r^eta).  Its gradient at the phonon
equilibrium positions defines the fermion-phonon coupling constants
f_ij,nu, whose lattice sums give the effective fermion-fermion
interaction map Phi and the dimensionless coupling lambda.

``coupling_f`` broadcasts: fermion points (..., 2), phonon centres
(..., 2) and polarizations (..., 2) give an array of the broadcast
shape without the last axis, or a float for three 2-vectors.
``effective_interaction`` takes a pattern's n * n_modes (site,
polarization) rows, each centre repeated per mode beside
``polarizations.reshape(-1, 2)``, and evaluates the couplings of the
origin, (n_rows,), and of every displacement, (n_disp, n_rows), in one
call each.

Units: C6 and V_tilde in MHz um^eta, distances in um, couplings f in
MHz/um, Phi in MHz^2/um^2.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import H_PLANCK, require_finite, require_positive

# Endpoints of the usable principal-quantum-number window for the
# S+S -> S+P channel shared by the two species.
_C6_N_LO, _C6_LO = 27, 26.1     # MHz um^6
_C6_N_HI, _C6_HI = 32, 153.0    # MHz um^6


def c6_interpolated(n_ryd):
    """Geometric interpolation of C6 (MHz um^6) between the tabulated endpoints.

    Only the endpoints are established; intermediate n values are an
    interpolating approximation, and values outside [27, 32] raise.
    """
    if not (_C6_N_LO <= n_ryd <= _C6_N_HI):
        raise ValueError(f"n_ryd must lie in [{_C6_N_LO}, {_C6_N_HI}], got {n_ryd}")
    frac = (n_ryd - _C6_N_LO) / (_C6_N_HI - _C6_N_LO)
    return _C6_LO * (_C6_HI / _C6_LO) ** frac


@dataclass
class RydbergSpec:
    """Dressing parameters of the Rydberg-mediated interaction."""

    C6: float                 # MHz um^eta
    r_c: float                # soft-core radius, um
    alpha_bar: float          # dressing ratio Omega/(2 Delta)
    eta: int = 6
    V_tilde: float = field(init=False)

    def __post_init__(self):
        if self.eta not in (3, 6):
            raise ValueError(f"eta must be 3 or 6, got {self.eta}")
        require_finite(C6=self.C6, r_c=self.r_c, alpha_bar=self.alpha_bar)
        require_positive(C6=self.C6, r_c=self.r_c, alpha_bar=self.alpha_bar)
        try:
            r_c_eta = self.r_c**self.eta
        except OverflowError:   # beyond the float range
            r_c_eta = math.inf
        require_finite(**{"r_c**eta": r_c_eta})
        require_positive(**{"r_c**eta": r_c_eta})   # r_c**eta can underflow to 0
        self.V_tilde = self.alpha_bar**4 * self.C6
        require_positive(V_tilde=self.V_tilde)   # alpha_bar**4 C6 can underflow to 0
        if self.alpha_bar > 0.2:
            raise ValueError(
                f"alpha_bar = {self.alpha_bar:.3f} exceeds 0.2; the perturbative "
                "dressed potential is unreliable there"
            )


def rydberg_potential(r, spec):
    """Dressed pair potential (MHz) at separation r (um)."""
    if not np.all(np.asarray(r) >= 0):
        raise ValueError("separation must be nonnegative")
    return spec.V_tilde / (spec.r_c**spec.eta + np.asarray(r) ** spec.eta)


def coupling_f(fermion_site, phonon_site, polarization, spec):
    """Fermion-phonon coupling constant f (MHz/um).

    f = V_tilde * eta * (zeta . rhat) |r|^(eta-1) / (|r|^eta + r_c^eta)^2
    with r = fermion - phonon; odd under r -> -r and zero for
    polarization perpendicular to the separation.  The three arguments
    broadcast over their leading axes; the last axis holds (x, y).
    """
    r_vec = np.asarray(fermion_site, dtype=float) - np.asarray(phonon_site, dtype=float)
    # np.linalg.norm's 1-D dot, batched: one point keeps norm's bits
    r = np.sqrt(np.vecdot(r_vec, r_vec))
    if np.any(r == 0.0):
        raise ValueError("fermion and phonon sites coincide; unit vector undefined")
    zeta = np.asarray(polarization, dtype=float)
    eta = spec.eta
    return (spec.V_tilde * eta * np.vecdot(zeta, r_vec) / r * r ** (eta - 1)
            / (r**eta + spec.r_c**eta) ** 2)


# The lattice displacements (n, l) of an interaction map, in row order.
_DISPLACEMENTS = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2), (2, 1), (2, 2))


@dataclass
class EffectiveInteractionMap:
    """Normalized phonon-mediated interaction map Phi_xy / Phi_00.

    ``values`` maps each integer lattice displacement (n, l) of
    ``_DISPLACEMENTS``, in that order, to the signed ratio; ``phi00``
    keeps the absolute on-site value (MHz^2/um^2).  Positive entries
    mediate attraction between fermions in the polaron action, negative
    ones repulsion.
    """

    values: dict
    phi00: float


def effective_interaction(pattern, spec, a):
    """Lattice sums Phi_ii' = sum_{j,nu} f_ij,nu f_i'j,nu, normalized.

    Fermion sites sit at integer multiples of a; phonon sites and their
    polarization vectors come from the pattern.  The map holds the
    displacements of ``_DISPLACEMENTS``.  With eta = 6 and the default
    pattern extent of 5a, the truncation error of the site sum is below
    1e-6 of Phi_00 (the tail falls off as the 14th power of distance).
    """
    require_finite(a=a)
    require_positive(a=a)
    # one row per (site, polarization), in site order
    centers = np.repeat(pattern.centers, pattern.polarizations.shape[1], axis=0)
    zetas = pattern.polarizations.reshape(-1, 2)
    points = a * np.array(_DISPLACEMENTS, dtype=float)
    f_origin = coupling_f(np.zeros(2), centers, zetas, spec)
    f_other = coupling_f(points[:, None, :], centers, zetas, spec)
    phi00 = float(np.vecdot(f_origin, f_origin))
    phi = np.vecdot(f_other, f_origin) / phi00
    return EffectiveInteractionMap(values={d: float(v) for d, v in zip(_DISPLACEMENTS, phi)},
                                   phi00=phi00)


def nnn_ratio_estimate(b, a, eta=6):
    """Analytic estimate of the NNN-to-onsite interaction ratio |Phi_NNN|/|Phi_00|.

    b^(eta+1) / (a*sqrt(2) - b)^(eta+1) for a phonon site offset b
    along the diagonal.  It is defined for 0 < b < a*sqrt(2), the offsets
    a pattern accepts, and accurate for r_c << b < a/sqrt(2).
    """
    require_finite(b=b, a=a)
    require_positive(b=b, a=a)
    nnn = a * math.sqrt(2.0)   # the distance to the NNN fermion site
    if not b < nnn:
        raise ValueError(f"b must be below a*sqrt(2) = {nnn}, got {b}")
    return b ** (eta + 1) / (nnn - b) ** (eta + 1)


def lambda_dimensionless(phi00, W, M, omega_ph):
    """Dimensionless fermion-phonon coupling lambda = Phi_00/(2 W M w^2).

    phi00 in MHz^2/um^2, W (bandwidth 4t) in Hz, M in kg, omega_ph in
    rad/s.  The conversion treats MHz values as h-frequencies.
    """
    require_finite(phi00=phi00, W=W, M=M, omega_ph=omega_ph)
    require_positive(W=W, M=M, omega_ph=omega_ph)
    phi00_si = phi00 * (1e6 * H_PLANCK) ** 2 / (1e-6) ** 2   # J^2/m^2
    W_si = W * H_PLANCK
    return phi00_si / (2.0 * W_si * M * omega_ph**2)
