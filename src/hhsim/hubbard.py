"""Fermion lattice parameters: recoil energy, hopping, on-site U.

Deep-lattice closed forms for a square lattice of Gaussian spots with
spacing a; U takes the scattering length a_s directly.  Energies are
reported in Hz (E = h f); 1 nK of thermal energy corresponds to about
20.84 Hz.
"""

import math
import warnings

from .constants import H_PLANCK, HBAR, M_K40, nk_to_hz, require_finite, require_positive


def recoil_energy(a, M, k_lat=None):
    """Recoil energy in Hz for lattice constant a (um) and mass M (kg).

    E_rec = hbar^2 k^2 / 2M with k defaulting to pi/a (the lattice
    wavevector matching the a-based definition); pass k_lat (1/um) to
    override, e.g. 2*pi/a.
    """
    require_finite(a=a, M=M)
    require_positive(a=a, M=M)
    k_lat = math.pi / a if k_lat is None else k_lat
    require_finite(k_lat=k_lat)
    k = k_lat * 1e6   # 1/m
    return HBAR**2 * k**2 / (2.0 * M) / H_PLANCK


def hopping_t(V0, E_rec):
    """Hopping (same unit as inputs): (4/sqrt(pi)) E^(1/4) V^(3/4) e^(-2 sqrt(V/E)).

    A deep-lattice approximation; a warning is emitted for V0 < E_rec
    where it is unreliable.
    """
    require_finite(V0=V0, E_rec=E_rec)
    require_positive(V0=V0, E_rec=E_rec)
    if V0 < E_rec:
        warnings.warn("hopping_t: V0 < E_rec is outside the deep-lattice regime",
                      stacklevel=2)
    return (4.0 / math.sqrt(math.pi)) * E_rec**0.25 * V0**0.75 * math.exp(
        -2.0 * math.sqrt(V0 / E_rec)
    )


def hubbard_U(k_lat, a_s, E_rec, V0):
    """On-site interaction: sqrt(8) k a_s E_rec^(1/4) V0^(3/4).

    k_lat in 1/um, a_s in um (dimensionless product k*a_s); the result
    carries the unit of E_rec^(1/4) V0^(3/4).  Negative a_s gives an
    attractive U.
    """
    require_finite(k_lat=k_lat, a_s=a_s, E_rec=E_rec, V0=V0)
    require_positive(E_rec=E_rec, V0=V0)
    return math.sqrt(8.0) * k_lat * a_s * E_rec**0.25 * V0**0.75


def parameter_sweep(V0_range_nk, a, a_s_um):
    """Rows of {V0 (nK), t, U_fesh} (Hz) over a V0 sweep of K-40.

    The recoil scale inside the band-structure estimates uses the full
    lattice wavevector 2 pi/a; the interaction integral uses k_lat =
    pi/a (1/um).  a_s_um is the scattering length in um.
    """
    k_lat = math.pi / a
    E_rec = recoil_energy(a, M_K40, k_lat=2.0 * math.pi / a)
    rows = []
    for V0_nk in V0_range_nk:
        V0_hz = nk_to_hz(V0_nk)
        rows.append({"V0_nK": V0_nk, "t_Hz": hopping_t(V0_hz, E_rec),
                     "U_Hz": hubbard_U(k_lat, a_s_um, E_rec, V0_hz)})
    return rows
