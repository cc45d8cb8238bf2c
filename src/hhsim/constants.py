"""Physical constants, unit conversions and the shared input checks.

Internal unit conventions:

* trap/lattice energies: nK (temperature equivalent, E = k_B T)
* Hubbard-model energies: Hz (E = h f)
* lengths: micrometres for lattice geometry, SI metres inside conversions
* angular frequencies: rad/s
"""

import math

C_LIGHT = 299_792_458.0            # m/s
H_PLANCK = 6.626_070_15e-34        # J s
HBAR = H_PLANCK / (2.0 * math.pi)  # J s
K_B = 1.380_649e-23                # J/K
AMU = 1.660_539_066_60e-27         # kg
A_BOHR = 5.291_772_109_03e-11      # m

# Atomic masses.
M_K40 = 39.963_998_48 * AMU        # kg
M_RB87 = 86.909_180_527 * AMU      # kg

# 1 nK of thermal energy expressed in Hz: k_B * 1e-9 / h ~ 20.84 Hz/nK,
# i.e. 1 Hz ~ 0.048 nK.
NK_TO_HZ = K_B * 1e-9 / H_PLANCK
HZ_TO_NK = 1.0 / NK_TO_HZ


def nk_to_hz(energy_nk):
    return energy_nk * NK_TO_HZ


def require_finite(**values):
    """Raise ValueError naming the first value that is not finite, or is an
    int beyond the float range."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


def require_positive(**values):
    """Raise ValueError naming the first value that is not > 0 (NaN included)."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def wavelength_nm_to_angular_frequency(wavelength_nm):
    """Vacuum wavelength in nm to angular frequency in rad/s."""
    return 2.0 * math.pi * C_LIGHT / (wavelength_nm * 1e-9)
