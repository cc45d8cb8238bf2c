"""Species-dependent AC Stark shifts and zero-crossing wavelengths.

Between the D1 and D2 lines of an alkali atom the scalar light shift
changes sign: the laser is red detuned from one line and blue detuned
from the other, and the induced dipole contributions cancel at a
specific wavelength.  Tuning one laser to the zero of species A while
it still shifts species B (and vice versa) yields two mutually
exclusive lattices in the same plane.

Each line enters with its own dipole strength.  The two-level shift of
line i is hbar Gamma_i^2 I / (8 I_sat,i Delta_i) with
I_sat,i = hbar omega_i^3 Gamma_i / (12 pi c^2), so lines of different
linewidth and frequency do not share one saturation intensity: relative
to the D2 line, whose saturation intensity the intensity prefactor
absorbs, the D1 weight Gamma_1^2 becomes Gamma_1 Gamma_2 (omega_2/omega_1)^3:
the weights come from the line widths and frequencies alone.
Equivalently, the ground-state scalar polarizability is proportional to
sum_i (2J'+1) (Gamma_i/omega_i^3) omega_i/(omega_i^2 - omega^2), whose
factors (2J'+1) are the 1 : 2 of the D1 : D2 terms.  That form also
holds the counter-rotating term 1/(omega + omega_i) of each line, which
is kept: dropping it (the rotating-wave approximation) moves the Rb-87
tune-out 0.03 nm to the blue, ten times as far from the measured
790.032 nm (Leonard et al., PRA 92, 052501 (2015)) as the full form.

Detunings are always computed in rad/s from vacuum wavelengths; the
returned trap energy is in nK, linear in the intensity prefactor.
"""

import math
from dataclasses import dataclass, fields

from .constants import require_finite, require_positive, wavelength_nm_to_angular_frequency


@dataclass(frozen=True)
class AtomLineData:
    """D1/D2 line wavelengths and widths of one alkali species."""

    species_name: str
    lambda_D1: float    # nm
    lambda_D2: float    # nm
    Gamma_1: float      # rad/s, D1 linewidth
    Gamma_2: float      # rad/s, D2 linewidth

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)[1:]}   # all but the name
        require_finite(**values)
        require_positive(**values)
        if not self.lambda_D2 < self.lambda_D1:
            raise ValueError("D2 line must lie at shorter wavelength than D1")


# Built-in datasets.  The K-40 D2 linewidth is 2pi x 6.03 MHz; source
# tabulations sometimes mislabel it with the D1 symbol.
K40 = AtomLineData(
    species_name="K-40",
    lambda_D1=770.1,
    lambda_D2=766.7,
    Gamma_1=2.0 * math.pi * 5.95e6,
    Gamma_2=2.0 * math.pi * 6.03e6,
)

RB87 = AtomLineData(
    species_name="Rb-87",
    lambda_D1=795.0,
    lambda_D2=780.2,
    Gamma_1=2.0 * math.pi * 5.74e6,
    Gamma_2=2.0 * math.pi * 6.06e6,
)

SPECIES = {"K-40": K40, "Rb-87": RB87}


@dataclass(frozen=True)
class StarkConfig:
    """Laser/state parameters entering the shift formula."""

    g_F: float = 0.0
    m_F: float = 0.0
    ellipticity: float = 0.0
    intensity_prefactor: float = 1.0   # nK, the scale hbar*I_Las/(24 I_Sat)

    def __post_init__(self):
        require_finite(g_F=self.g_F, m_F=self.m_F, ellipticity=self.ellipticity,
                       intensity_prefactor=self.intensity_prefactor)
        if abs(self.ellipticity) > 1.0:
            raise ValueError("|ellipticity| must not exceed 1")
        if self.intensity_prefactor < 0.0:
            raise ValueError(
                f"intensity_prefactor must be nonnegative, got {self.intensity_prefactor}")


class ResonanceError(ValueError):
    """Laser exactly on a transition line."""


def ac_stark_shift(atom, laser_wavelength, cfg):
    """Trap potential (nK) of `atom` in light at `laser_wavelength` (nm).

    V = p * [ (w1 s1 + 2 w2 s2)
              - g_F m_F sqrt(1 - eps^2) (w1 v1 - w2 v2) ]
    with the line weights
        w1 = Gamma_1 Gamma_2 (omega_2/omega_1)^3,   w2 = Gamma_2^2,
    which come from the widths and frequencies alone (Gamma_i^2 I_sat,2/I_sat,i
    with I_sat,i proportional to Gamma_i omega_i^3), and the detuning factors
        s_i = 1/d_i - 1/(omega_las + omega_i),
        v_i = 1/d_i + 1/(omega_las + omega_i),
    where d_i = omega_las - omega_i in rad/s.  The second term of each is
    the counter-rotating contribution of the line; it is even in the
    laser frequency in the scalar part and odd in the vector part.  Red
    detuning from both lines gives a negative (trapping) energy.  The
    bracket has units of rad/s; the prefactor p (nK) absorbs the
    remaining scale, so the result is the bracket expressed in units of
    its value per (rad/s), times p.
    """
    require_finite(laser_wavelength=laser_wavelength)
    require_positive(laser_wavelength=laser_wavelength)
    w_las = wavelength_nm_to_angular_frequency(laser_wavelength)
    w1 = wavelength_nm_to_angular_frequency(atom.lambda_D1)
    w2 = wavelength_nm_to_angular_frequency(atom.lambda_D2)
    d1 = w_las - w1
    d2 = w_las - w2
    if d1 == 0.0:
        raise ResonanceError(f"laser resonant with {atom.species_name} D1 line")
    if d2 == 0.0:
        raise ResonanceError(f"laser resonant with {atom.species_name} D2 line")
    weight_1 = atom.Gamma_1 * atom.Gamma_2 * (w2 / w1) ** 3
    weight_2 = atom.Gamma_2**2
    scalar = (weight_1 * (1.0 / d1 - 1.0 / (w_las + w1))
              + 2.0 * weight_2 * (1.0 / d2 - 1.0 / (w_las + w2)))
    vector = (weight_1 * (1.0 / d1 + 1.0 / (w_las + w1))
              - weight_2 * (1.0 / d2 + 1.0 / (w_las + w2)))
    bracket = scalar - cfg.g_F * cfg.m_F * math.sqrt(1.0 - cfg.ellipticity**2) * vector
    return cfg.intensity_prefactor * bracket


_ZERO_TOL_NM = 1e-4   # bracket width at which find_stark_zero stops


class NoZeroCrossingError(ValueError):
    """The shift does not change sign between the D2 and D1 lines."""


def find_stark_zero(atom, cfg):
    """Zero-crossing wavelength (nm) between the D2 and D1 lines.

    Deterministic bisection to _ZERO_TOL_NM; the bracket excludes a small
    margin around each resonance pole.
    """
    margin = 1e-3 * (atom.lambda_D1 - atom.lambda_D2)
    lo = atom.lambda_D2 + margin
    hi = atom.lambda_D1 - margin
    f_lo = ac_stark_shift(atom, lo, cfg)
    f_hi = ac_stark_shift(atom, hi, cfg)
    if f_lo * f_hi >= 0.0:
        raise NoZeroCrossingError(
            f"no zero crossing of the Stark shift between the "
            f"{atom.species_name} D2 and D1 lines for this configuration"
        )
    while hi - lo > _ZERO_TOL_NM:
        mid = 0.5 * (lo + hi)
        f_mid = ac_stark_shift(atom, mid, cfg)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
