"""The scalar closed forms check their arguments at the boundary and name the bad one."""

import math

import numpy as np
import pytest

from hhsim.constants import M_K40, M_RB87
from hhsim.hubbard import hopping_t, hubbard_U, recoil_energy
from hhsim.lattice import phonon_modes, two_spot_frequency
from hhsim.rydberg import lambda_dimensionless, nnn_ratio_estimate
from hhsim.stark import K40, StarkConfig, ac_stark_shift

# valid arguments of each function, and those of them that must be positive
VALID = {
    recoil_energy: dict(a=1.73, M=M_K40, k_lat=2.0),
    hopping_t: dict(V0=8000.0, E_rec=1000.0),
    hubbard_U: dict(k_lat=1.8, a_s=-0.005, E_rec=1668.0, V0=8000.0),
    lambda_dimensionless: dict(phi00=1.0, W=500.0, M=M_RB87, omega_ph=6.0e4),
    ac_stark_shift: dict(atom=K40, laser_wavelength=760.0, cfg=StarkConfig()),
    two_spot_frequency: dict(V0_ph=250.0, w_ph=0.6, D=0.2, M=M_RB87),
    nnn_ratio_estimate: dict(b=0.6, a=1.73, eta=6),
}
POSITIVE = {recoil_energy: ("a", "M"), hopping_t: ("V0", "E_rec"), hubbard_U: ("E_rec", "V0"),
            lambda_dimensionless: ("W", "M", "omega_ph"), ac_stark_shift: ("laser_wavelength",),
            two_spot_frequency: ("V0_ph", "w_ph", "M"), nnn_ratio_estimate: ("b", "a")}
CASES = ([(fn, name, value, "finite") for fn, kwargs in VALID.items()
          for name in kwargs if isinstance(kwargs[name], float)
          for value in (math.nan, math.inf, -math.inf)]
         + [(fn, name, value, "positive") for fn, names in POSITIVE.items()
            for name in names for value in (0.0, -1.0)])


@pytest.mark.parametrize("fn, name, value, rule", CASES,
                         ids=[f"{fn.__name__}-{name}-{value}" for fn, name, value, _ in CASES])
def test_closed_forms_reject_bad_arguments_by_name(fn, name, value, rule):
    assert math.isfinite(fn(**VALID[fn]))
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {value}$"):
        fn(**{**VALID[fn], name: value})


@pytest.mark.parametrize("M, rule", [(math.nan, "finite"), (math.inf, "finite"),
                                     (0.0, "positive"), (-1.0, "positive")])
def test_phonon_modes_reject_a_bad_mass_by_name(M, rule):
    assert all(math.isfinite(m.frequency) for m in phonon_modes(np.eye(2), M_RB87))
    with pytest.raises(ValueError, match=f"^M must be {rule}, got {M}$"):
        phonon_modes(np.eye(2), M)
