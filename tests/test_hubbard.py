import math

import pytest

from hhsim.constants import HBAR, H_PLANCK, M_K40
from hhsim.hubbard import (
    hopping_t,
    hubbard_U,
    parameter_sweep,
    recoil_energy,
)


def test_recoil_energy_value():
    a = 1.73
    E = recoil_energy(a, M_K40)
    k = math.pi / a * 1e6
    assert E == pytest.approx(HBAR**2 * k**2 / (2 * M_K40) / H_PLANCK, rel=1e-12)
    # quadratic in the wavevector
    assert recoil_energy(a, M_K40, k_lat=2 * math.pi / a) == pytest.approx(4 * E, rel=1e-12)
    with pytest.raises(ValueError):
        recoil_energy(-1.0, M_K40)


def test_hopping_deep_lattice_monotone():
    E = 1000.0
    ts = [hopping_t(V0, E) for V0 in (4000.0, 8000.0, 16000.0)]
    assert ts[0] > ts[1] > ts[2] > 0.0


def test_hopping_warns_in_shallow_lattice():
    with pytest.warns(UserWarning):
        hopping_t(500.0, 1000.0)
    with pytest.raises(ValueError):
        hopping_t(-1.0, 1000.0)


def test_hubbard_U_sign_and_scaling():
    U = hubbard_U(math.pi / 1.73, 0.005, 1668.0, 8000.0)
    assert U > 0.0
    assert hubbard_U(math.pi / 1.73, -0.005, 1668.0, 8000.0) == pytest.approx(-U)
    assert hubbard_U(math.pi / 1.73, 0.010, 1668.0, 8000.0) == pytest.approx(2 * U)


def test_parameter_sweep_rows():
    rows = parameter_sweep([300.0, 400.0], 1.73, a_s_um=0.005)
    assert [r["V0_nK"] for r in rows] == [300.0, 400.0]
    for r in rows:
        assert set(r) == {"V0_nK", "t_Hz", "U_Hz"}
        assert r["t_Hz"] > 0.0
        assert r["U_Hz"] > 0.0
