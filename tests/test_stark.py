import math

import pytest

from _oracles import dipole_light_shift, dipole_tune_out
from hhsim.stark import (
    K40,
    RB87,
    SPECIES,
    AtomLineData,
    NoZeroCrossingError,
    ResonanceError,
    StarkConfig,
    ac_stark_shift,
    find_stark_zero,
)

CFG = StarkConfig()


def test_species_registry():
    assert set(SPECIES) == {"K-40", "Rb-87"}
    assert SPECIES["K-40"] is K40


def test_line_data_validation():
    with pytest.raises(ValueError):
        AtomLineData("bad", 700.0, 750.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^Gamma_1 must be positive, got -1.0$"):
        AtomLineData("bad", 770.0, 766.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="^Gamma_2 must be finite, got nan$"):
        AtomLineData("bad", 770.0, 766.0, 1.0, math.nan)
    with pytest.raises(ValueError, match="^lambda_D1 must be finite, got inf$"):
        AtomLineData("bad", math.inf, 766.0, 1.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        StarkConfig(ellipticity=1.5)
    with pytest.raises(ValueError, match="^intensity_prefactor must be nonnegative, got -1.0$"):
        StarkConfig(intensity_prefactor=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["g_F", "m_F", "ellipticity", "intensity_prefactor"])
def test_config_rejects_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}"):
        StarkConfig(**{field: bad})


def test_red_detuning_traps():
    # far on the red side of both lines the potential is attractive
    assert ac_stark_shift(K40, 850.0, CFG) < 0.0
    assert ac_stark_shift(RB87, 850.0, CFG) < 0.0
    # far blue of both lines it repels
    assert ac_stark_shift(K40, 700.0, CFG) > 0.0


def test_resonance_raises():
    with pytest.raises(ResonanceError):
        ac_stark_shift(K40, K40.lambda_D1, CFG)
    with pytest.raises(ValueError):
        ac_stark_shift(K40, -1.0, CFG)


def test_shift_linear_in_prefactor():
    v1 = ac_stark_shift(K40, 760.0, StarkConfig(intensity_prefactor=1.0))
    v2 = ac_stark_shift(K40, 760.0, StarkConfig(intensity_prefactor=2.5))
    assert v2 == pytest.approx(2.5 * v1, rel=1e-14)


def test_zero_crossing_bracketed_by_lines():
    lam = find_stark_zero(K40, CFG)
    assert K40.lambda_D2 < lam < K40.lambda_D1
    assert abs(ac_stark_shift(K40, lam, CFG)) < 1e-3 * abs(ac_stark_shift(K40, 760.0, CFG))


def test_zero_crossing_deterministic():
    assert find_stark_zero(RB87, CFG) == find_stark_zero(RB87, CFG)


def test_spin_dependence_moves_zero():
    lam0 = find_stark_zero(K40, CFG)
    lam1 = find_stark_zero(K40, StarkConfig(g_F=0.5, m_F=0.2))
    assert lam0 != lam1


def test_extreme_spin_configuration_may_lose_zero():
    # a strong enough vector term removes the sign change between the
    # lines; g_F m_F = 3 with pure circular polarization is sufficient
    with pytest.raises(NoZeroCrossingError):
        find_stark_zero(K40, StarkConfig(g_F=1.0, m_F=3.0))


def test_mutual_trap_check():
    lam_k, lam_rb = find_stark_zero(K40, CFG), find_stark_zero(RB87, CFG)
    # at the K-40 zero the Rb-87 shift is repulsive (blue of both Rb
    # lines), at the Rb-87 zero the K-40 shift is attractive
    assert ac_stark_shift(RB87, lam_k, CFG) > 0.0
    assert ac_stark_shift(K40, lam_rb, CFG) < 0.0
    assert lam_k < lam_rb


def _lines(atom):
    return atom.lambda_D1, atom.lambda_D2, atom.Gamma_1, atom.Gamma_2


@pytest.mark.parametrize("atom", [K40, RB87], ids=lambda a: a.species_name)
def test_zero_matches_dipole_matrix_element_reference(atom):
    # the reference weights each line by its reduced dipole matrix
    # element, (2J'+1) Gamma_i / omega_i^3, with no saturation intensity
    assert find_stark_zero(atom, CFG) == pytest.approx(dipole_tune_out(*_lines(atom)), abs=1e-4)


@pytest.mark.parametrize("atom", [K40, RB87], ids=lambda a: a.species_name)
@pytest.mark.parametrize("g_F, m_F, eps", [(0.0, 0.0, 0.0), (0.5, 1.0, 0.6), (-0.5, 2.0, 0.0)])
def test_shift_ratio_matches_dipole_matrix_element_reference(atom, g_F, m_F, eps):
    cfg = StarkConfig(g_F=g_F, m_F=m_F, ellipticity=eps)
    p = g_F * m_F * math.sqrt(1.0 - eps**2)
    # one point inside the lines, one blue and one red of both
    for lam_a, lam_b in ((760.0, 0.5 * (atom.lambda_D1 + atom.lambda_D2)), (760.0, 850.0)):
        got = ac_stark_shift(atom, lam_a, cfg) / ac_stark_shift(atom, lam_b, cfg)
        ref = (dipole_light_shift(*_lines(atom), lam_a, p)
               / dipole_light_shift(*_lines(atom), lam_b, p))
        assert float(ref) == pytest.approx(got, rel=1e-12)
