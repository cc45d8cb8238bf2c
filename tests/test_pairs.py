import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsim import pairs
from hhsim.greens import GAMMA1, GAMMA2, greens_M_table
from hhsim.pairs import (
    LFParams,
    UVModel,
    det_diagonal,
    det_full,
    lf_map_main,
    lf_map_physical,
    pair_dispersion_strong_coupling,
    pair_energies,
    pair_energies_diagonal,
    pair_energies_full,
    pair_mass,
    pair_mass_onsite,
    threshold_diagonal,
    threshold_full,
    threshold_physical,
    threshold_physical_poles,
)

from _oracles import (
    binding_condition_full,
    det_diagonal_by_hand,
    det_full_by_hand,
    fd_second_derivative,
)


def test_uvmodel_validation():
    with pytest.raises(ValueError):
        UVModel(t_prime=-1.0, U=0.0)
    with pytest.raises(ValueError):
        UVModel(t_prime=1.0, U=0.0, variant="nope")
    m = UVModel.diagonal(-4.0, -2.0, 1.0)
    assert m.V == -2.0
    with pytest.raises(AttributeError):
        UVModel.full(-4.0, 0.0, -2.0, 1.0).V


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["t_prime", "U", "V1", "V2"])
def test_uvmodel_rejects_non_finite_fields(field, bad):
    fields = {"t_prime": 1.0, "U": -4.0, "V1": -1.0, "V2": -1.0}
    fields[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        UVModel(**fields)


@pytest.mark.parametrize("V1", [-2.0, 0.5, 1e-300])
def test_diagonal_uvmodel_rejects_V1(V1):
    with pytest.raises(ValueError, match="V1"):
        UVModel(t_prime=1.0, U=-4.0, V1=V1, V2=-1.0, variant="diagonal")


def test_shells_are_the_literal_tables():
    assert list(UVModel.diagonal(-4.0, -2.0, 1.0).shells().items()) == [
        ((0, 0), -4.0), ((1, 1), -2.0), ((-1, -1), -2.0)]
    assert list(UVModel.full(-6.0, -1.5, -0.5, 1.0).shells().items()) == [
        ((0, 0), -6.0),
        ((1, 0), -1.5), ((-1, 0), -1.5), ((0, 1), -1.5), ((0, -1), -1.5),
        ((1, 1), -0.5), ((1, -1), -0.5), ((-1, 1), -0.5), ((-1, -1), -0.5)]


@pytest.mark.parametrize("variant", sorted(pairs._ORBITS))
def test_every_orbit_member_has_the_count_row_of_the_first(variant):
    # the determinant takes row i at the first member of orbit i, which
    # is exact only if every member sees the same M_nl counts
    orbits = pairs._ORBITS[variant]
    for i, (_, members) in enumerate(orbits):
        for r in members:
            assert np.array_equal(pairs._orbit_counts(r, orbits),
                                  pairs._COUNTS[variant][:, i, :]), (i, r)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(U=st.floats(-14.0, 4.0), V1=st.floats(-6.0, 6.0), V2=st.floats(-6.0, 6.0),
       tp=st.floats(0.5, 2.0))
def test_determinants_equal_hand_expansions(U, V1, V2, tp):
    # relative to the size of the determinant's terms: no entry exceeds
    # 1 + 4|v| M_00, so near a root the tolerance does not collapse to 0
    U, V1, V2 = U * tp, V1 * tp, V2 * tp
    E = tp * (-8.0 - np.geomspace(1e-9, 30.0, 25))
    M00 = greens_M_table(E, tp)[0]
    for got, ref, vs in ((det_diagonal(E, U, V2, tp), det_diagonal_by_hand(E, U, V2, tp), (U, V2)),
                         (det_full(E, U, V1, V2, tp), det_full_by_hand(E, U, V1, V2, tp), (U, V1, V2))):
        scale = (1.0 + 4.0 * max(abs(v) for v in vs) * M00) ** len(vs)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), scale))


def test_determinants_are_roots_of_pair_energies():
    states = pair_energies_diagonal(-6.0, -3.0, 1.0)
    assert states
    for s in states:
        assert abs(det_diagonal(s.E, -6.0, -3.0, 1.0)) < 1e-8
    states = pair_energies_full(-6.0, -2.0, -1.0, 1.0)
    assert states
    for s in states:
        assert abs(det_full(s.E, -6.0, -2.0, -1.0, 1.0)) < 1e-8


def test_determinants_accept_energy_arrays():
    E = -8.0 - np.geomspace(1e-9, 30.0, 7)
    assert np.array_equal(det_full(E, -6.0, -2.0, -1.0, 1.0),
                          [det_full(e, -6.0, -2.0, -1.0, 1.0) for e in E])
    assert np.array_equal(det_diagonal(E, -6.0, -3.0, 1.0),
                          [det_diagonal(e, -6.0, -3.0, 1.0) for e in E])


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(U=st.floats(-14.0, 2.0), dU=st.floats(0.05, 8.0),
       V1=st.floats(-4.0, 4.0), V2=st.floats(-4.0, 4.0), tp=st.floats(0.5, 2.0))
def test_root_count_monotone_in_attraction(U, dU, V1, V2, tp):
    # a more attractive on-site U lowers the Hamiltonian, so no bound
    # pair can be lost
    weaker = pair_energies_full(U * tp, V1 * tp, V2 * tp, tp)
    stronger = pair_energies_full((U - dU) * tp, V1 * tp, V2 * tp, tp)
    assert len(stronger) >= len(weaker)


def test_full_reduces_to_pure_onsite():
    # with V1 = V2 = 0 both determinant formulations agree
    a = pair_energies_full(-6.0, 0.0, 0.0, 1.0)
    b = pair_energies_diagonal(-6.0, 0.0, 1.0)
    assert len(a) == len(b) == 1
    assert a[0].E == pytest.approx(b[0].E, abs=1e-9)


def test_onsite_binding_for_any_attraction():
    # a 2D lattice binds a pair for arbitrarily weak on-site attraction
    states = pair_energies_diagonal(-1.0, 0.0, 1.0)
    assert len(states) == 1
    assert states[0].E < -8.0


def test_energies_sorted_and_below_band():
    states = pair_energies_diagonal(-8.0, -8.0, 1.0)
    assert len(states) == 2
    assert states[0].E < states[1].E < -8.0
    assert [s.branch for s in states] == [0, 1]


def test_threshold_diagonal_asymptote_and_pole():
    th = threshold_diagonal(1e6, 1.0)
    assert th.U_cr == pytest.approx(-1.5 * math.pi, abs=1e-3)
    pole = threshold_diagonal(-3.0 * math.pi / 4.0, 1.0)
    assert pole.pole and math.isinf(pole.U_cr)
    assert threshold_diagonal(0.0, 1.0).U_cr == 0.0


def test_threshold_full_matches_long_form_binding_condition():
    # U_cr of the reduced rational form is a zero of the long-form
    # band-edge expression
    rng = random.Random(3)
    for _ in range(8):
        V1 = rng.uniform(0.2, 5.0)
        V2 = rng.uniform(0.2, 5.0)
        th = threshold_full(V1, V2, 1.0)
        assert binding_condition_full(th.U_cr, V1, V2, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_binding_condition_equals_reduced_polynomial():
    from hhsim.greens import GAMMA3

    rng = random.Random(11)
    for _ in range(8):
        U = rng.uniform(-10.0, 5.0)
        V1 = rng.uniform(-5.0, 5.0)
        V2 = rng.uniform(-5.0, 5.0)
        tp = rng.uniform(0.5, 2.0)
        reduced = (
            GAMMA1 * U * V1 * V2 / tp**2
            + 0.5 * U * V1 / tp
            + GAMMA2 * U * V2 / tp
            + GAMMA3 * V1 * V2 / tp
            + U + 4.0 * V1 + 4.0 * V2
        )
        assert binding_condition_full(U, V1, V2, tp) == pytest.approx(reduced, rel=1e-12, abs=1e-12)


def test_threshold_consistent_with_root_count():
    V1, V2 = 2.0, 1.0
    th = threshold_full(V1, V2, 1.0)
    above = pair_energies_full(th.U_cr * 1.1, V1, V2, 1.0)
    below = pair_energies_full(th.U_cr * 0.9, V1, V2, 1.0)
    assert len(above) == len(below) + 1


def test_lf_map_main():
    p = LFParams(t_bare=1.0, lam=0.5, hbar_omega_ph=10.0,
                 phi_nn_ratio=0.1, phi_nnn_ratio=-0.2, U_fesh=3.0)
    m = lf_map_main(p)
    assert m.t_prime == pytest.approx(math.exp(-4.0 * 0.5 * 0.9 / 10.0))
    assert m.V1 == pytest.approx(-2.0 * 0.1 * 4.0 * 0.5)
    assert m.V2 == pytest.approx(-2.0 * (-0.2) * 4.0 * 0.5)
    assert m.U == pytest.approx(3.0 - 2.0 * 4.0 * 0.5)


def test_lf_map_physical():
    m = lf_map_physical(LFParams(t_bare=2.0, lam=1.0, U_fesh=0.0))
    assert m.t_prime == pytest.approx(2.0 * math.exp(-4.0 * 0.84))
    assert m.V1 == pytest.approx(-0.32)
    assert m.V2 == pytest.approx(1.792)
    assert m.U == pytest.approx(-16.0)


def test_threshold_physical_pole_location():
    poles = threshold_physical_poles(1.0, renormalized=True)
    assert len(poles) == 1
    assert abs(poles[0] - 1.08) < 0.02


@pytest.mark.parametrize("renormalized", [True, False])
def test_threshold_physical_is_the_rounded_composition(renormalized):
    # the printed denominator tp^2 + 0.5451 t tp lam - 0.0142 t^2 lam^2
    # is threshold_full's composed with lf_map_physical, its coefficients
    # 0.5*(-0.16) + g2*0.896 and g1*0.16*0.896 rounded to 4 decimals
    t = 1.3
    for lam in np.linspace(0.0, 2.0, 81):
        m = lf_map_physical(LFParams(t_bare=t, lam=float(lam)))
        tp = m.t_prime if renormalized else t
        composed = GAMMA1 * m.V1 * m.V2 + 0.5 * tp * m.V1 + GAMMA2 * tp * m.V2 + tp * tp
        printed = threshold_physical(float(lam), t, renormalized)
        assert printed["t_prime"] == tp
        rounding = 5e-5 * (t * tp * lam + t * t * lam**2)
        assert abs(printed["denominator"] - composed) <= rounding + 1e-14 * tp * tp


def test_threshold_physical_bare_is_smooth():
    assert threshold_physical_poles(1.0, renormalized=False) == []
    prev = None
    for i in range(201):
        lam = 2.0 * i / 200
        res = threshold_physical(lam, 1.0, renormalized=False)
        assert not res["pole"]
        if prev is not None:
            assert abs(res["U_cr"] - prev) < 0.2
        prev = res["U_cr"]
    with pytest.raises(ValueError):
        threshold_physical(-0.1, 1.0, renormalized=False)


def test_dispersion_branches():
    states = pair_dispersion_strong_coupling(-6.0, -1.0, 0.5, (0.0, 0.0))
    assert len(states) == 3
    assert states[0].E <= states[1].E <= states[2].E
    flat = [s for s in states if s.immobile]
    assert len(flat) == 1 and flat[0].E == -1.0
    # the immobile branch is k-independent
    other = pair_dispersion_strong_coupling(-6.0, -1.0, 0.5, (1.3, -0.4))
    assert [s.E for s in other if s.immobile] == [-1.0]


def test_pair_mass_reduction_to_onsite_form():
    W, lam, tp = 4.0, 0.7, 0.3
    assert pair_mass(-2.0 * W * lam, 0.0, tp) == pytest.approx(
        pair_mass_onsite(W, lam, tp), rel=1e-12
    )


def test_pair_mass_deep_binding_limit():
    # for |U| >> t' the pair becomes heavy: m** ~ |U| / (2 t'^2 a^2)
    m = pair_mass(-1e6, 0.0, 1.0)
    assert m == pytest.approx(5e5, rel=1e-6)


def test_mass_scale_matches_dispersion_curvature_scale():
    # the closed-form 1/m** tracks the k = 0 curvature of the lower
    # branch up to a constant factor (the printed normalization), so the
    # ratio must be U, V, t' independent
    def ratio(U, V, tp):
        curv = fd_second_derivative(
            lambda kx: pair_dispersion_strong_coupling(U, V, tp, (kx, 0.0))[0].E,
            0.0, 1e-2)
        return curv * pair_mass(U, V, tp)

    r0 = ratio(-6.0, -1.0, 0.5)
    for args in [(-9.0, -2.0, 1.0), (-4.0, 0.0, 0.2), (-12.0, -5.0, 0.8)]:
        assert ratio(*args) == pytest.approx(r0, rel=1e-6)
