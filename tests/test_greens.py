import math

import numpy as np
import pytest

from hhsim.greens import (
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GreensDomainError,
    SUPPORTED_NL,
    greens_M_table,
)
from hhsim.orbits import EDGE_C

from _oracles import closed_form_M, greens_C_threshold, quad_M

# Energies in units of t', from kappa = 2W'/|E| = 1e-4 up to 1 - 1e-12:
# a geometric sweep, points either side of the series/closed-form
# crossover at kappa = 0.7, and points within 1e-7 t' of the band edge.
KAPPAS = np.concatenate([
    np.geomspace(1e-4, 0.95, 25),
    0.7 * (1.0 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])),
    1.0 - np.geomspace(1e-2, 1e-12, 11),
])
TABLE_E = np.concatenate([-8.0 / KAPPAS, -8.0 - np.array([1e-7, 1e-8, 1e-10])])


@pytest.mark.parametrize("E", [-8.01, -8.5, -10.0, -20.0, -100.0])
def test_closed_forms_match_quadrature(E):
    ref = quad_M(E, 1.0)
    vals = greens_M_table(E, 1.0)
    for j, nl in enumerate(SUPPORTED_NL):
        assert vals[j] == pytest.approx(ref[nl], rel=1e-9)


def test_t_prime_scaling():
    # M_nl(E; t') = M_nl(E/s; t'/s) / s for any scale s
    base = greens_M_table(-9.0, 1.0)
    scaled = greens_M_table(-4.5, 0.5)
    assert scaled == pytest.approx(2.0 * base, rel=1e-12)


def test_domain_errors():
    with pytest.raises(GreensDomainError):
        greens_M_table(-8.0, 1.0)
    with pytest.raises(GreensDomainError):
        greens_M_table(-7.9, 1.0)
    with pytest.raises(ValueError):
        greens_M_table(-9.0, -1.0)


def test_C_converges_to_threshold_values():
    # C_nl(E) tends to its tabulated band-edge limit as E -> -8t'; the
    # approach is logarithmically slow, so only a loose check is possible
    tp = 1.0
    M_near = greens_M_table(-8.0 * tp - 1e-9, tp)
    M_far = greens_M_table(-8.0 * tp - 1e-3, tp)
    for j, nl in enumerate(SUPPORTED_NL[1:], start=1):
        limit = greens_C_threshold(*nl, tp)
        near = M_near[0] - M_near[j]
        far = M_far[0] - M_far[j]
        assert abs(near - limit) < abs(far - limit)
        assert near == pytest.approx(limit, rel=2e-3)


def test_threshold_table_rational_pi_values():
    tp = 2.0
    assert greens_C_threshold(0, 0, tp) == 0.0
    assert greens_C_threshold(1, 0, tp) == pytest.approx(1.0 / (8.0 * tp), abs=1e-15)
    assert greens_C_threshold(1, 1, tp) == pytest.approx(1.0 / (2.0 * math.pi * tp), abs=1e-15)
    assert greens_C_threshold(2, 0, tp) == pytest.approx((math.pi - 2.0) / (2.0 * math.pi * tp), abs=1e-15)
    assert greens_C_threshold(2, 1, tp) == pytest.approx((8.0 - math.pi) / (8.0 * math.pi * tp), abs=1e-15)
    assert greens_C_threshold(2, 2, tp) == pytest.approx(2.0 / (3.0 * math.pi * tp), abs=1e-15)


def test_edge_C_is_the_threshold_table():
    # the band-edge limits that orbits reads its thresholds off are the
    # ones criterion 02 checks
    for nl, c in zip(SUPPORTED_NL, EDGE_C, strict=True):
        assert c == greens_C_threshold(*nl, 1.0), nl


def test_threshold_linear_constraints():
    # lattice-symmetry identities among the band-edge constants
    c10 = greens_C_threshold(1, 0, 1.0)
    c11 = greens_C_threshold(1, 1, 1.0)
    c20 = greens_C_threshold(2, 0, 1.0)
    c21 = greens_C_threshold(2, 1, 1.0)
    assert 4.0 * c10 == pytest.approx(c20 + 2.0 * c11, abs=1e-14)
    assert 2.0 * c11 == pytest.approx(c10 + c21, abs=1e-14)


def test_gamma_constants():
    assert GAMMA1 == pytest.approx((32.0 - 9.0 * math.pi) / (12.0 * math.pi), abs=1e-15)
    assert GAMMA2 == pytest.approx((16.0 - 3.0 * math.pi) / (3.0 * math.pi), abs=1e-15)
    assert GAMMA3 == pytest.approx((64.0 - 18.0 * math.pi) / (3.0 * math.pi), abs=1e-15)


def test_large_energy_limit():
    # all M_nl with (n, l) != (0, 0) die off faster than M_00 ~ 1/|E|
    M = greens_M_table(-1e5, 1.0)
    assert M[0] == pytest.approx(1e-5, rel=1e-3)
    assert np.all(np.abs(M[1:]) < 0.1 * M[0])


@pytest.mark.parametrize("t_prime", [1.0, 0.37])
def test_table_matches_extended_precision_closed_forms(t_prime):
    E = TABLE_E * t_prime
    M = greens_M_table(E, t_prime)
    assert M.shape == (len(SUPPORTED_NL), len(E))
    for i, e in enumerate(E):
        ref = closed_form_M(float(e), t_prime)
        for j, nl in enumerate(SUPPORTED_NL):
            assert M[j, i] == pytest.approx(ref[nl], rel=1e-11, abs=0.0), (e, nl)


def test_array_call_equals_scalar_calls_bit_for_bit():
    E = np.random.default_rng(5).permutation(TABLE_E)
    M = greens_M_table(E, 1.0)
    scalar = np.array([greens_M_table(float(e), 1.0) for e in E]).T
    assert np.array_equal(M, scalar)
    assert np.array_equal(greens_M_table(E.reshape(4, -1), 1.0), M.reshape(6, 4, -1))


@pytest.mark.parametrize("bad", [-8.0, -7.9, 1.0, math.nan])
def test_domain_error_if_any_element_is_outside(bad):
    with pytest.raises(GreensDomainError):
        greens_M_table(np.array([-20.0, -9.0, bad, -8.5]), 1.0)
