import math

import mpmath
import numpy as np
import pytest

from hhsim.elliptic import EllipticDomainError, elliptic_KE_kprime

from _oracles import series_elliptic_E, series_elliptic_K


def _kprime(kappa):
    """The complementary modulus of the modulus kappa."""
    return (1 - kappa * kappa) ** 0.5


def test_known_values_at_zero_modulus():
    K, E = elliptic_KE_kprime(_kprime(0.0))
    assert K == pytest.approx(math.pi / 2, rel=1e-15)
    assert E == pytest.approx(math.pi / 2, rel=1e-15)


def test_K_diverges_at_unit_modulus():
    with pytest.raises(EllipticDomainError):
        elliptic_KE_kprime(_kprime(1.0))


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_agm_matches_power_series(kappa):
    K, E = elliptic_KE_kprime(_kprime(kappa))
    assert K == pytest.approx(series_elliptic_K(kappa), rel=1e-12)
    assert E == pytest.approx(series_elliptic_E(kappa), rel=1e-12)


def test_near_singular_modulus_against_mpmath():
    # the series oracle converges too slowly here; mpmath (parameter
    # convention m = kappa^2) is the cross-check
    kappa = 1.0 - 1e-10
    m = kappa * kappa
    K, E = elliptic_KE_kprime(_kprime(kappa))
    assert K == pytest.approx(float(mpmath.ellipk(m)), rel=1e-12)
    assert E == pytest.approx(float(mpmath.ellipe(m)), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.1, 1.5, [0.5, math.nan], [[0.5], [2.0]]])
def test_kprime_outside_unit_interval_is_rejected(bad):
    with pytest.raises(EllipticDomainError):
        elliptic_KE_kprime(bad)


def test_array_path_matches_float_path():
    kprime = np.array([[1.0, 0.6], [1e-8, 0.05]])
    K, E = elliptic_KE_kprime(kprime)
    assert K.shape == E.shape == kprime.shape
    for kp, k_el, e_el in zip(kprime.ravel().tolist(), K.ravel().tolist(), E.ravel().tolist()):
        assert elliptic_KE_kprime(kp) == (k_el, e_el)
    K, E = elliptic_KE_kprime(_kprime(0.5))
    assert isinstance(K, float) and isinstance(E, float)


def test_K_monotone_increasing_E_monotone_decreasing():
    kappas = [i / 50 for i in range(50)]
    Ks, Es = zip(*(elliptic_KE_kprime(_kprime(k)) for k in kappas))
    assert all(b > a for a, b in zip(Ks, Ks[1:]))
    assert all(b < a for a, b in zip(Es, Es[1:]))
