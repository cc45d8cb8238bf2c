"""Lattice Green's-function integrals for the 2D square lattice.

The two-body bound-state problem at zero total pair momentum reduces to
determinant equations in the integrals

    M_nl(E) = int dq/(2pi)^2  cos(n qx) cos(l qy) / (|E| - 4t'(cos qx + cos qy))

taken over the Brillouin zone, with E < -8t' strictly below the
two-particle band bottom.  The six combinations needed here,
(n,l) in {00, 10, 11, 20, 21, 22}, are evaluated together, in float and
element-wise over an array of energies, by :func:`greens_M_table`, the
one energy-dependent function of the module; callers index its rows by
the order of SUPPORTED_NL.  :func:`greens_C_threshold` gives the
band-edge limits of the differences C_nl = M_00 - M_nl.  With the
elliptic modulus kappa = 2W'/|E|, W' = 4t', the table uses two methods:

* kappa < 0.7: the moment series |E| M_nl = sum_k (W'/|E|)^k c_k,nl,
  128 terms, with c_k,nl = <(cos qx + cos qy)^k cos(n qx) cos(l qy)>.
  The closed forms cancel catastrophically at large |E|: for M21 and
  M22 the K and E terms cancel to O(kappa^6) and O(kappa^8) of their
  size.  The series has positive terms and no cancellation; at
  kappa = 0.7 the dropped tail is below 1e-19 relative.
* kappa >= 0.7: the closed forms in the complete elliptic integrals
  K(kappa), E(kappa).  The AGM is seeded with the complementary modulus
  k' = sqrt(p), p = (|E| - 2W')(|E| + 2W')/|E|^2, which keeps full
  relative accuracy at the band edge, where kappa -> 1.
"""

import math

import numpy as np

from .elliptic import elliptic_KE_kprime

SUPPORTED_NL = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))

# Constants appearing in the binding condition of the both-diagonals
# UV model.
GAMMA1 = (32.0 - 9.0 * math.pi) / (12.0 * math.pi)
GAMMA2 = (16.0 - 3.0 * math.pi) / (3.0 * math.pi)
GAMMA3 = (64.0 - 18.0 * math.pi) / (3.0 * math.pi)

_SERIES_KAPPA = 0.7
_SERIES_TERMS = 128


def _series_coefficients(n_terms):
    """c_k,nl for k < n_terms, one row per entry of SUPPORTED_NL.

    c_k,nl = sum_j C(k, j) <cos^j q cos nq> <cos^(k-j) q cos lq>, a
    convolution of the 1D moments scaled by 1/j!; the 1D moment over j!
    is 2^-j / (((j-n)/2)! ((j+n)/2)!) for j >= n of the parity of n, else 0.
    """
    f = math.factorial
    scaled = {
        n: np.array([math.ldexp(1.0 / (f((j - n) // 2) * f((j + n) // 2)), -j)
                     if j >= n and (j - n) % 2 == 0 else 0.0 for j in range(n_terms)])
        for n in (0, 1, 2)
    }
    k_fact = np.array([float(f(k)) for k in range(n_terms)])
    return np.array([np.convolve(scaled[n], scaled[l])[:n_terms] * k_fact
                     for n, l in SUPPORTED_NL])


_SERIES_C = _series_coefficients(_SERIES_TERMS)


class GreensDomainError(ValueError):
    """Raised for energies at or above the two-particle band bottom."""


def _check_domain(E, t_prime):
    if t_prime <= 0:
        raise ValueError(f"t_prime must be positive, got {t_prime}")
    outside = ~(E < -8.0 * t_prime)
    if outside.any():
        raise GreensDomainError(
            f"E = {E[outside].flat[0]} must lie strictly below the band bottom "
            f"-8t' = {-8.0 * t_prime}"
        )


def _series(absE, Wp):
    powers = np.empty(absE.shape + (_SERIES_TERMS,))
    powers[..., 0] = 1.0
    powers[..., 1:] = (Wp / absE)[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    return (powers * _SERIES_C[:, None, :]).sum(axis=-1) / absE


def _closed_forms(absE, Wp):
    p = (absE - 2 * Wp) * (absE + 2 * Wp) / absE**2   # k'^2 = 1 - kappa^2
    K, Eint = elliptic_KE_kprime(np.sqrt(p))
    x = absE / Wp
    x2 = x * x
    twoK_x = 2 * K / x
    pi = math.pi
    # pi W' M_nl, in the order of SUPPORTED_NL
    return np.array([
        twoK_x,
        K - pi / 2,
        x / 2 * ((1 + p) * K - 2 * Eint),
        twoK_x + x * (2 * Eint - pi),
        x2 * (K - Eint) - 3 * K + pi / 2,
        twoK_x + 2 * x / 3 * (p * x2 * K - (x2 - 2) * Eint),
    ]) / (pi * Wp)


def greens_M_table(E, t_prime):
    """All six M_nl at every energy of E, in the order of SUPPORTED_NL.

    E may be a scalar or an array, every element below -8t'; the result
    has shape (6,) + shape(E).  Each element depends only on its own
    energy, so an array call equals the element-wise scalar calls.
    """
    E = np.asarray(E, dtype=float)
    _check_domain(E, t_prime)
    absE = -E
    Wp = 4.0 * t_prime
    series = 2 * Wp < _SERIES_KAPPA * absE
    M = np.empty((len(SUPPORTED_NL),) + E.shape)
    if series.any():
        M[:, series] = _series(absE[series], Wp)
    if not series.all():
        M[:, ~series] = _closed_forms(absE[~series], Wp)
    return M


def greens_C_threshold(n, l, t_prime):
    """Analytic limit of C_nl as E approaches the band bottom -8t'.

    M_00 diverges logarithmically there but the differences converge to
    simple rational-pi multiples of 1/t'.
    """
    table = {
        (1, 0): 1.0 / 8.0,
        (1, 1): 1.0 / (2.0 * math.pi),
        (2, 0): (math.pi - 2.0) / (2.0 * math.pi),
        (2, 1): (8.0 - math.pi) / (8.0 * math.pi),
        (2, 2): 2.0 / (3.0 * math.pi),
    }
    if (n, l) == (0, 0):
        return 0.0
    if (n, l) not in table:
        raise ValueError(f"no threshold value tabulated for ({n}, {l})")
    return table[(n, l)] / t_prime

