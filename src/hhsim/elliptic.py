"""Complete elliptic integrals K and E via the arithmetic-geometric mean.

Convention: the argument is the *modulus* kappa, not the parameter
m = kappa**2.  This matters because common libraries disagree
(scipy.special.ellipk takes m, mpmath.ellipk takes m as well).

The AGM iteration converges quadratically; with double input the result
is accurate to better than 1e-12 relative.  The same routine runs on
``mpmath.mpf`` inputs for extended-precision work, and element-wise on
float arrays through :func:`elliptic_KE_kprime`, which takes the
complementary modulus k' = sqrt(1 - kappa**2) that seeds the iteration.
"""

import math

import mpmath
import numpy as np


class EllipticDomainError(ValueError):
    """Raised when K(kappa) is requested at or beyond the kappa = 1 pole."""


def _pi_like(x):
    return mpmath.pi if isinstance(x, mpmath.mpf) else math.pi


def _eps_like(x):
    # a few ulps: c stagnates at the rounding level once a and b have
    # converged, so a sub-ulp threshold would never be reached
    return 4 * mpmath.mp.eps if isinstance(x, mpmath.mpf) else 1e-15


def elliptic_KE_kprime(kprime):
    """Return (K, E) from the complementary modulus 0 < k' <= 1.

    Accepts a float or mpf scalar, or a float ndarray (element-wise).
    Taking k' rather than kappa keeps full relative accuracy as
    kappa -> 1, where 1 - kappa**2 cannot be recovered from a rounded
    kappa.  Array elements leave the iteration as they converge, so an
    element's result does not depend on the rest of the array.
    """
    vector = isinstance(kprime, np.ndarray)
    if vector:
        shape, kprime = kprime.shape, kprime.ravel()
        a_out, csum_out = np.empty_like(kprime), np.empty_like(kprime)
        live = np.arange(kprime.size)
    a, b = kprime * 0 + 1, kprime
    # E via the classical c_n sum: E = K * (1 - sum 2^(n-1) c_n^2), c_0 = kappa.
    csum = (1 - b) * (1 + b) / 2
    power = 1
    eps = _eps_like(kprime)
    for _ in range(200):
        a, b, c = (a + b) / 2, (a * b) ** 0.5, (a - b) / 2
        power *= 2
        csum = csum + power / 2 * (c * c)
        done = c <= eps * a
        if not vector:
            if done:
                break
        elif np.count_nonzero(done):
            a_out[live[done]], csum_out[live[done]] = a[done], csum[done]
            live, a, b, csum = live[~done], a[~done], b[~done], csum[~done]
            if not live.size:
                a, csum = a_out.reshape(shape), csum_out.reshape(shape)
                break
    K = _pi_like(kprime) / (2 * a)
    return K, K * (1 - csum)


def elliptic_KE(kappa):
    """Return (K(kappa), E(kappa)) for modulus 0 <= kappa <= 1.

    K diverges at kappa = 1; requesting it raises
    :class:`EllipticDomainError`.  E(1) = 1 is returned exactly.
    """
    if kappa < 0 or kappa > 1:
        raise EllipticDomainError(f"modulus must lie in [0, 1], got {kappa}")
    if kappa == 1:
        raise EllipticDomainError("K(kappa) diverges at kappa = 1")
    return elliptic_KE_kprime((1 - kappa * kappa) ** 0.5)


def elliptic_K(kappa):
    """Complete elliptic integral of the first kind, modulus convention."""
    return elliptic_KE(kappa)[0]


def elliptic_E(kappa):
    """Complete elliptic integral of the second kind, modulus convention."""
    if kappa == 1:
        return kappa * 0 + 1
    return elliptic_KE(kappa)[1]
