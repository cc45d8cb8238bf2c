"""Complete elliptic integrals K and E via the arithmetic-geometric mean.

Convention: the one entry, :func:`elliptic_KE_kprime`, takes the
*complementary modulus* k' = sqrt(1 - kappa**2) that seeds the
iteration, not the modulus kappa and not the parameter m = kappa**2
(scipy.special.ellipk and mpmath.ellipk take m).  Near the band edge,
kappa -> 1, a rounded kappa has lost 1 - kappa**2; k' keeps it.

The AGM iteration converges quadratically; the result is accurate to
better than 1e-12 relative.  It runs element-wise on float arrays.
"""

import math

import numpy as np


class EllipticDomainError(ValueError):
    """Raised for a complementary modulus outside (0, 1]: K diverges at k' = 0."""


def elliptic_KE_kprime(kprime):
    """Return (K, E) from the complementary modulus 0 < k' <= 1.

    Accepts a float or a float array (element-wise; a float gives
    floats).  Taking k' rather than kappa keeps full relative accuracy
    as kappa -> 1, where 1 - kappa**2 cannot be recovered from a rounded
    kappa.  Elements leave the iteration as they converge, so an
    element's result does not depend on the rest of the array.
    """
    kprime = np.asarray(kprime, dtype=float)
    inside = (kprime > 0) & (kprime <= 1)   # NaN fails both: every element converges
    if np.count_nonzero(inside) != kprime.size:
        raise EllipticDomainError(
            f"complementary modulus must lie in (0, 1], got {kprime[~inside].flat[0]}")
    shape, b = kprime.shape, kprime.ravel()
    a_out, csum_out = np.empty_like(b), np.empty_like(b)
    live, a = np.arange(b.size), 1.0
    # E via the classical c_n sum: E = K * (1 - sum 2^(n-1) c_n^2), c_0 = kappa.
    csum = (1 - b) * (1 + b) / 2
    power = 1
    while live.size:
        a, b, c = (a + b) / 2, np.sqrt(a * b), (a - b) / 2
        power *= 2
        csum = csum + power / 2 * (c * c)
        # a few ulps: c stagnates at the rounding level once a and b have
        # converged, so a sub-ulp threshold would never be reached
        done = c <= 1e-15 * a
        if np.count_nonzero(done):
            a_out[live[done]], csum_out[live[done]] = a[done], csum[done]
            live, a, b, csum = live[~done], a[~done], b[~done], csum[~done]
    K = math.pi / (2 * a_out.reshape(shape))
    return K[()], (K * (1 - csum_out.reshape(shape)))[()]

