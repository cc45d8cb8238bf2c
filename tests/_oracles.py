"""Independent numerical oracles used by the test suite.

These deliberately avoid the code under test: the lattice integrals
are done by adaptive-refinement trapezoid quadrature in extended
precision, or by their closed forms in mpmath's elliptic integrals at
40 or more digits; the elliptic reference is its defining power series,
and curvatures come from Richardson-extrapolated finite differences.
"""

import math

import mpmath
import numpy as np


def quad_M(E, t_prime, rel_tol=1e-10, n_start=64, n_max=16384):
    """All six M_nl by 2D trapezoid quadrature of the defining integral.

    The integrand is smooth and periodic on the Brillouin zone, so the
    uniform trapezoid rule converges geometrically; the grid is doubled
    until every integral is stable to rel_tol.  Evaluated in
    numpy.longdouble to keep roundoff below the target.
    """
    absE = np.longdouble(abs(E))
    tp = np.longdouble(t_prime)
    pairs_nl = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    prev = None
    n = n_start
    while n <= n_max:
        q = (np.arange(n, dtype=np.longdouble) * (2 * np.longdouble(np.pi)) / n) - np.longdouble(np.pi)
        cos_q = np.cos(q)
        cos_2q = np.cos(2 * q)
        res = {nl: np.longdouble(0.0) for nl in pairs_nl}
        # row-wise accumulation keeps memory at O(n)
        for i in range(n):
            denom = absE - 4 * tp * (cos_q[i] + cos_q)
            inv = 1.0 / denom
            s0 = inv.sum()
            s1 = (cos_q * inv).sum()
            s2 = (cos_2q * inv).sum()
            res[(0, 0)] += s0
            res[(1, 0)] += cos_q[i] * s0
            res[(1, 1)] += cos_q[i] * s1
            res[(2, 0)] += cos_2q[i] * s0
            res[(2, 1)] += cos_2q[i] * s1
            res[(2, 2)] += cos_2q[i] * s2
        vals = {nl: float(res[nl] / (n * n)) for nl in pairs_nl}
        if prev is not None:
            if all(abs(vals[nl] - prev[nl]) <= rel_tol * abs(vals[nl]) for nl in pairs_nl):
                return vals
        prev = vals
        n *= 2
    raise RuntimeError("quadrature did not converge")


def closed_form_M(E, t_prime, dps=40):
    """All six M_nl from their closed forms in K and E, in mpmath.

    The working precision is raised by 8 digits for each decade by which
    the modulus kappa falls below 1, because the K and E terms of M22
    cancel to O(kappa^8) of their size.  The modulus comes from the exact float E, so
    the band edge needs no special care.
    """
    absE, Wp = mpmath.mpf(abs(E)), 4 * mpmath.mpf(t_prime)
    extra = max(0, math.ceil(-math.log10(8.0 * t_prime / abs(E))))
    with mpmath.workdps(dps + 8 * extra):
        m = (2 * Wp / absE) ** 2
        K, Eint, pi = mpmath.ellipk(m), mpmath.ellipe(m), mpmath.pi
        M = {
            (0, 0): 2 / (pi * absE) * K,
            (1, 0): K / (pi * Wp) - 1 / (2 * Wp),
            (1, 1): absE / (2 * pi * Wp**2) * ((2 - m) * K - 2 * Eint),
            (2, 0): 2 / (pi * absE) * K + absE / Wp**2 * (2 * Eint / pi - 1),
            (2, 1): ((absE**2 / (pi * Wp**3) - 3 / (pi * Wp)) * K
                     - absE**2 / (pi * Wp**3) * Eint + 1 / (2 * Wp)),
            (2, 2): ((2 / (pi * absE) - 8 * absE / (3 * pi * Wp**2)
                      + 2 * absE**3 / (3 * pi * Wp**4)) * K
                     + (4 * absE / (3 * pi * Wp**2) - 2 * absE**3 / (3 * pi * Wp**4)) * Eint),
        }
        return {nl: float(v) for nl, v in M.items()}


def series_elliptic_K(kappa, dps=50):
    """K(kappa) from the hypergeometric power series in m = kappa^2."""
    with mpmath.workdps(dps):
        m = mpmath.mpf(kappa) ** 2
        total = mpmath.mpf(0)
        term = mpmath.mpf(1)
        k = 0
        while True:
            contrib = term**2 * m**k
            total += contrib
            if contrib < mpmath.mpf(10) ** (-dps) and k > 4:
                break
            k += 1
            term *= mpmath.mpf(2 * k - 1) / (2 * k)
        return float(mpmath.pi / 2 * total)


def series_elliptic_E(kappa, dps=50):
    """E(kappa) from its power series in m = kappa^2."""
    with mpmath.workdps(dps):
        m = mpmath.mpf(kappa) ** 2
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        k = 0
        while True:
            k += 1
            term *= mpmath.mpf(2 * k - 1) / (2 * k)
            contrib = term**2 * m**k / (2 * k - 1)
            total -= contrib
            if contrib < mpmath.mpf(10) ** (-dps) and k > 4:
                break
        return float(mpmath.pi / 2 * total)


def fd_second_derivative(f, x0, h):
    """Richardson-extrapolated central second derivative."""
    def d2(step):
        return (f(x0 + step) - 2.0 * f(x0) + f(x0 - step)) / step**2
    return (4.0 * d2(h / 2.0) - d2(h)) / 3.0


def fd_hessian_2d(f, x0, y0, h):
    """2x2 Hessian by central differences with Richardson extrapolation."""
    def hess(s):
        dxx = (f(x0 + s, y0) - 2 * f(x0, y0) + f(x0 - s, y0)) / s**2
        dyy = (f(x0, y0 + s) - 2 * f(x0, y0) + f(x0, y0 - s)) / s**2
        dxy = (f(x0 + s, y0 + s) - f(x0 + s, y0 - s)
               - f(x0 - s, y0 + s) + f(x0 - s, y0 - s)) / (4 * s**2)
        return np.array([[dxx, dxy], [dxy, dyy]])
    return (4.0 * hess(h / 2.0) - hess(h)) / 3.0


def two_spot_soft_curvature(V0, w, D, x):
    """Analytic second x-derivative of the normalized two-spot potential.

    V(x) = -(V0/2) [exp(-2(x-D)^2/w^2) + exp(-2(x+D)^2/w^2)];
    V''(x) = -(V0/2) sum_s (16 (x+sD)^2/w^4 - 4/w^2) exp(-2(x+sD)^2/w^2).
    """
    total = 0.0
    for s in (-1.0, 1.0):
        u = x + s * D
        total += (16.0 * u * u / w**4 - 4.0 / w**2) * math.exp(-2.0 * u * u / w**2)
    return -(V0 / 2.0) * total
