"""Independent numerical oracles used by the test suite.

These deliberately avoid the code under test: the lattice integrals
are done by adaptive-refinement trapezoid quadrature in extended
precision, or by their closed forms in mpmath's elliptic integrals at
40 or more digits; the elliptic reference is its defining power series,
curvatures come from Richardson-extrapolated finite differences, and
the light shift is built from reduced dipole matrix elements.  The pair
determinants and the band-edge binding condition are written out by
hand; they take M_nl and the C_nl limits from ``hhsim.greens`` and
check how ``hhsim.pairs`` assembles them.
"""

import math

import mpmath
import numpy as np

from hhsim.greens import SUPPORTED_NL, greens_C_threshold, greens_M_table


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


def dipole_light_shift(lambda_D1, lambda_D2, Gamma_1, Gamma_2, wavelength,
                       gF_mF_P=0.0, dps=40):
    """Light shift of an alkali ground state, up to a positive constant.

    Written from the reduced dipole matrix elements of the two lines,
    |<J||d||J'>|^2 proportional to (2J'+1) Gamma_i / omega_i^3 with
    2J'+1 = 2 (D1) and 4 (D2), and the full two-pole response of each:
        U = -sum_i |d_i|^2 [ omega_i/(omega_i^2 - omega^2)
                             + c_i gF_mF_P omega/(omega_i^2 - omega^2) ],
    where c_1 = -1 and c_2 = +1/2 are the vector-to-scalar ratios of the
    D1 and D2 lines (Grimm et al., Adv. At. Mol. Opt. Phys. 42, 95
    (2000)); the vector part cancels far from both lines.  Saturation
    intensities do not appear.  Frequencies are taken as vacuum wavenumbers 1/lambda:
    the shift is homogeneous in the frequencies, so the unit (and the
    speed of light) only sets the constant.
    """
    with mpmath.workdps(dps):
        w = 1 / mpmath.mpf(wavelength)
        total = mpmath.mpf(0)
        for lam, gamma, deg, c in ((lambda_D1, Gamma_1, 2, -1),
                                   (lambda_D2, Gamma_2, 4, 0.5)):
            wi = 1 / mpmath.mpf(lam)
            strength = deg * mpmath.mpf(gamma) / wi**3
            total -= strength * (wi + c * mpmath.mpf(gF_mF_P) * w) / (wi**2 - w**2)
        return total


def dipole_tune_out(lambda_D1, lambda_D2, Gamma_1, Gamma_2, dps=40):
    """Scalar zero of `dipole_light_shift` between the D2 and D1 lines (nm).

    Plain bisection in extended precision, 100 halvings of a bracket a
    few nm wide.
    """
    with mpmath.workdps(dps):
        def f(lam):
            return dipole_light_shift(lambda_D1, lambda_D2, Gamma_1, Gamma_2,
                                      lam, dps=dps)
        margin = mpmath.mpf(lambda_D1 - lambda_D2) / 1000
        lo, hi = mpmath.mpf(lambda_D2) + margin, mpmath.mpf(lambda_D1) - margin
        f_lo = f(lo)
        if f_lo * f(hi) >= 0:
            raise ValueError("no sign change between the lines")
        for _ in range(100):
            mid = (lo + hi) / 2
            f_mid = f(mid)
            if f_lo * f_mid > 0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _M_dict(E, t_prime):
    return dict(zip(SUPPORTED_NL, greens_M_table(E, t_prime)))


def det_diagonal_by_hand(E, U, V, t_prime):
    """2x2 determinant of the single-diagonal model, expanded by hand."""
    M = _M_dict(E, t_prime)
    a11 = U * M[(0, 0)] + 1.0
    a12 = 2.0 * V * M[(1, 1)]
    a21 = U * M[(1, 1)]
    a22 = V * (M[(0, 0)] + M[(2, 2)]) + 1.0
    return a11 * a22 - a12 * a21


def det_full_by_hand(E, U, V1, V2, t_prime):
    """3x3 determinant of the both-diagonals model, expanded by hand.

    Rows and columns are the (on-site, NN, NNN) amplitude classes; the
    NN and NNN rows are scaled by 2 and their columns by 1/2, which
    leaves the determinant unchanged.
    """
    M = _M_dict(E, t_prime)
    m00, m10, m11 = M[(0, 0)], M[(1, 0)], M[(1, 1)]
    m20, m21, m22 = M[(2, 0)], M[(2, 1)], M[(2, 2)]
    a = [
        [U * m00 + 1.0, 2.0 * V1 * m10, 2.0 * V2 * m11],
        [2.0 * U * m10, V1 * (m00 + m20 + 2.0 * m11) + 1.0, 2.0 * V2 * (m10 + m21)],
        [2.0 * U * m11, 2.0 * V1 * (m10 + m21), V2 * (m00 + m22 + 2.0 * m20) + 1.0],
    ]
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def binding_condition_full(U, V1, V2, t_prime):
    """Band-edge binding condition of the both-diagonals model, long form.

    Evaluates the E -> -8t' coefficient of the divergent M_00 directly
    from the threshold values of the C_nl differences.  Equal (to
    rounding) to the reduced form
    g1*U*V1*V2 + t'*U*V1/2 + g2*t'*U*V2 + g3*t'*V1*V2
    + t'^2*(U + 4V1 + 4V2); a pair binds when this expression is
    negative.
    """
    c10 = greens_C_threshold(1, 0, t_prime)
    c11 = greens_C_threshold(1, 1, t_prime)
    c20 = greens_C_threshold(2, 0, t_prime)
    c21 = greens_C_threshold(2, 1, t_prime)
    c22 = greens_C_threshold(2, 2, t_prime)
    return (
        (U + 4.0 * V1 + 4.0 * V2)
        + U * V1 * (8.0 * c10 - 2.0 * c11 - c20)
        + U * V2 * (8.0 * c11 - 2.0 * c20 - c22)
        + V1 * V2 * (16.0 * c10 + 16.0 * c21 - 8.0 * c11 - 12.0 * c20 - 4.0 * c22)
        + U * V1 * V2 * (
            2.0 * c20**2 - 4.0 * c10**2 - 32.0 * c11**2 - 4.0 * c21**2
            + 48.0 * c10 * c11 - 16.0 * c10 * c20 + 8.0 * c10 * c21
            - 4.0 * c11 * c20 - 8.0 * c10 * c22 + 16.0 * c11 * c21
            + 2.0 * c11 * c22 + c20 * c22
        )
    )
