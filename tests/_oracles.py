"""Independent numerical oracles used by the test suite.

These deliberately avoid the code under test: the lattice integrals
are done by adaptive-refinement trapezoid quadrature in extended
precision, or by their closed forms in mpmath's elliptic integrals at
40 or more digits; the elliptic reference is its defining power series,
curvatures come from Richardson-extrapolated finite differences, and
the light shift is built from reduced dipole matrix elements.  The pair
determinants and the band-edge binding condition are written out by
hand; they take M_nl from ``hhsim.greens`` and the band-edge C_nl
limits from ``greens_C_threshold`` below, and check how ``hhsim.pairs``
assembles them; the orbit determinant is also taken the general way,
by a matrix product and an LU determinant per energy.  The binding
thresholds are the hand-derived rational forms in GAMMA1-GAMMA3, which
``hhsim.pairs`` reads off its orbit table instead.  The Phi map is
summed by a scalar double loop over
the scalar coupling constant, and a phase-map point is computed alone
in scalar floats, its pair mass written out in SI units; the Delta T
= 0 contour is traced by a loop over cells and their edges.  The ED
symmetry sectors are counted by enumerating orbits of the torus, and
the full-space ED Hamiltonians are written out hop by hop.  Roots are
polished by plain bisection on the brackets of the root finder's scan.
"""

import math

import mpmath
import numpy as np
import scipy.sparse as sp

from hhsim.constants import HBAR, HZ_TO_NK, H_PLANCK, K_B, M_K40, nk_to_hz
from hhsim.greens import GAMMA1, GAMMA2, GAMMA3, SUPPORTED_NL, greens_M_table
from hhsim.hubbard import hopping_t, recoil_energy
from hhsim.orbits import BindingThreshold, _check_couplings


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


def bisection_roots(f, xs, vals, tol):
    """Ascending roots of f by bisection, with the arguments of
    ``pairs._scan_roots``: the sign changes of f's values vals on the
    monotone grid xs bracket the roots, a grid point where vals is zero
    is a root, and every bracket is halved until it is at most tol wide or
    its ends are adjacent floats.  A root is the midpoint of its final
    bracket.
    """
    roots = list(xs[:-1][vals[:-1] == 0.0])
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        a, b, fa = xs[i], xs[i + 1], vals[i]
        while abs(b - a) > tol:
            m = 0.5 * (a + b)
            if m in (a, b):
                break
            fm = f(np.array([m]))[0]
            if fm == 0.0:
                a = b = m
            elif (fm < 0.0) == (fa < 0.0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return sorted(float(r) for r in roots)


def orbit_det_lu(M, counts, potentials):
    """det(I + sum_k M_k N_k diag(v)) at every energy of the Green's table
    M (shape (6,) + energies), with N = counts (shape (6, n, n)): one
    matrix product for the sum and an LU determinant per energy."""
    k, n = counts.shape[:2]
    A = (M.reshape(k, -1).T @ counts.reshape(k, n * n)).reshape(M.shape[1:] + (n, n))
    return np.linalg.det(A * potentials + np.eye(n))


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


def threshold_diagonal_closed_form(V, t_prime):
    """Critical U below which the single-diagonal model binds a pair.

    U_cr = -2 V t' / (t' + 4V/3pi).  The denominator vanishes at
    V = -3 pi t'/4, reported via the pole flag.
    """
    _check_couplings(t_prime, V=V)
    denom = t_prime + 4.0 * V / (3.0 * math.pi)
    if denom == 0.0:
        return BindingThreshold(U_cr=math.inf, pole=True)
    return BindingThreshold(U_cr=-2.0 * V * t_prime / denom)


def threshold_full_closed_form(V1, V2, t_prime):
    """Critical U for the both-diagonals model.

    U_cr = -(g3 t' V1 V2 + 4 t'^2 (V1 + V2))
           / (g1 V1 V2 + t' V1 / 2 + g2 t' V2 + t'^2).
    """
    _check_couplings(t_prime, V1=V1, V2=V2)
    tp = t_prime
    num = GAMMA3 * tp * V1 * V2 + 4.0 * tp * tp * (V1 + V2)
    den = GAMMA1 * V1 * V2 + 0.5 * tp * V1 + GAMMA2 * tp * V2 + tp * tp
    if den == 0.0:
        return BindingThreshold(U_cr=math.inf, pole=True)
    return BindingThreshold(U_cr=-num / den)


def coupling_f_scalar(fermion_site, phonon_site, polarization, spec):
    """Fermion-phonon coupling constant f (MHz/um) of one site pair.

    f = V_tilde * eta * (zeta . rhat) |r|^(eta-1) / (|r|^eta + r_c^eta)^2
    with r = fermion - phonon; odd under r -> -r and zero for
    polarization perpendicular to the separation.
    """
    r_vec = np.asarray(fermion_site, dtype=float) - np.asarray(phonon_site, dtype=float)
    r = np.linalg.norm(r_vec)
    if r == 0.0:
        raise ValueError("fermion and phonon sites coincide; unit vector undefined")
    zeta = np.asarray(polarization, dtype=float)
    eta = spec.eta
    return spec.V_tilde * eta * float(zeta @ r_vec) / r * r ** (eta - 1) / (r**eta + spec.r_c**eta) ** 2


def phi_sum_scalar(pattern, spec, a, displacements):
    """Unnormalized Phi at each displacement (n, l), by the double loop
    over sites and polarizations of products of scalar couplings."""
    origin = np.zeros(2)
    phi = {}
    for (n, l) in displacements:
        other = np.array([n * a, l * a])
        total = 0.0
        for center, zetas in zip(pattern.centers, pattern.polarizations):
            for zeta in zetas:
                total += (coupling_f_scalar(origin, center, zeta, spec)
                          * coupling_f_scalar(other, center, zeta, spec))
        phi[(n, l)] = total
    return phi


def phase_point_scalar(V0, lam, T, family):
    """One point of the phase map: (T_pair, T_bkt, label), in nK.

    T_pair = max(0, 2 W lam - 8 t'), m** = hbar^2 sqrt((W lam)^2 + 2 t'^2)
    / (t'^2 a^2) in SI, T_BKT = 4 pi hbar^2 n_B / (a^2 k_B 2 m** lnln(4/n_B)),
    and the label from strict inequalities, ties falling to Normal.
    """
    t = hopping_t(nk_to_hz(V0), recoil_energy(family.a, M_K40))
    W = 4.0 * t
    hbar_omega = family.omega_ratio * t
    t_prime = t * math.exp(-W * lam * (1.0 - family.phi_nn_ratio) / hbar_omega)
    T_pair = max(0.0, (2.0 * W * lam - 8.0 * t_prime) * HZ_TO_NK)
    W_J, tp_J, a_m = W * H_PLANCK, t_prime * H_PLANCK, family.a * 1e-6
    m2 = HBAR**2 * math.sqrt((W_J * lam) ** 2 + 2.0 * tp_J**2) / (tp_J**2 * a_m**2)
    lnln = math.log(math.log(4.0 / family.n_B))
    T_bkt = 4.0 * math.pi * HBAR**2 * family.n_B / (a_m**2 * K_B * 2.0 * m2 * lnln) * 1e9
    if T < T_bkt:
        label = "BKTRegime" if T_pair < T_bkt else "BKTCondensedPairs"
    elif T_bkt < T < T_pair:
        label = "PreformedPairs"
    else:
        label = "Normal"
    return T_pair, T_bkt, label



def delta_t_contour_loop(V0_axis, lam_axis, dT):
    """The Delta T = 0 contour traced cell by cell and edge by edge in
    Python floats: a list of ((x1, y1), (x2, y2)) segments, cell order i
    outer, between the first two sign-change crossings of each cell."""
    xs, ys = np.asarray(V0_axis).tolist(), np.asarray(lam_axis).tolist()
    f = np.asarray(dT).tolist()
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            vals = [f[x][y] for x, y in corners]
            crossings = []
            for k in range(4):
                (x1, y1), (x2, y2) = corners[k], corners[(k + 1) % 4]
                v1, v2 = vals[k], vals[(k + 1) % 4]
                if (v1 < 0.0 <= v2) or (v2 < 0.0 <= v1):
                    crossings.append((xs[x1] + (xs[x2] - xs[x1]) * v1 / (v1 - v2),
                                      ys[y1] + (ys[y2] - ys[y1]) * v1 / (v1 - v2)))
            if len(crossings) >= 2:
                segments.append((crossings[0], crossings[1]))
    return segments


# the square lattice's point group, written out as maps of (x, y)
_SQUARE_SYMMETRIES = (lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y),
                      lambda x, y: (y, -x), lambda x, y: (x, -y), lambda x, y: (-x, y),
                      lambda x, y: (y, x), lambda x, y: (-y, -x))


def symmetric_orbits(L, shells):
    """The square-lattice symmetries that map every set of ``shells`` onto
    itself, and the orbits of the L x L torus under them (a set of
    frozensets of (x mod L, y mod L)), counted by brute force."""
    ops = [g for g in _SQUARE_SYMMETRIES if all({g(*d) for d in s} == set(s) for s in shells)]
    orbits = {frozenset((gx % L, gy % L) for gx, gy in (g(x, y) for g in ops))
              for x in range(L) for y in range(L)}
    return ops, orbits


def pair_orbits(L, ops):
    """Orbits of the L^4 two-particle states (index (x1*L + y1)*L^2 + x2*L + y2)
    under particle exchange and the maps ops (the identity among them)
    acting on both coordinates about site 0, as a set of frozensets."""
    n = L * L
    orbits = set()
    for s1 in range(n):
        for s2 in range(n):
            images = [(g(*divmod(s1, L)), g(*divmod(s2, L))) for g in ops]
            sites = [((x1 % L) * L + y1 % L, (x2 % L) * L + y2 % L)
                     for (x1, y1), (x2, y2) in images]
            orbits.add(frozenset(i * n + j for a, b in sites for i, j in ((a, b), (b, a))))
    return orbits


def orbit_basis(orbits, n):
    """Dense n x len(orbits) basis: one column per orbit (a set of indices),
    1/sqrt(|orbit|) on its members, ordered by the orbit's smallest index."""
    P = np.zeros((n, len(orbits)))
    for k, orbit in enumerate(sorted(orbits, key=min)):
        P[sorted(orbit), k] = 1.0 / math.sqrt(len(orbit))
    return P


def _torus_hops(L):
    """Periodic nearest-neighbor adjacency of the L x L torus (site x*L + y)."""
    rows, cols = [], []
    for x in range(L):
        for y in range(L):
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rows.append(x * L + y)
                cols.append(((x + dx) % L) * L + (y + dy) % L)
    return sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(L * L, L * L)).tocsr()


def relative_hamiltonian(model, L):
    """Sparse H on the L x L relative coordinate at zero total momentum.

    Kinetic term: hops of amplitude -2t' to the four neighbors (each
    particle's hopping adds at K = 0); potential: the shells of
    ``model.shells()`` on the diagonal.
    """
    pot = np.zeros(L * L)
    for (dx, dy), v in model.shells().items():
        pot[(dx % L) * L + dy % L] = v
    return (-2.0 * model.t_prime * _torus_hops(L) + sp.diags(pot)).tocsr()


def pair_hamiltonian(model, L):
    """T x 1 + 1 x T + V(r1 - r2) on the L^4 two-particle states (index as
    in ``pair_orbits``), T = -t' times the torus adjacency."""
    n = L * L
    T = -model.t_prime * _torus_hops(L)
    one = sp.identity(n, format="csr")
    shells = {(dx % L, dy % L): v for (dx, dy), v in model.shells().items()}
    pot = [shells.get(((x1 - x2) % L, (y1 - y2) % L), 0.0)
           for x1 in range(L) for y1 in range(L) for x2 in range(L) for y2 in range(L)]
    return (sp.kron(T, one) + sp.kron(one, T) + sp.diags(pot)).tocsr()
