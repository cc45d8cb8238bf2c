"""Two-body bound states of the effective UV models.

The two interaction layouts, ``diagonal`` and ``full``, are the orbit
tables of ``orbits``.  Pair energies are the roots of det(I + G V) over
the symmetric amplitudes, one row and column per orbit, built in float
over arrays of energies from the count table ``orbits._COUNTS`` and the
Green's table of ``greens``.  E/t' depends only on the couplings over
t', so pairs are solved in units of t', on one scan table that reaches
every model in the coupling range of ``orbits``.  The oracle reads the
same orbits through ``UVModel.shells()`` and ``UVModel.point_group()``.
The binding thresholds are read off the same table at the band edge, in
``orbits``, which loads no numpy.  This module also carries the
Lang--Firsov parameter maps that turn a phonon-coupled model into a UV
model, the poles of the physical case's threshold, the strong-coupling
pair dispersion, and the pair effective mass.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import require_finite
from .greens import greens_M_table
from .orbits import _COUNTS as _INT_COUNTS
from .orbits import (_COUPLING_RANGE, _ORBITS, _POINT_GROUPS, _check_couplings, _cofactor_det,
                     threshold_physical)
# re-bound for a reader outside the package: the pair-scan set-up of
# benchmarks/workload.py places its models near pairs.threshold_diagonal/full's U_cr
from .orbits import threshold_diagonal, threshold_full

_EDGE_EPS = 1e-10   # offset of the search bracket from the band edge, in t'
_ROOT_TOL = 1e-12   # root bracket width in energy, in t'
_CLUSTER_SIDE = 22  # polish points on either side of an estimate c: c +/- (unit/4) 4^j, j < 22
_SCAN_STEP = 0.1    # sign-scan grid step in s = ln(|E|/8t' - 1)
_TABLE_CHUNK = 128  # scan points per Green's table while _SCAN_M is built: bounds its temporaries
_POLE_SCAN = (0.0, 2.0, 4001)  # lam range and grid points of the pole scan
_POLE_TOL = 1e-12   # root bracket width of a pole, in lam
# the polish cluster's offsets from its estimate c, in units of the cluster's unit
_CLUSTER = np.concatenate([-0.25 * 4.0 ** np.arange(_CLUSTER_SIDE - 1, -1, -1), [0.0],
                           0.25 * 4.0 ** np.arange(_CLUSTER_SIDE)])
_STENCIL_POINTS = 12   # grid points of the first estimate's interpolant
_NEWTON_STEPS = 8   # at most, in the stencil's index space
_NEWTON_TOL = 1e-9  # a Newton step this short leaves the next one at rounding level

# the count table N[k, i, j] of each variant as an array, for the determinant's einsum
_COUNTS = {variant: np.array(N) for variant, N in _INT_COUNTS.items()}


@dataclass
class UVModel:
    """Parameters of an effective two-body UV model.

    variant "diagonal" carries its V in V2 (the two +/-(x+y) neighbors);
    variant "full" uses V1 (four NN) and V2 (four NNN).  |U|, |V1| and |V2|
    may be at most 2^128 t', and the search depth |U| + 8|V1| + 8|V2| + 12t'
    must be finite, so that every scan point x (in units of t') of
    ``pair_energies`` gives a finite energy t' x.
    """

    t_prime: float
    U: float
    V1: float = 0.0
    V2: float = 0.0
    variant: str = "full"

    def __post_init__(self):
        _check_couplings(self.t_prime, U=self.U, V1=self.V1, V2=self.V2)
        if self.variant not in _ORBITS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "diagonal" and self.V1 != 0.0:
            raise ValueError(f"the diagonal variant has no V1 (its V is V2), got V1 = {self.V1}")
        # couplings in range can still overflow t' times the scan grid of a huge t'
        require_finite(**{"search depth |U| + 8|V1| + 8|V2| + 12t'": _search_bracket_depth(self)})

    @classmethod
    def diagonal(cls, U, V, t_prime):
        return cls(t_prime=t_prime, U=U, V1=0.0, V2=V, variant="diagonal")

    @classmethod
    def full(cls, U, V1, V2, t_prime):
        return cls(t_prime=t_prime, U=U, V1=V1, V2=V2, variant="full")

    def shells(self):
        """Relative displacement (dx, dy) -> potential, on-site U included.

        Read from the orbit table that ``det_diagonal`` and ``det_full``
        are built from.
        """
        return {d: getattr(self, field) for field, members in _ORBITS[self.variant] for d in members}

    def point_group(self):
        """The operations (a, b, c, d), (x, y) -> (ax + by, cx + dy), of the
        square lattice's point group that map every orbit onto itself: 8 for
        ``full``, 4 for ``diagonal``.

        Read from the orbit table, not from the couplings, so a zero V
        changes nothing.
        """
        return _POINT_GROUPS[self.variant]


@dataclass
class PairState:
    """A pair energy; its index in the ascending list that holds it is its branch."""

    E: float


@dataclass
class LFParams:
    """Inputs of the Lang--Firsov parameter map."""

    t_bare: float
    lam: float
    hbar_omega_ph: float = 1.0
    phi_nn_ratio: float = 0.0
    phi_nnn_ratio: float = 0.0
    U_fesh: float = 0.0


def _orbit_det(M, variant, potentials):
    """det(I + sum_k M_k N_k diag(v)) over the orbits of the variant, at
    every energy of the Green's table M (shape (6,) + energies).

    One ``einsum``, in numpy's own loops, builds the matrix with the
    energies trailing, shape (n, n) + energies; the determinant is the
    explicit 2x2 (``diagonal``) or 3x3 (``full``) cofactor expansion
    along the first row (``orbits._cofactor_det``).  Neither makes a BLAS
    or LAPACK call.
    """
    N = _COUNTS[variant]
    n = N.shape[1]
    # a C-ordered M gives a C-ordered B, so the reshape below is a view
    M = np.ascontiguousarray(M)
    B = np.einsum("kij,k...->ij...", N * potentials, M)
    B.reshape((n * n,) + M.shape[1:])[::n + 1] += 1   # the identity; an int keeps int tables exact
    return _cofactor_det(B)


def det_diagonal(E, U, V, t_prime):
    """Determinant whose roots below -8t' are the diagonal model's pair energies.

    E may be a scalar or an array of energies.
    """
    return _orbit_det(greens_M_table(E, t_prime), "diagonal", (U, V))


def det_full(E, U, V1, V2, t_prime):
    """Determinant whose roots below -8t' are the full model's pair energies.

    E may be a scalar or an array of energies.
    """
    return _orbit_det(greens_M_table(E, t_prime), "full", (U, V1, V2))


def _search_bracket_depth(model):
    return abs(model.U) + 8.0 * abs(model.V1) + 8.0 * abs(model.V2) + 8.0 * model.t_prime + 4.0 * model.t_prime


def _scan_grid(j):
    """s and E/t' of the sign-scan grid points j: s = ln(_EDGE_EPS/8) + j _SCAN_STEP."""
    s = math.log(_EDGE_EPS / 8.0) + _SCAN_STEP * j
    return s, -8.0 * (1.0 + np.exp(s))


# the deepest search bracket in range, every coupling at 2^128 t', in s: 89.48
_S_DEEPEST = math.log(_search_bracket_depth(UVModel.full(*(_COUPLING_RANGE,) * 3, 1.0)) / 8.0 - 1.0)
# s, E/t' and the six M_nl at t' = 1 of the scan grid from the band edge to one
# step past _S_DEEPEST, 1,148 points, built once: every model's scan reads them
_SCAN_S, _SCAN_X = _scan_grid(np.arange(
    math.ceil((_S_DEEPEST - math.log(_EDGE_EPS / 8.0)) / _SCAN_STEP) + 2))
_SCAN_M = np.concatenate([greens_M_table(_SCAN_X[i:i + _TABLE_CHUNK], 1.0)
                          for i in range(0, _SCAN_X.size, _TABLE_CHUNK)], axis=1)


@functools.cache
def _stencil_weights(m):
    """Barycentric weights (-1)^j C(m - 1, j) of the degree-(m - 1)
    interpolant on m equispaced points (Berrut and Trefethen, SIAM Rev.
    46, 501 (2004)), as floats."""
    return tuple(float((-1) ** j * math.comb(m - 1, j)) for j in range(m))


def _stencil_zeros(xs, vals, k):
    """First estimate of the root in each scan bracket [xs[k], xs[k+1]],
    a list of floats.

    In index space t, vals on the 12 grid points j around the bracket (all
    of them on a shorter grid) define the barycentric interpolant
    p(t) = N/D, N = sum_j q_j vals_j, D = sum_j q_j, q_j = w_j/(t - j).
    Newton steps on p start from the bracket's linear zero
    i + vals_k/(vals_k - vals_{k+1}), which lies inside it, and stop at
    convergence; the same interpolant of xs maps the zero t to x.  Each
    bracket's steps run in Python floats on its own 12 values, its sums
    taken left to right, so no bracket's estimate depends on another's.
    A step that leaves the open bracket lands on or past a grid point,
    where the interpolant is not finite: that bracket has no estimate
    (nan).  Raises no floating-point warning and divides by no zero.
    """
    n = xs.size
    m = min(n, _STENCIL_POINTS)
    w = _stencil_weights(m)
    nodes = range(m)
    estimates = []
    for k in map(int, k):
        lo = min(max(k - (m // 2 - 1), 0), n - m)
        i = k - lo   # the bracket is [i, i + 1] in the stencil's index t
        F = vals[lo:lo + m].tolist()
        t = i + F[i] / (F[i] - F[i + 1])   # the linear zero, inside the bracket
        for _ in range(_NEWTON_STEPS):
            if not i < t < i + 1:   # on a grid point, or nan
                break
            r = [1.0 / (t - j) for j in nodes]
            N = D = 0.0
            for wj, rj, Fj in zip(w, r, F):
                N += wj * rj * Fj
                D += wj * rj
            p = N / D if D else math.nan
            # p' = sum_j q_j r_j (p - F_j) / D, so the Newton step p/p' is N over that sum
            slope = 0.0
            for wj, rj, Fj in zip(w, r, F):
                slope += wj * rj * rj * (p - Fj)
            step = N / slope if slope else math.nan
            t -= step
            if not abs(step) > _NEWTON_TOL:   # converged, or a nan step
                break
        estimate = math.nan
        if i < t < i + 1:
            N = D = 0.0
            for wj, j, x in zip(w, nodes, xs[lo:lo + m].tolist()):
                N += wj / (t - j) * x
                D += wj / (t - j)
            if D:
                estimate = N / D
        estimates.append(estimate)
    return estimates


def _opposite_signs(a, b):
    """Where a and b are nonzero and of opposite sign.  Compares the signs
    alone: their product is exact, where a * b can overflow to inf (with a
    warning) or underflow to -0.0 (missing the sign change)."""
    return np.sign(a) * np.sign(b) < 0.0


def _nearest_change(X, F, c):
    """The ends (j, j + 1) of the sign change of F on the ascending row X
    nearest c, or (j, j) for an exact zero of F nearer than every sign
    change; the lowest j among equally near ones, and (0, 1) where F has
    neither.  A sign change is between two nonzero values of opposite
    sign, so nan is none."""
    best, ends = math.inf, (0, 1)
    for j in range(len(F) - 1):
        u, v = F[j], F[j + 1]
        if (u < 0.0 < v) or (v < 0.0 < u):
            d = max(X[j], c) - min(X[j + 1], c)
            if d < best:
                best, ends = d, (j, j + 1)
    if 0.0 in F:
        for j, v in enumerate(F):
            if v == 0.0 and abs(X[j] - c) < best:
                best, ends = abs(X[j] - c), (j, j)
    return ends


def _scan_roots(f, xs, vals, tol):
    """Ascending roots x of f, from its values vals on the monotone grid xs.

    f changes sign across each root.  The sign changes of vals bracket
    the roots; a grid point where vals is exactly zero is a root.  The
    caller samples the grid (``pair_energies`` from its Green's table
    ``_SCAN_M``), so f is called only to polish.  Each polishing step is
    one f call, in x, on a (brackets still wider than tol) x
    (2 _CLUSTER_SIDE + 1) array: per bracket an estimate c and the
    geometric cluster c +/- (unit/4) 4^j, all clipped to stay unit/4
    inside the bracket, or at its midpoint where it is narrower than
    unit/2 (as one across a power of two can be).  The unit is tol, or
    four float spacings of the bracket's outer end where that is wider,
    so that the points of a bracket a few floats wide stay distinct.
    Each bracket carries only its two ends and f there.  Its estimate,
    unit, cluster ends and next bracket are worked out in Python floats,
    one bracket at a time; only the cluster, f's one array call per step,
    is an array.  c is, on the first step, the zero of the degree-11
    interpolant of vals on the 12 grid points around the bracket
    (``_stencil_zeros``), else the secant point through the bracket's
    ends, else the midpoint; on every later step the secant point, else
    the midpoint; whichever first is finite and inside the bracket.
    Where the scan values place the root within tol of the first
    estimate (a sampled polynomial of degree <= 11 in the index, or the
    pair determinant, analytic in s), the first step closes the bracket.
    The new bracket is the sign change nearest c (``_nearest_change``); an
    exact zero closes it onto itself.  A step that does not halve a bracket is
    followed by one with c at the midpoint, so every two steps at least
    halve it.  A bracket also closes when its ends are adjacent floats,
    as it can where the float spacing exceeds tol (in the pair search,
    from |x| = |E|/t' between 4,096 and 8,192 on); such a root is within
    one float spacing.  A root is the midpoint of its final bracket,
    taken as a/2 + b/2, which cannot overflow.
    """
    exact = xs[:-1][vals[:-1] == 0.0]
    k = np.flatnonzero(_opposite_signs(vals[:-1], vals[1:]))
    if not k.size:
        return np.sort(exact)
    # each bracket's two ends, ascending in x, and f there: (a, b, fa, fb)
    ends = (k, k + 1) if xs[0] < xs[-1] else (k + 1, k)
    brackets = list(zip(*(xs[e].tolist() for e in ends), *(vals[e].tolist() for e in ends)))
    bisect = [False] * len(brackets)   # the last step did not halve the bracket
    live = [n for n, (a, b, _, _) in enumerate(brackets) if b - a > tol]
    # the first step's estimates; on every later step nan, which no bracket holds
    estimates = _stencil_zeros(xs, vals, k[live])
    while live:
        rows = []
        for n, e in zip(live, estimates):
            a, b, fa, fb = brackets[n]
            mid = 0.5 * a + 0.5 * b   # caps both cluster ends: every point lies strictly inside
            # fa and fb differ in sign, so only values near the float range
            # overflow the secant point to inf or nan
            secant = b - fb * (b - a) / (fb - fa)
            c = secant if a < secant < b and not bisect[n] else mid
            if a < e < b:
                c = e
            unit = max(tol, 4.0 * math.ulp(max(abs(a), abs(b))))
            first, last = min(a + 0.25 * unit, mid), max(b - 0.25 * unit, mid)
            rows.append((min(max(c, first), last), unit, first, last))
        estimates = itertools.repeat(math.nan)
        P = np.array(rows)   # per live bracket c, unit, first, last: the cluster in one array
        X = np.minimum(np.maximum(P[:, :1] + P[:, 1:2] * _CLUSTER, P[:, 2:3]), P[:, 3:])
        still = []
        for n, (c, _, _, _), Xr, Fr in zip(live, rows, X.tolist(), f(X).tolist()):
            a, b, fa, fb = brackets[n]
            Xr, Fr = [a, *Xr, b], [fa, *Fr, fb]
            j0, j1 = _nearest_change(Xr, Fr, c)
            brackets[n] = (Xr[j0], Xr[j1], Fr[j0], Fr[j1])
            width = Xr[j1] - Xr[j0]
            bisect[n] = width > 0.5 * (b - a)
            if width > tol and Xr[j1] > math.nextafter(Xr[j0], math.inf):
                still.append(n)
        live = still
    return np.sort(np.concatenate([exact, [0.5 * a + 0.5 * b for a, b, _, _ in brackets]]))


def pair_energies(model):
    """Bound-pair energies E < -8t' of the fully symmetric (A1, s-wave)
    sector, ascending.

    The determinant sums each orbit's amplitudes with equal weight, so it
    holds the A1 states only: pairs of other C4v symmetry are not
    returned.  For example ``UVModel.full(0, -12, 0, 1)`` gives -14.5849
    only; ED also finds the B1 (d_{x^2-y^2}) state at -12.3543.

    The couplings are divided by t' once, and the roots x = E/t' are
    found at t' = 1.  The determinant changes sign across each root.  Its
    sign scan runs over s = ln(|x|/8 - 1), which resolves the logarithmic
    band-edge region, from s = ln(1e-10/8) in steps of 0.1 to the first
    point at or beyond the search bracket's depth, on the Green's values
    of ``_SCAN_M``, which reaches every model in range.  ``_scan_roots``
    then polishes each sign change through ``det_diagonal`` or
    ``det_full`` at t' = 1 until its bracket is at most 1e-12 wide.  Its
    first estimate interpolates the 12 scan values around each bracket,
    and the determinant is analytic in s, so a root-bearing solve usually
    makes one polish call for all its roots; where that estimate misses a
    root by more than 1e-12, the later calls take the secant point
    through the bracket's two ends.  The per-bracket work of the polish
    (the estimates, the cluster's ends, the next bracket) runs in Python
    floats, and the determinant is one array call per polish step on
    every bracket's cluster.  The energies are t' x.
    A pair bound by less than 1e-10 t' is missed, above the scan's first
    point: ``UVModel.full(-0.4, 0, 0, 1)`` binds (U < U_cr = 0) but has no root.
    """
    tp = model.t_prime
    potentials = tuple(getattr(model, field) / tp for field, _ in _ORBITS[model.variant])
    m = np.searchsorted(_SCAN_S, math.log(_search_bracket_depth(model) / (8.0 * tp) - 1.0)) + 1
    det = det_diagonal if model.variant == "diagonal" else det_full
    roots = _scan_roots(lambda x: det(x, *potentials, 1.0), _SCAN_X[:m],
                        _orbit_det(_SCAN_M[:, :m], model.variant, potentials), _ROOT_TOL)
    return [PairState(E=tp * x) for x in roots.tolist()]


def lf_map_main(params: LFParams):
    """Lang--Firsov map, phonon-frequency-resolved hopping variant.

    t' = t exp[-W lam (1 - Phi_NN/Phi_00)/(hbar omega_ph)] with W = 4t;
    interactions V1 = -2 Phi_NN/Phi_00 W lam, V2 = -2 Phi_NNN/Phi_00
    W lam and U = U_Fesh - 2 W lam.
    """
    t = params.t_bare
    W = 4.0 * t
    t_prime = t * math.exp(-W * params.lam * (1.0 - params.phi_nn_ratio) / params.hbar_omega_ph)
    V1 = -2.0 * params.phi_nn_ratio * W * params.lam
    V2 = -2.0 * params.phi_nnn_ratio * W * params.lam
    U = params.U_fesh - 2.0 * W * params.lam
    return UVModel.full(U, V1, V2, t_prime)


def lf_map_physical(params: LFParams):
    """Lang--Firsov map, fixed-coefficient physical case.

    t' = t e^{-4(1-0.16) lam}, V1 = -0.16 lam t, V2 = 0.896 lam t,
    U = U_Fesh - 8 t lam.
    """
    t = params.t_bare
    lam = params.lam
    t_prime = t * math.exp(-4.0 * (1.0 - 0.16) * lam)
    return UVModel.full(
        U=params.U_fesh - 8.0 * t * lam,
        V1=-0.16 * lam * t,
        V2=0.896 * lam * t,
        t_prime=t_prime,
    )


def threshold_physical_poles(t, renormalized):
    """Locations in lam in [0, 2] where the denominator of U_cr changes sign."""
    def denominators(lams):
        # one scalar call per lam: an np.exp version of threshold_physical
        # differs from math.exp in the last bit for some lam
        return np.array([threshold_physical(x, t, renormalized)["denominator"]
                         for x in lams.ravel().tolist()]).reshape(lams.shape)

    lo, hi, n = _POLE_SCAN
    lams = lo + (hi - lo) * np.arange(n) / (n - 1)
    return _scan_roots(denominators, lams, denominators(lams), _POLE_TOL).tolist()


def pair_dispersion_strong_coupling(U, V, t_prime, k):
    """Three strong-coupling pair branches at momentum k = (kx, ky), ascending in E.

    E = V (an immobile intersite pair, excluded from mass estimates) and
    E = (U+V)/2 +/- sqrt((U-V)^2/4 + t'^2 (cos^2(kx a/2) + cos^2(ky a/2))),
    taken at a = 1.
    """
    kx, ky = k
    csq = math.cos(0.5 * kx) ** 2 + math.cos(0.5 * ky) ** 2
    root = math.sqrt(0.25 * (U - V) ** 2 + t_prime * t_prime * csq)
    mid = 0.5 * (U + V)
    return sorted([PairState(E=mid - root), PairState(E=V), PairState(E=mid + root)],
                  key=lambda s: s.E)


def pair_mass(U, V, t_prime):
    """Effective mass of the lower dispersion branch at k = 0.

    1/m** = t'^2 a^2 / (hbar^2 sqrt((U-V)^2/4 + 2 t'^2)), taken at a = hbar = 1.
    """
    inv = t_prime * t_prime / math.sqrt(0.25 * (U - V) ** 2 + 2.0 * t_prime**2)
    return 1.0 / inv


def pair_mass_onsite(W, lam, t_prime, a=1.0, hbar=1.0):
    """Mass of a deeply bound on-site pair: V = 0, U = -2 W lam.

    m** = hbar^2 sqrt(W^2 lam^2 + 2 t'^2) / (t'^2 a^2).
    """
    return hbar * hbar * np.sqrt(W * W * lam * lam + 2.0 * t_prime**2) / (t_prime**2 * a * a)
