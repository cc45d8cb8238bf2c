"""Two-body bound states of the effective UV models.

Two interaction layouts are treated on the square lattice, both at zero
total pair momentum:

* ``diagonal``: on-site U plus potential V on the two next-nearest
  vectors +/-(x+y) (a single diagonal),
* ``full``: on-site U, V1 on the four nearest-neighbor vectors and V2 on
  the four next-nearest (both diagonals).

Both layouts are one table of orbits: the sets of relative displacements
that carry one potential.  Pair energies are the roots of det(I + G V)
over the symmetric amplitudes, one row and column per orbit; entry
(i, j) sums the lattice Green's integrals M_nl from the first member of
orbit i to every member of orbit j.  The oracle reads the same table
through ``UVModel.shells()``.  Binding thresholds follow from the
E -> -8t' limit where M_00 diverges logarithmically and only the
coefficient multiplying it needs to vanish.  The module also carries the
Lang--Firsov parameter maps that turn a phonon-coupled model into a UV
model, the strong-coupling pair dispersion, and the pair effective mass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .greens import GAMMA1, GAMMA2, GAMMA3, SUPPORTED_NL, greens_M_table

_EDGE_EPS = 1e-10   # offset of the search bracket from the band edge, in t'
_ROOT_TOL = 1e-12   # bisection energy tolerance, in t'
_SCAN_POINTS = 240  # sign-scan grid points over the search bracket

# The orbits of each variant, in determinant order: the UVModel field
# that carries the potential, and the displacements that carry it.
_ORBITS = {
    "diagonal": (("U", ((0, 0),)),
                 ("V2", ((1, 1), (-1, -1)))),
    "full": (("U", ((0, 0),)),
             ("V1", ((1, 0), (-1, 0), (0, 1), (0, -1))),
             ("V2", ((1, 1), (1, -1), (-1, 1), (-1, -1)))),
}


def _orbit_counts(r, orbits):
    """counts[k, j]: members s of orbit j with r - s of type SUPPORTED_NL[k].

    M_nl is even in each component and symmetric in (n, l), so the type
    of a displacement is its sorted absolute components.
    """
    counts = np.zeros((len(SUPPORTED_NL), len(orbits)))
    for j, (_, members) in enumerate(orbits):
        for sx, sy in members:
            nl = tuple(sorted((abs(r[0] - sx), abs(r[1] - sy)), reverse=True))
            counts[SUPPORTED_NL.index(nl), j] += 1
    return counts


# N[k, i, j] of each variant, with row i taken at the first member of orbit i
_COUNTS = {variant: np.stack([_orbit_counts(members[0], orbits) for _, members in orbits], axis=1)
           for variant, orbits in _ORBITS.items()}


@dataclass
class UVModel:
    """Parameters of an effective two-body UV model.

    variant "diagonal" uses field V (two +/-(x+y) neighbors); variant
    "full" uses V1 (four NN) and V2 (four NNN).
    """

    t_prime: float
    U: float
    V1: float = 0.0
    V2: float = 0.0
    variant: str = "full"

    def __post_init__(self):
        for name in ("t_prime", "U", "V1", "V2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_prime <= 0:
            raise ValueError("t_prime must be positive")
        if self.variant not in _ORBITS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "diagonal" and self.V1 != 0.0:
            raise ValueError(f"the diagonal variant has no V1 (its V is V2), got V1 = {self.V1}")

    @classmethod
    def diagonal(cls, U, V, t_prime):
        return cls(t_prime=t_prime, U=U, V1=0.0, V2=V, variant="diagonal")

    @classmethod
    def full(cls, U, V1, V2, t_prime):
        return cls(t_prime=t_prime, U=U, V1=V1, V2=V2, variant="full")

    @property
    def V(self):
        if self.variant != "diagonal":
            raise AttributeError("V is defined for the diagonal variant only")
        return self.V2

    def shells(self):
        """Relative displacement (dx, dy) -> potential, on-site U included.

        Read from the orbit table that ``det_diagonal`` and ``det_full``
        are built from.
        """
        return {d: getattr(self, field) for field, members in _ORBITS[self.variant] for d in members}


@dataclass
class PairState:
    E: float
    k: tuple
    branch: int
    immobile: bool = False


@dataclass
class BindingThreshold:
    U_cr: float
    no_solution: bool = False
    pole: bool = False


@dataclass
class LFParams:
    """Inputs of the Lang--Firsov parameter map."""

    t_bare: float
    lam: float
    hbar_omega_ph: float = 1.0
    phi_nn_ratio: float = 0.0
    phi_nnn_ratio: float = 0.0
    U_fesh: float = 0.0


def _orbit_det(E, t_prime, variant, potentials):
    """det(I + sum_k M_k N_k diag(v)) over the orbits of the variant."""
    N = _COUNTS[variant]
    k, n = N.shape[:2]
    M = greens_M_table(E, t_prime)
    A = (M.reshape(k, -1).T @ N.reshape(k, n * n)).reshape(M.shape[1:] + (n, n))
    return np.linalg.det(A * potentials + np.eye(n))


def det_diagonal(E, U, V, t_prime):
    """Determinant whose roots below -8t' are the diagonal model's pair energies.

    E may be a scalar or an array of energies.
    """
    return _orbit_det(E, t_prime, "diagonal", (U, V))


def det_full(E, U, V1, V2, t_prime):
    """Determinant whose roots below -8t' are the full model's pair energies.

    E may be a scalar or an array of energies.
    """
    return _orbit_det(E, t_prime, "full", (U, V1, V2))


def _determinant_for(model):
    if model.variant == "diagonal":
        return lambda E: det_diagonal(E, model.U, model.V, model.t_prime)
    return lambda E: det_full(E, model.U, model.V1, model.V2, model.t_prime)


def _search_bracket_depth(model):
    return abs(model.U) + 8.0 * abs(model.V1) + 8.0 * abs(model.V2) + 8.0 * model.t_prime + 4.0 * model.t_prime


def pair_energies(model):
    """All bound-pair energies E < -8t' of the model, ascending.

    The determinant changes sign across each root; roots are located by
    a 240-point sign scan over s = ln(|E|/8t' - 1) (which resolves the
    logarithmic band-edge region) followed by bisection to 1e-12 t'.
    The scan is one determinant call on the whole grid, and each
    bisection step is one call on the midpoints of all open brackets.
    """
    tp = model.t_prime
    f = _determinant_for(model)

    def E_of_s(s):
        return -8.0 * tp * (1.0 + np.exp(s))

    s_hi = math.log(_search_bracket_depth(model) / (8.0 * tp) - 1.0)
    s_lo = math.log(_EDGE_EPS / 8.0)
    grid = s_lo + (s_hi - s_lo) * np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1)
    vals = f(E_of_s(grid))

    exact = grid[:-1][vals[:-1] == 0.0]
    bracket = vals[:-1] * vals[1:] < 0.0
    sa, sb, fa = grid[:-1][bracket], grid[1:][bracket], vals[:-1][bracket]
    active = E_of_s(sa) - E_of_s(sb) > _ROOT_TOL * tp
    while active.any():
        sm = 0.5 * (sa[active] + sb[active])
        fm = f(E_of_s(sm))
        left = fa[active] * fm < 0.0
        # an exact zero closes its bracket onto the midpoint
        sa[active] = np.where(left, sa[active], sm)
        sb[active] = np.where(left | (fm == 0.0), sm, sb[active])
        fa[active] = np.where(left, fa[active], fm)
        active &= E_of_s(sa) - E_of_s(sb) > _ROOT_TOL * tp
    roots = np.sort(np.concatenate([E_of_s(exact), E_of_s(0.5 * (sa + sb))]))
    return [PairState(E=E, k=(0.0, 0.0), branch=i) for i, E in enumerate(roots.tolist())]


def pair_energies_diagonal(U, V, t_prime):
    return pair_energies(UVModel.diagonal(U, V, t_prime))


def pair_energies_full(U, V1, V2, t_prime):
    return pair_energies(UVModel.full(U, V1, V2, t_prime))


def threshold_diagonal(V, t_prime):
    """Critical U below which the single-diagonal model binds a pair.

    U_cr = -2 V t' / (t' + 4V/3pi).  The denominator vanishes at
    V = -3 pi t'/4, reported via the pole flag.
    """
    denom = t_prime + 4.0 * V / (3.0 * math.pi)
    if denom == 0.0:
        return BindingThreshold(U_cr=math.inf, pole=True)
    U_cr = -2.0 * V * t_prime / denom
    return BindingThreshold(U_cr=U_cr, no_solution=(V > 0.0 and U_cr >= 0.0))


def threshold_full(V1, V2, t_prime):
    """Critical U for the both-diagonals model.

    U_cr = -(g3 t' V1 V2 + 4 t'^2 (V1 + V2))
           / (g1 V1 V2 + t' V1 / 2 + g2 t' V2 + t'^2).
    """
    tp = t_prime
    num = GAMMA3 * tp * V1 * V2 + 4.0 * tp * tp * (V1 + V2)
    den = GAMMA1 * V1 * V2 + 0.5 * tp * V1 + GAMMA2 * tp * V2 + tp * tp
    if den == 0.0:
        return BindingThreshold(U_cr=math.inf, pole=True)
    U_cr = -num / den
    return BindingThreshold(U_cr=U_cr, no_solution=(V1 >= 0.0 and V2 >= 0.0 and U_cr >= 0.0))


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


def threshold_physical(lam, t, renormalized):
    """Critical couplings of the physical case as a function of lam.

    Returns a dict with t', the critical on-site potential U_cr
    (rational function with coefficients 0.1133, 2.9440, 0.5451,
    0.0142), and the corresponding critical Feshbach interaction
    U_Fesh_cr = U_cr + 8 t lam.

    This is the printed form of ``threshold_full`` composed with
    ``lf_map_physical``, its coefficients rounded to 4 decimals:
    g3*0.16*0.896 = 0.11334, 4*(0.896 - 0.16) = 2.944,
    0.5*(-0.16) + g2*0.896 = 0.54510 and g1*0.16*0.896 = 0.01417.  The
    renormalized pole of the composition lies at lam = 1.0774, the
    printed one at lam = 1.0769.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    tp = t * math.exp(-4.0 * (1.0 - 0.16) * lam) if renormalized else t
    num = 0.1133 * t * t * tp * lam * lam - 2.9440 * t * tp * tp * lam
    den = tp * tp + 0.5451 * t * tp * lam - 0.0142 * t * t * lam * lam
    pole = den == 0.0
    U_cr = math.inf if pole else num / den
    return {
        "t_prime": tp,
        "U_cr": U_cr,
        "U_fesh_cr": U_cr + 8.0 * t * lam,
        "pole": pole,
        "denominator": den,
    }


def threshold_physical_poles(t, renormalized, lam_range=(0.0, 2.0), n_scan=4001):
    """Locations in lam where the denominator of U_cr changes sign."""
    lo, hi = lam_range
    lams = [lo + (hi - lo) * i / (n_scan - 1) for i in range(n_scan)]
    dens = [threshold_physical(x, t, renormalized)["denominator"] for x in lams]
    poles = []
    for i in range(n_scan - 1):
        if dens[i] == 0.0:
            poles.append(lams[i])
        elif dens[i] * dens[i + 1] < 0.0:
            a, b = lams[i], lams[i + 1]
            fa = dens[i]
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = threshold_physical(m, t, renormalized)["denominator"]
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
                if b - a < 1e-12:
                    break
            poles.append(0.5 * (a + b))
    return poles


def pair_dispersion_strong_coupling(U, V, t_prime, k, a=1.0):
    """Three strong-coupling pair branches at momentum k = (kx, ky).

    E = V (an immobile intersite pair, excluded from mass estimates) and
    E = (U+V)/2 +/- sqrt((U-V)^2/4 + t'^2 (cos^2(kx a/2) + cos^2(ky a/2))).
    """
    kx, ky = k
    csq = math.cos(0.5 * kx * a) ** 2 + math.cos(0.5 * ky * a) ** 2
    root = math.sqrt(0.25 * (U - V) ** 2 + t_prime * t_prime * csq)
    mid = 0.5 * (U + V)
    states = [
        PairState(E=mid - root, k=(kx, ky), branch=0),
        PairState(E=V, k=(kx, ky), branch=1, immobile=True),
        PairState(E=mid + root, k=(kx, ky), branch=2),
    ]
    states.sort(key=lambda s: s.E)
    for i, s in enumerate(states):
        s.branch = i
    return states


def pair_mass(U, V, t_prime, a=1.0, hbar=1.0):
    """Effective mass of the lower dispersion branch at k = 0.

    1/m** = t'^2 a^2 / (hbar^2 sqrt((U-V)^2/4 + 2 t'^2)).
    """
    inv = t_prime * t_prime * a * a / (hbar * hbar * math.sqrt(0.25 * (U - V) ** 2 + 2.0 * t_prime**2))
    return 1.0 / inv


def pair_mass_onsite(W, lam, t_prime, a=1.0, hbar=1.0):
    """Mass of a deeply bound on-site pair: V = 0, U = -2 W lam.

    m** = hbar^2 sqrt(W^2 lam^2 + 2 t'^2) / (t'^2 a^2).
    """
    return hbar * hbar * math.sqrt(W * W * lam * lam + 2.0 * t_prime**2) / (t_prime**2 * a * a)
