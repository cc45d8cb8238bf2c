"""Pairing / BKT phase map over lattice depth and coupling strength.

Strong-coupling estimates: local pairs form below
T_pair = (2 W lambda - 8 t')/k_B, and dilute pairs of effective mass
m** quasi-condense below the BKT estimate
T_BKT = 4 pi hbar^2 n_B / (a^2 k_B 2 m** lnln(4/n_B))
(Fisher and Hohenberg, PRB 37, 4936 (1988)), with m** the on-site pair
mass ``pairs.pair_mass_onsite``.  Each grid point gets one of four
labels from the ordering of the probe temperature T against the two
scales.  The grid is one broadcast over (V0, lambda); every array of
``PhaseGrid`` has shape (nV0, nlambda) unless noted.

The hopping t comes from ``hubbard.recoil_energy(a, M_K40)`` with its
default lattice wavevector k = pi/a, which is 1/4 of the recoil that
``hubbard.parameter_sweep`` (k = 2 pi/a) feeds the ``params`` tables.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import (HBAR, HZ_TO_NK, H_PLANCK, K_B, M_K40, nk_to_hz, require_finite,
                        require_positive)
from .hubbard import hopping_t, recoil_energy
from .pairs import pair_mass_onsite

LABELS = ("Normal", "PreformedPairs", "BKTCondensedPairs", "BKTRegime")


def t_pair(W, lam, t_prime):
    """Pairing temperature (nK) from W, t' in Hz: max(0, (2Wlam - 8t')/k_B)."""
    return np.maximum(0.0, (2.0 * W * lam - 8.0 * t_prime) * HZ_TO_NK)


def t_bkt(n_B, m_star_star, a):
    """BKT estimate (nK) for pair density n_B, mass m** (kg), spacing a (um).

    T = 4 pi hbar^2 n_B / (a^2 k_B 2 m** lnln(4/n_B)), valid in the
    dilute limit where lnln(4/n_B) > 0.  m** may be an array.
    """
    if not 0.0 < n_B < 1.0:
        raise ValueError(f"n_B must lie in (0, 1), got {n_B}")
    if not np.all(np.asarray(m_star_star) > 0.0):
        raise ValueError("m_star_star must be a positive mass")
    require_finite(a=a)
    require_positive(a=a)
    inner = math.log(4.0 / n_B)
    if inner <= 1.0:
        raise ValueError("lnln argument <= 1; dilute-limit estimate invalid")
    a_m = a * 1e-6
    T = 4.0 * math.pi * HBAR**2 * n_B / (a_m**2 * K_B * 2.0 * m_star_star * math.log(inner))
    return T * 1e9


def classify(T, T_pair_, T_bkt_):
    """Strict-inequality phase label; ties fall through to Normal.

    Normal: T above both scales.  PreformedPairs: pairs exist but no
    condensation (T_bkt < T < T_pair).  BKTCondensedPairs: condensed
    preformed pairs (T < T_bkt <= T_pair).  BKTRegime: condensation at
    T_bkt with pairing only setting in there (T < T_bkt, T_pair < T_bkt).
    Scalars give a str, arrays a str array of their broadcast shape.
    """
    normal, preformed, condensed, regime = LABELS
    below_bkt = np.less(T, T_bkt_)
    labels = np.select(
        [below_bkt & np.less(T_pair_, T_bkt_), below_bkt,
         np.less(T_bkt_, T) & np.less(T, T_pair_)],
        [regime, condensed, preformed], default=normal)
    return labels[()]


@dataclass(eq=False)
class PhaseGrid:
    lam_axis: np.ndarray    # (nlambda,)
    T_pair: np.ndarray      # (nV0, nlambda), nK
    T_bkt: np.ndarray       # nK
    label: np.ndarray       # str
    contour: np.ndarray     # (n_segments, 2, 2): segment, end, (V0, lam)


@dataclass
class PhaseFamily:
    """Physics inputs shared by all points of a phase map of K-40 fermions.

    The phonon frequency is pinned to hbar*omega = omega_ratio * t
    because the painted waist it derives from is a free design choice.
    """

    a: float = 1.73                 # um
    n_B: float = 0.01
    phi_nn_ratio: float = 0.0
    omega_ratio: float = 18.52      # hbar*omega_ph / t

    def __post_init__(self):
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        require_positive(a=self.a, omega_ratio=self.omega_ratio)


def delta_t_contour(V0_axis, lam_axis, dT):
    """Marching-squares segments of Delta T = T_bkt - T_pair = 0, (n_segments, 2, 2).

    dT has shape (len(V0_axis), len(lam_axis)).  Edge k of cell (i, j)
    runs from its corner k to corner k + 1 (mod 4), corners in the order
    (i, j), (i+1, j), (i+1, j+1), (i, j+1); an edge whose ends have
    opposite Delta T sign (zero counts as positive) is crossed at the
    linear interpolation x1 + (x2 - x1) v1 / (v1 - v2).  A cell with two
    or more crossings gives one segment between its first two; segments
    are in cell order, i outer, and each point is (V0, lambda).
    """
    xs, ys = np.asarray(V0_axis, dtype=float), np.asarray(lam_axis, dtype=float)
    ci = np.arange(len(xs) - 1)[:, None, None] + [0, 1, 1, 0]
    cj = np.arange(len(ys) - 1)[None, :, None] + [0, 0, 1, 1]
    corners = np.stack(np.broadcast_arrays(xs[ci], ys[cj]), axis=-1)  # (nV0-1, nlambda-1, 4, 2)
    v1 = np.asarray(dT, dtype=float)[ci, cj]
    v2 = np.roll(v1, -1, axis=-1)
    crossed = (v1 < 0.0) & (v2 >= 0.0) | (v2 < 0.0) & (v1 >= 0.0)
    rank = np.cumsum(crossed, axis=-1)
    first_two = crossed & (rank <= 2) & (rank[..., -1:] >= 2)  # of each cell with two or more
    p1, p2 = corners[first_two], np.roll(corners, -1, axis=-2)[first_two]
    v1, v2 = v1[first_two][:, None], v2[first_two][:, None]
    return (p1 + (p2 - p1) * v1 / (v1 - v2)).reshape(-1, 2, 2)


def phase_grid(V0_axis, lam_axis, T, family):
    """Fully populated PhaseGrid of ``family`` with the Delta T = 0 contour.

    V0 (nK), lambda and the probe temperature T (nK) must be finite, V0
    positive, and lambda and T nonnegative.  Raises OverflowError, naming the first
    such grid point, where V0 in Hz, T_pair or the on-site pair mass
    leaves the float range: V0 beyond about 8.6e306 nK, T_pair for a
    large lambda, the mass where t' is so small (a deep lattice, a large
    lambda) that t'^2 in joules underflows.
    """
    V0 = np.asarray(V0_axis, dtype=float)
    lam = np.asarray(lam_axis, dtype=float)
    for name, value in (("V0", V0), ("lambda", lam), ("T", T)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    for name, value in (("lambda", lam), ("T", T)):
        if np.any(value < 0.0):
            raise ValueError(f"{name} must be nonnegative, got {np.min(value)}")
    for v in V0.tolist():
        require_positive(V0=v)   # in nK, as given: hopping_t would report it in Hz
    E_rec = recoil_energy(family.a, M_K40)
    V0_hz = [nk_to_hz(v) for v in V0.tolist()]   # Python floats overflow to inf quietly
    for v, hz in zip(V0.tolist(), V0_hz):
        if not math.isfinite(hz):
            raise OverflowError(f"V0 in Hz is not finite at V0 = {v} nK")
    t = np.array([hopping_t(hz, E_rec) for hz in V0_hz])
    t_col = t[:, None]
    W = 4.0 * t_col
    hbar_omega = family.omega_ratio * t_col
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t_prime = t_col * np.exp(-W * lam * (1.0 - family.phi_nn_ratio) / hbar_omega)
        Tp = t_pair(W, lam, t_prime)
        m2 = pair_mass_onsite(W * H_PLANCK, lam, t_prime * H_PLANCK, family.a * 1e-6, HBAR)
    for name, value in (("T_pair", Tp), ("the on-site pair mass", m2)):
        if not np.isfinite(value).all():
            i, j = np.argwhere(~np.isfinite(value))[0]
            raise OverflowError(f"{name} is not finite at V0 = {V0[i]} nK, lambda = {lam[j]}")
    Tb = t_bkt(family.n_B, m2, family.a)
    return PhaseGrid(lam_axis=lam, T_pair=Tp, T_bkt=Tb, label=classify(T, Tp, Tb),
                     contour=delta_t_contour(V0, lam, Tb - Tp))
