"""The orbit table of the UV models, and the binding thresholds read off it.

Two interaction layouts are treated on the square lattice, both at zero
total pair momentum: ``diagonal`` (on-site U plus V on the two
next-nearest vectors +/-(x+y)) and ``full`` (on-site U, V1 on the four
nearest-neighbor vectors and V2 on the four next-nearest).  Each is a
table of orbits, the sets of relative displacements that carry one
potential.  Pair energies are the roots of det(I + G V) over the
symmetric amplitudes, one row and column per orbit; entry (i, j) sums
the lattice Green's integrals M_nl from the first member of orbit i to
every member of orbit j.  ``_COUNTS`` holds, per variant, how many of
each M_nl that entry sums.  ``pairs`` builds the determinant from it
in float over arrays of energies, and the oracle reads the orbits
through ``UVModel.shells()`` and ``UVModel.point_group()``.

Binding thresholds are read off the same determinant at E -> -8t',
where M_00 diverges logarithmically and only its coefficient needs to
vanish.  That coefficient is taken in exact integers, in plain Python:
this module imports no numpy, so ``hhsim binding`` loads none, and no
dataclasses (``BindingThreshold`` is a namedtuple), whose import of
inspect would cost a cold ``hhsim binding`` more than its computation.
Every coupling lies within 2^128 t' of zero (``_check_couplings``, which
``UVModel`` and both thresholds call), so no monomial (V/t')^k here reaches
2^256, and no scan determinant of ``pairs`` leaves the float range.
"""

import collections
import functools
import itertools
import math

from .constants import require_finite, require_positive

SUPPORTED_NL = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))

# C_nl = lim M_00 - M_nl as E -> -8t', in units of 1/t', by SUPPORTED_NL
EDGE_C = (0.0, 1.0 / 8.0, 1.0 / (2.0 * math.pi), (math.pi - 2.0) / (2.0 * math.pi),
          (8.0 - math.pi) / (8.0 * math.pi), 2.0 / (3.0 * math.pi))

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
    """counts[k][j]: members s of orbit j with r - s of type SUPPORTED_NL[k].

    M_nl is even in each component and symmetric in (n, l), so the type
    of a displacement is its sorted absolute components.
    """
    counts = [[0] * len(orbits) for _ in SUPPORTED_NL]
    for j, (_, members) in enumerate(orbits):
        for sx, sy in members:
            nl = tuple(sorted((abs(r[0] - sx), abs(r[1] - sy)), reverse=True))
            counts[SUPPORTED_NL.index(nl)][j] += 1
    return counts


# N[k][i][j] of each variant, with row i taken at the first member of orbit i
_COUNTS = {variant: tuple(zip(*(_orbit_counts(members[0], orbits) for _, members in orbits)))
           for variant, orbits in _ORBITS.items()}

# the square lattice's point group: (a, b, c, d) maps (x, y) to (ax + by, cx + dy)
_SQUARE_GROUP = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
                 (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))

# the operations of _SQUARE_GROUP that map every orbit of each variant onto itself
_POINT_GROUPS = {variant: tuple((a, b, c, d) for a, b, c, d in _SQUARE_GROUP
                                if all({(a * x + b * y, c * x + d * y) for x, y in members}
                                       == set(members) for _, members in orbits))
                 for variant, orbits in _ORBITS.items()}

# The band-edge table times D = 2^60, which makes each D C_nl an integer:
# D M_nl = D (M_00 - C_nl) at M_00 = 0 and at M_00 = 1, by SUPPORTED_NL
_EDGE_SCALE = 2 ** 60
_EDGE_TABLES = tuple(tuple(m * _EDGE_SCALE - int(c * _EDGE_SCALE) for c in EDGE_C) for m in (0, 1))


# the largest |coupling|/t' accepted: about 3.4e38, far past any physical model
_COUPLING_RANGE = 2.0 ** 128

# a namedtuple, not a dataclass: see the module docstring
BindingThreshold = collections.namedtuple("BindingThreshold", "U_cr pole", defaults=(False,))


def _check_couplings(t_prime, **couplings):
    """Raise ValueError unless t_prime and every coupling are finite, t_prime > 0
    and every |coupling| <= 2^128 t', a product that is exact or inf."""
    require_finite(t_prime=t_prime, **couplings)
    require_positive(t_prime=t_prime)
    bound = _COUPLING_RANGE * t_prime
    for name, value in couplings.items():
        if abs(value) > bound:
            raise ValueError(f"{name} must lie in [-2^128 t', 2^128 t'] = "
                             f"[{-bound:.6g}, {bound:.6g}], got {value}")


def _cofactor_det(B):
    """det B of a 2x2 or 3x3 B, by cofactor expansion along the first row.

    The entries may be numbers or arrays, whose elements are then taken
    element-wise.
    """
    if len(B) == 2:
        (a, b), (c, d) = B
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = B
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _table_det(M, variant, potentials):
    """det(I + sum_k M_k N_k diag(v)) over the orbits of the variant, for
    one table M of the six M_nl, in Python arithmetic: exact for integers."""
    N = _COUNTS[variant]
    n = len(potentials)
    return _cofactor_det([[int(i == j) + sum(m * Nk[i][j] for m, Nk in zip(M, N)) * potentials[j]
                           for j in range(n)] for i in range(n)])


@functools.cache
def _edge_factor(variant):
    """Coefficients a_S of F(x) = sum_S a_S prod_{j in S} x_j, the factor of
    M_00 in the variant's determinant as E -> -8t' (x_j: orbit j's potential
    over t'), by S[0] (the on-site orbit in S) and then the others' 0/1 flags.

    There M_nl = M_00 - C_nl/t' (``EDGE_C``), so the matrix is A + M_00 1 s^T
    (every orbit member has some type) and F is its determinant's slope in
    M_00.  Each column is linear in its own potential, so F is multilinear:
    differences of its values at the corners x in {0, 1}^n give the a_S.  The
    table is taken times D = 2^60 (``_EDGE_TABLES``), which makes each C_nl an
    integer, so these are exact: integer sums of D^|S| a_S, each a_S rounded
    once.
    """
    n = len(_ORBITS[variant])
    corners = list(itertools.product((0, 1), repeat=n))   # C order: the last flag fastest
    low, high = _EDGE_TABLES
    F = [_table_det(high, variant, x) - _table_det(low, variant, x) for x in corners]
    for axis in range(n):   # a difference along each axis, the corner without it first
        bit = 1 << (n - 1 - axis)
        F = [f - F[i - bit] if i & bit else f for i, f in enumerate(F)]
    a = [f / _EDGE_SCALE ** sum(S) for f, S in zip(F, corners)]
    return tuple(a[:len(a) // 2]), tuple(a[len(a) // 2:])


def _monomials(factors):
    """prod_{j in S} f_j over the 0/1 flags S in C order: the last factor's flag fastest."""
    monomials = [1.0]
    for f in reversed(factors):
        monomials += [m * f for m in monomials]
    return monomials


def _edge_threshold(variant, potentials, t_prime):
    """U_cr = -t' Q/P, the zero in U of the variant's band-edge factor F = Q + P U/t'."""
    Q_row, P_row = _edge_factor(variant)
    monomials = _monomials([v / t_prime for v in potentials])
    Q = sum([a * m for a, m in zip(Q_row, monomials)])
    P_terms = [a * m for a, m in zip(P_row, monomials)]
    P, P_size = sum(P_terms), sum(map(abs, P_terms))
    # P sums at most four terms a_S prod x_j: quotients x_j = v_j/t', products and sums
    # round at most 7 times by eps/2 relative to the sum of the terms' magnitudes, and each
    # a_S is within an ulp of its closed form (tested).  P within 16 eps of that sum is 0.
    if abs(P) <= 16.0 * math.ulp(1.0) * P_size:
        return BindingThreshold(U_cr=math.inf, pole=True)
    return BindingThreshold(U_cr=-t_prime * Q / P)


def threshold_diagonal(V, t_prime):
    """Critical U below which the single-diagonal model binds a pair (a pole at V = -3 pi t'/4).

    |V| may be at most 2^128 t'; beyond it, ValueError names V.
    """
    _check_couplings(t_prime, V=V)
    return _edge_threshold("diagonal", (V,), t_prime)


def threshold_full(V1, V2, t_prime):
    """Critical U below which the both-diagonals model binds a pair, read off the orbit table.

    |V1| and |V2| may be at most 2^128 t'; beyond it, ValueError names the coupling.
    """
    _check_couplings(t_prime, V1=V1, V2=V2)
    return _edge_threshold("full", (V1, V2), t_prime)


def threshold_physical(lam, t, renormalized):
    """Critical couplings of the physical case as a function of lam.

    Returns a dict with the critical on-site potential U_cr
    (rational function with coefficients 0.1133, 2.9440, 0.5451,
    0.0142), and the corresponding critical Feshbach interaction
    U_Fesh_cr = U_cr + 8 t lam.

    This is ``threshold_full`` composed with ``pairs.lf_map_physical``:
    the derived ``full`` band-edge coefficients (g1-g3: GAMMA1-GAMMA3)
    times -0.16 and 0.896, rounded to 4 decimals: g3*0.16*0.896 = 0.11334,
    4*(0.896 - 0.16) = 2.944, 0.5*(-0.16) + g2*0.896 = 0.54510 and
    g1*0.16*0.896 = 0.01417.  The renormalized pole of the composition
    lies at lam = 1.0774, the printed one at lam = 1.0769.
    """
    require_finite(lam=lam, t=t)
    require_positive(t=t)
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    tp = t * math.exp(-4.0 * (1.0 - 0.16) * lam) if renormalized else t
    num = 0.1133 * t * t * tp * lam * lam - 2.9440 * t * tp * tp * lam
    den = tp * tp + 0.5451 * t * tp * lam - 0.0142 * t * t * lam * lam
    pole = den == 0.0
    U_cr = math.inf if pole else num / den
    return {
        "U_cr": U_cr,
        "U_fesh_cr": U_cr + 8.0 * t * lam,
        "pole": pole,
        "denominator": den,
    }
