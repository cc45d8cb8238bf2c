import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhsim import oracle
from hhsim.oracle import (
    FiniteLattice,
    brute_force_two_body,
    extrapolate_energy,
    ground_energies,
)
from hhsim.pairs import UVModel, pair_energies

from _oracles import (
    orbit_basis,
    pair_hamiltonian,
    pair_orbits,
    relative_hamiltonian,
    symmetric_orbits,
)

ONSITE = {(0, 0)}
NN = {(1, 0), (-1, 0), (0, 1), (0, -1)}
NNN = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
# the shell sets of each variant, as the determinant's orbits group them
SHELLS = {"full": (ONSITE, NN, NNN), "diagonal": (ONSITE, {(1, 1), (-1, -1)})}
IDENTITY = (lambda x, y: (x, y),)


def test_lattice_validation():
    with pytest.raises(ValueError):
        FiniteLattice(3)
    with pytest.raises(ValueError):
        FiniteLattice(5)
    assert FiniteLattice(4).L == 4


@pytest.mark.parametrize("solve", [ground_energies, brute_force_two_body])
@pytest.mark.parametrize("L", [5, 6.0, 7.5, True, 2, "6"])
def test_lattice_size_is_checked_before_any_block_is_built(solve, L):
    before = oracle._sector.cache_info()
    with pytest.raises(ValueError, match="^L must be an even integer >= 4$"):
        solve(UVModel.diagonal(-5.0, 0.0, 1.0), L)
    assert oracle._sector.cache_info() == before
    assert FiniteLattice(np.int64(6)).L == 6


def test_relative_hamiltonian_is_symmetric():
    model = UVModel.full(-4.0, -1.0, -0.5, 1.0)
    H = relative_hamiltonian(model, 6)
    assert (abs(H - H.T)).max() == 0.0


@pytest.mark.parametrize("model", [
    UVModel.diagonal(-5.0, -2.0, 0.7),
    UVModel.full(-4.0, -1.0, -0.5, 1.0),
])
def test_relative_hamiltonian_hops_and_shells(model):
    L = 6
    D = relative_hamiltonian(model, L).toarray()
    x, y = np.divmod(np.arange(L * L), L)
    for i in range(L * L):
        hops = {((x[i] + dx) % L) * L + (y[i] + dy) % L
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
        assert set(np.flatnonzero(D[i] != 0.0)) - {i} == hops
        assert all(D[i, j] == -2.0 * model.t_prime for j in hops)
    pot = np.zeros((L, L))
    for (dx, dy), v in model.shells().items():
        pot[dx % L, dy % L] = v
    assert np.array_equal(np.diag(D), pot.ravel())


def _inversion_sector():
    L = 6
    H = relative_hamiltonian(UVModel.diagonal(-5.0, -2.0, 1.0), L)
    minus = [(-x % L) * L + (-y % L) for x in range(L) for y in range(L)]
    return H.toarray(), oracle._symmetric_basis(np.array([minus])).toarray(), minus


def _exchange_sector():
    L = 4
    n = L * L
    H = pair_hamiltonian(UVModel.full(-5.0, -1.0, -0.5, 1.0), L)
    swap = [q * n + p for p in range(n) for q in range(n)]
    return H.toarray(), oracle._symmetric_basis(np.array([swap])).toarray(), swap


def test_projector_columns_orthonormal():
    for sector in (_inversion_sector, _exchange_sector):
        _, P, perm = sector()
        assert abs(P.T @ P - np.eye(P.shape[1])).max() < 1e-14
        # every column is even under the symmetry, and there is one per orbit
        assert np.array_equal(P[perm], P)
        assert P.shape[1] == (len(perm) + np.sum(np.array(perm) == np.arange(len(perm)))) // 2


@pytest.mark.parametrize("sector", [_inversion_sector, _exchange_sector])
def test_hamiltonian_leaves_symmetric_sector_invariant(sector):
    H, P, _ = sector()
    assert np.linalg.norm(H @ P - P @ (P.T @ H @ P)) <= 1e-12


@pytest.mark.parametrize("model", [
    UVModel.diagonal(-5.0, -2.0, 1.0),
    UVModel.full(-5.0, -1.0, -1.0, 1.0),
])
def test_reduction_matches_brute_force(model):
    # the relative-coordinate ground energy must equal the full
    # two-particle one (the ground state sits at zero total momentum)
    for L in (4, 6):
        red = ground_energies(model, L, n_states=2).energies[0]
        full = brute_force_two_body(model, L)[0]
        assert red == pytest.approx(full, abs=1e-9)


def _sector_block(model, L, pair):
    """Dense -c t' K + diag(W @ pot) from the model's ``oracle._sector``:
    c = 1 for the pair, 2 for the relative coordinate (each particle's
    hopping adds at K = 0), pot the shell potential on the L x L
    relative displacements."""
    K, W = oracle._sector(L, model.point_group(), pair)
    pot = np.zeros(L * L)
    for (dx, dy), v in model.shells().items():
        pot[(dx % L) * L + dy % L] = v
    return -(1.0 if pair else 2.0) * model.t_prime * K.toarray() + np.diag(W @ pot)


def _projected_block(model, L, pair):
    """P^T H P of the full-space reference H on the torus-enumerated orbits
    of the model's sector (relative coordinate, or the exchange-symmetric pair)."""
    ops, orbits = symmetric_orbits(L, SHELLS[model.variant])
    H = pair_hamiltonian(model, L) if pair else relative_hamiltonian(model, L)
    if not pair:
        orbits = {frozenset(x * L + y for x, y in orbit) for orbit in orbits}
    P = orbit_basis(pair_orbits(L, ops) if pair else orbits, H.shape[0])
    return P.T @ (H @ P)


@pytest.mark.parametrize("pair, L, dims", [
    (False, 6, {"full": 10, "diagonal": 13}),
    (False, 48, {"full": 325, "diagonal": 601}),
    (True, 4, {"full": 34, "diagonal": 46}),
    (True, 6, {"full": 119, "diagonal": 191}),
])
@pytest.mark.parametrize("model", [
    UVModel.full(-6.0, 1.5, -2.0, 0.7),
    UVModel.diagonal(4.0, -3.0, 1.3),
])
def test_sector_hamiltonian_is_the_projected_full_space_hamiltonian(model, pair, L, dims):
    Hs = _sector_block(model, L, pair)
    assert Hs.shape == (dims[model.variant],) * 2
    assert abs(Hs - _projected_block(model, L, pair)).max() <= 1e-13


@pytest.mark.parametrize("model, L", [
    (UVModel.diagonal(-10.0, -1.5, 1.0), 6),
    (UVModel.full(-5.0, -1.0, -1.0, 1.0), 6),
    (UVModel.full(3.0, -4.0, 2.0, 0.8), 4),
])
def test_brute_force_returns_the_lowest_levels_of_its_sector(model, L):
    # every level, ascending, as often as it occurs in the sector
    dense = np.linalg.eigvalsh(_projected_block(model, L, pair=True))
    assert np.allclose(brute_force_two_body(model, L), dense,
                       rtol=0.0, atol=1e-12 * model.t_prime)


@pytest.mark.parametrize("L", [4, 6])
@pytest.mark.parametrize("seed, signs", enumerate([(1, 1, 1), (1, -1, 1), (-1, 1, -1),
                                                   (-1, -1, -1), (1, 1, -1), (-1, -1, 1)]))
def test_brute_force_ground_is_the_exchange_even_ground(L, seed, signs):
    # Perron-Frobenius: the nodeless ground state is fixed by every symmetry,
    # so the A1 sector holds it whatever the signs of the couplings
    rng = np.random.default_rng(seed)
    tp = rng.uniform(0.5, 2.0)
    U, V1, V2 = np.array(signs) * rng.uniform([0.5, 0.5, 0.5], [12.0, 4.0, 4.0]) * tp
    model = UVModel.diagonal(U, V1, tp) if seed % 3 == 2 else UVModel.full(U, V1, V2, tp)
    H = pair_hamiltonian(model, L)
    P = orbit_basis(pair_orbits(L, IDENTITY), H.shape[0])
    ground = np.linalg.eigvalsh(P.T @ (H @ P))[0]
    assert abs(brute_force_two_body(model, L)[0] - ground) <= 1e-12 * tp
    assert abs(ground_energies(model, L, n_states=1).energies[0] - ground) <= 1e-12 * tp


def test_cached_blocks_are_read_only_and_every_call_matches_a_fresh_one():
    group = UVModel.full(-8.0, -1.0, -0.5, 1.0).point_group()
    for L, pair in ((16, False), (48, False), (6, True)):
        K, W = oracle._sector(L, group, pair)
        for values in (K.data, W.data):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
    for L in (16, 48):
        for values in oracle._shell_band(L, group):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1
    models = [UVModel.full(-10.0, -1.5, -1.2, 1.0), UVModel.full(-6.0, 2.0, -3.0, 0.6),
              UVModel.diagonal(-9.0, -1.0, 1.7)]

    # below oracle._BANDED_MAX, banded: the full sectors of 45 and 325 states and
    # the diagonal one of 73; above it, shift-invert eigsh: the diagonal L = 48
    # sector of 601
    def solve(model):
        return ([ground_energies(model, L).energies for L in (16, 48)],
                brute_force_two_body(model, 6))

    alternating = [solve(model) for model in models + models[::-1]]
    fresh = []
    for model in models + models[::-1]:
        oracle._sector.cache_clear()
        oracle._shell_band.cache_clear()
        fresh.append(solve(model))
    assert alternating == fresh


@pytest.mark.parametrize("L", [4, 6, 16, 48])
@pytest.mark.parametrize("variant", ["full", "diagonal"])
def test_shell_band_is_k_in_shell_order_within_the_adjacent_shell_bound(variant, L):
    group = (UVModel.full(-8.0, -1.0, -0.5, 1.0) if variant == "full"
             else UVModel.diagonal(-8.0, -1.0, 1.0)).point_group()
    K, _ = oracle._sector(L, group, False)
    perm, band, radius = oracle._shell_band(L, group)
    # the lead (smallest site index) of each column's orbit, in column order
    P = oracle._symmetric_basis(oracle._site_images(L, group)).tocsc()
    lead = P.indices[P.indptr[:-1]]
    x, y = np.divmod(lead[perm], L)
    d = np.minimum(x, L - x) + np.minimum(y, L - y)   # the torus shell of each lead
    assert np.all(np.diff(d) >= 0) and np.all(np.diff(lead[perm])[np.diff(d) == 0] > 0)
    # the band, written back into a full matrix, is K in that order, bit for bit
    u, n = band.shape[0] - 1, perm.size
    full = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            full[i, j] = full[j, i] = band[u + i - j, j]
    assert np.array_equal(full, K.toarray()[np.ix_(perm, perm)])
    # radius: the off-diagonal row sums of |K| in that order
    assert np.allclose(radius, abs(full).sum(axis=1) - abs(np.diag(full)), rtol=0.0, atol=1e-15)
    sizes = np.bincount(d)
    assert u <= max(sizes[:-1] + sizes[1:]) - 1


@pytest.mark.parametrize("model, L", [
    (UVModel.full(-10.5, -1.2, -1.8, 0.7), 48),        # 325 states, banded
    (UVModel.full(-10.5, -1.2, -1.8, 0.7), 64),        # 561 states, shift-invert eigsh
    (UVModel.diagonal(-15.0, -2.5, 1.6), 32),          # 273 states, banded
    (UVModel.diagonal(-15.0, -2.5, 1.6), 48),          # 601 states, shift-invert eigsh
    (UVModel.diagonal(-15.0, -2.5, 1.6), 64),          # 1,057 states, shift-invert eigsh
])
@pytest.mark.parametrize("n_states", [1, 4, "dim - 2"])
def test_ground_energies_equal_the_dense_spectrum_of_the_same_block(model, L, n_states):
    # both sides of oracle._BANDED_MAX, down to the deepest n_states allowed
    H = _sector_block(model, L, False)
    assert (H.shape[0] <= oracle._BANDED_MAX) == (L < {"full": 64, "diagonal": 48}[model.variant])
    k = H.shape[0] - 2 if n_states == "dim - 2" else n_states
    dense = np.linalg.eigvalsh(H)[:k]
    got = ground_energies(model, L, n_states=k)
    assert np.allclose(got.energies, dense, rtol=0.0, atol=1e-12 * model.t_prime)
    edge = -8.0 * model.t_prime - oracle._BOUND_MARGIN / L**2 * model.t_prime
    assert got.bound_count == np.sum(dense < edge) > 0


def test_brute_force_size_guard():
    # L = 2 folds the +/-x hops onto one site; odd L has no reduced oracle
    for L in (2, 5, 10):
        with pytest.raises(ValueError):
            brute_force_two_body(UVModel.diagonal(-5.0, 0.0, 1.0), L)


@pytest.mark.parametrize("solve, L", [(ground_energies, 8)])
@pytest.mark.parametrize("n_states", [0, -1])
def test_n_states_must_be_positive(solve, L, n_states):
    with pytest.raises(ValueError, match=f"n_states must be positive, got {n_states}"):
        solve(UVModel.diagonal(-5.0, 0.0, 1.0), L, n_states=n_states)


@pytest.mark.parametrize("L", [16, 64])   # one each side of oracle._BANDED_MAX
@pytest.mark.parametrize("n_states", [2.5, 2.0, True, "2"])
def test_n_states_must_be_an_integer(L, n_states):
    # unchecked, a float reaches ARPACK (SystemError at L = 64), and True
    # passes eig_banded's integer range as 1 (L = 16)
    with pytest.raises(ValueError, match=f"^n_states must be an integer, got {n_states!r}$"):
        ground_energies(UVModel.diagonal(-5.0, 0.0, 1.0), L, n_states=n_states)


def test_n_states_is_at_most_the_sector_dimension_minus_two():
    # the diagonal model's 4 x 4 A1 sector has one state per orbit
    model = UVModel.diagonal(-8.0, 0.0, 1.0)
    dim = len(symmetric_orbits(4, SHELLS["diagonal"])[1])
    assert len(ground_energies(model, 4, n_states=dim - 2).energies) == dim - 2
    with pytest.raises(ValueError, match=f"^n_states must be at most {dim - 2} in the {dim}-state "
                                         f"symmetric sector, got {dim - 1}$"):
        ground_energies(model, 4, n_states=dim - 1)


@pytest.mark.parametrize("model", [
    UVModel.full(-8.0, -1.0, -0.5, 1.0),
    UVModel.full(-8.0, 0.0, 0.0, 1.0),
    UVModel.diagonal(-8.0, -2.0, 1.0),
    UVModel.diagonal(-8.0, 0.0, 1.0),
])
def test_a1_basis_is_one_invariant_orthonormal_column_per_orbit(model):
    # the group comes from the variant's orbits, so a zero V keeps it
    L = 6
    ops, orbits = symmetric_orbits(L, SHELLS[model.variant])
    group = model.point_group()
    assert len(group) == len(ops) == {"full": 8, "diagonal": 4}[model.variant]
    # (1, 2) has a different image under each of the 8 operations
    assert {(a + 2 * b, c + 2 * d) for a, b, c, d in group} == {g(1, 2) for g in ops}
    P = oracle._symmetric_basis(oracle._site_images(L, group)).toarray()
    assert P.shape == (L * L, len(orbits))
    assert abs(P.T @ P - np.eye(len(orbits))).max() < 1e-14
    x, y = np.divmod(np.arange(L * L), L)
    for g in ops:
        gx, gy = g(x, y)
        assert np.array_equal(P[(gx % L) * L + gy % L], P)
    # every column is constant on one orbit and zero off it
    site = {(i // L, i % L): i for i in range(L * L)}
    assert {frozenset(p for p, i in site.items() if P[i, k]) for k in range(P.shape[1])} == orbits
    dim = len(orbits)
    with pytest.raises(ValueError, match=f"in the {dim}-state symmetric sector"):
        ground_energies(model, L, n_states=dim - 1)


@pytest.mark.parametrize("L", [16, 64])   # one each side of oracle._BANDED_MAX
@pytest.mark.parametrize("model", [
    UVModel.full(0.0, -12.0, 0.0, 1.0),
    UVModel.diagonal(-10.0, -1.5, 1.0),
])
def test_ground_energies_equal_the_dense_spectrum_of_the_a1_block(model, L):
    _, orbits = symmetric_orbits(L, SHELLS[model.variant])
    entries = [(x * L + y, k, 1.0 / np.sqrt(len(orbit)))
               for k, orbit in enumerate(orbits) for x, y in orbit]
    rows, cols, values = zip(*entries)
    P = sp.csr_matrix((values, (rows, cols)), shape=(L * L, len(orbits)))
    dense = np.linalg.eigvalsh((P.T @ relative_hamiltonian(model, L) @ P).toarray())[:4]
    assert np.allclose(ground_energies(model, L).energies, dense, rtol=0.0, atol=1e-10)


def _l64_models():
    rng = random.Random(64)
    models = []
    for _ in range(3):
        tp = rng.uniform(0.5, 2.0)
        models.append(UVModel.full(rng.uniform(-14.0, 4.0) * tp, rng.uniform(-5.0, 2.0) * tp,
                                   rng.uniform(-5.0, 2.0) * tp, tp))
        models.append(UVModel.diagonal(rng.uniform(-14.0, 4.0) * tp, rng.uniform(-5.0, 2.0) * tp, tp))
    return models


@pytest.mark.parametrize("model, L", [
    (UVModel.full(-10.5, -1.2, -1.8, 0.7), 64),        # 561 states
    (UVModel.diagonal(-15.0, -2.5, 1.6), 48),          # 601 states
    (UVModel.diagonal(-15.0, -2.5, 1.6), 64),          # 1,057 states
] + [(model, 64) for model in _l64_models()])
def test_shift_lies_at_least_t_prime_below_the_dense_spectrum(model, L):
    # the shift-invert sectors: H - sigma >= t', so 1/(H - sigma) is bounded by 1/t'
    H = _sector_block(model, L, False)
    assert H.shape[0] > oracle._BANDED_MAX
    _, sigma = oracle._relative_band(model, L)
    assert sigma <= np.linalg.eigvalsh(H)[0] - model.t_prime


@pytest.mark.parametrize("model, L", [
    (UVModel.full(-1000.0, -1.0, -1.0, 1.0), 64),      # 561 states
    (UVModel.diagonal(-2000.0, -3.0, 2.0), 48),        # 601 states
    (UVModel.diagonal(-1000.0, -1.5, 1.0), 64),        # 1,057 states
])
def test_deep_couplings_keep_the_dense_spectrum_above_the_banded_cut(model, L):
    # sigma ~ U lies far below the continuum near -8t', where shift-invert
    # would resolve its levels only to ~1e-11 t'
    _, sigma = oracle._relative_band(model, L)
    assert sigma < -oracle._SHIFT_SPAN * model.t_prime
    H = _sector_block(model, L, False)
    assert H.shape[0] > oracle._BANDED_MAX
    got = ground_energies(model, L)
    assert np.allclose(got.energies, np.linalg.eigvalsh(H)[:4], rtol=0.0, atol=1e-12 * model.t_prime)


@pytest.mark.parametrize("model", _l64_models())
def test_eigsh_at_l64_equals_the_dense_spectrum_of_the_same_block(model):
    # L = 64 sectors hold 561 (full) and 1,057 (diagonal) states, above
    # oracle._BANDED_MAX, so ground_energies runs eigsh on the inverse of
    # the shifted band, from v0 = ones
    H = _sector_block(model, 64, False)
    assert H.shape[0] in (561, 1057)
    dense = np.linalg.eigvalsh(H)[:4]
    got = ground_energies(model, 64)
    assert np.allclose(got.energies, dense, rtol=0.0, atol=1e-10 * model.t_prime)
    edge = -8.0 * model.t_prime - oracle._BOUND_MARGIN / 64**2 * model.t_prime
    assert got.bound_count == np.sum(dense < edge)


def test_bound_count_equals_the_determinant_root_count():
    # the B1 (d-wave) bound state at -12.3543 lies outside the A1 sector
    model = UVModel.full(0.0, -12.0, 0.0, 1.0)
    assert ground_energies(model, 32).bound_count == len(pair_energies(model)) == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: near |E| = 60t' one scan step spans "
                   "about 5t', so two roots 0.38t' apart show no sign change")
def test_pair_energies_find_every_bound_state_of_a_deep_model():
    # ED at L = 32 binds -60.453734 and -60.078277 (diagonal), and -205.676612,
    # -200.020006 and -194.363398 (full); the determinant finds none and one
    for model in (UVModel.diagonal(-60.0, -60.0, 1.0), UVModel.full(-200.0, -200.0, -200.0, 1.0)):
        assert len(pair_energies(model)) == ground_energies(model, 32).bound_count, model


@pytest.mark.parametrize("L", [16, 24, 32, 48, 64])
@pytest.mark.parametrize("make", [lambda U: UVModel.diagonal(U, -1.0, 1.0),
                                  lambda U: UVModel.full(U, -1.0, -1.0, 1.0)],
                         ids=["diagonal", "full"])
def test_continuum_at_the_largest_coupling_equals_the_continuum_at_a_deep_one(make, L):
    # U = -2^128 t', the end of the accepted range, against -2^60 t': the bound
    # level follows U and the continuum near -8t' stays put.  At U = -1e100 t'
    # the banded solve put the full model's continuum 16 t' off
    largest, deep = (ground_energies(make(U), L).energies for U in (-2.0**128, -2.0**60))
    assert largest[0] == pytest.approx(-2.0**128, rel=1e-12)
    assert np.max(np.abs(np.subtract(largest[1:], deep[1:]))) <= 1e-12


def test_bound_count_deep_vs_free():
    deep = ground_energies(UVModel.diagonal(-12.0, 0.0, 1.0), 12)
    assert deep.bound_count >= 1
    free = ground_energies(UVModel.diagonal(0.0, 0.0, 1.0), 12)
    assert free.bound_count == 0
    assert free.energies[0] == pytest.approx(-8.0, abs=1e-9)


def test_extrapolation_exact_on_synthetic_data():
    Ls = [16, 24, 32]
    ex = extrapolate_energy(Ls, [-10.0 + 3.0 / L**2 for L in Ls])
    assert ex.E_inf == pytest.approx(-10.0, abs=1e-12)
    assert ex.reliable
    with pytest.raises(ValueError):
        extrapolate_energy([16, 24], [-10.0, -10.1])
    with pytest.raises(ValueError):
        extrapolate_energy(Ls, [-10.0])


def test_extrapolation_flags_non_monotone():
    ex = extrapolate_energy([16, 24, 32], [-10.0, -10.2, -10.1])
    assert not ex.reliable


def test_extrapolated_energy_matches_determinant_root():
    model = UVModel.diagonal(-8.0, -8.0, 1.0)
    roots = pair_energies(model)
    assert len(roots) == 2
    Ls = [16, 24, 32]
    for branch in range(2):
        es = [ground_energies(model, L, n_states=3).energies[branch] for L in Ls]
        ex = extrapolate_energy(Ls, es)
        assert ex.E_inf == pytest.approx(roots[branch].E, abs=1e-3)


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(tp=st.floats(0.5, 2.0), u=st.floats(-11.0, -9.0), v1=st.floats(-2.0, -1.0),
       v2=st.floats(-2.0, -1.0), diagonal=st.booleans())
def test_extrapolated_ground_matches_determinant_on_gapped_models(tp, u, v1, v2, diagonal):
    # gapped (lowest root below -9t'): the finite-size error falls off as 1/L^2
    if diagonal:
        model = UVModel.diagonal(u * tp, v1 * tp, tp)
    else:
        model = UVModel.full(u * tp, v1 * tp, v2 * tp, tp)
    roots = pair_energies(model)
    assume(roots and roots[0].E < -9.0 * tp)
    Ls = [16, 24, 32, 48]
    ex = extrapolate_energy(Ls, [ground_energies(model, L).energies[0] for L in Ls])
    assert abs(ex.E_inf - roots[0].E) <= 1e-3 * tp
