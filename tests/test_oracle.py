import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhsim import oracle
from hhsim.oracle import (
    FiniteLattice,
    brute_force_two_body,
    extrapolate_energy,
    ground_energies,
    inversion_projector,
    relative_hamiltonian,
)
from hhsim.pairs import UVModel, pair_energies


def test_lattice_validation():
    with pytest.raises(ValueError):
        FiniteLattice(3)
    with pytest.raises(ValueError):
        FiniteLattice(5)
    assert FiniteLattice(4).L == 4


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
    return H.toarray(), inversion_projector(L).toarray(), minus


def _exchange_sector():
    L = 4
    n = L * L
    H = oracle._pair_hamiltonian(UVModel.full(-5.0, -1.0, -0.5, 1.0), L)
    swap = [q * n + p for p in range(n) for q in range(n)]
    return H.toarray(), oracle._symmetric_basis(np.array(swap)).toarray(), swap


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
        full = brute_force_two_body(model, L, n_states=2)[0]
        assert red == pytest.approx(full, abs=1e-9)


def test_brute_force_size_guard():
    # L = 2 folds the +/-x hops onto one site; odd L has no reduced oracle
    for L in (2, 5, 10):
        with pytest.raises(ValueError):
            brute_force_two_body(UVModel.diagonal(-5.0, 0.0, 1.0), L)


@pytest.mark.parametrize("solve, L", [(ground_energies, 8), (brute_force_two_body, 4)])
@pytest.mark.parametrize("n_states", [0, -1])
def test_n_states_must_be_positive(solve, L, n_states):
    with pytest.raises(ValueError, match=f"n_states must be positive, got {n_states}"):
        solve(UVModel.diagonal(-5.0, 0.0, 1.0), L, n_states=n_states)


def test_n_states_is_at_most_the_sector_dimension_minus_two():
    # the 4 x 4 inversion sector has L^2/2 + 2 = 10 states
    model = UVModel.diagonal(-8.0, 0.0, 1.0)
    assert len(ground_energies(model, 4, n_states=8).energies) == 8
    with pytest.raises(ValueError, match="^n_states must be at most 8 in the 10-state "
                                         "symmetric sector, got 9$"):
        ground_energies(model, 4, n_states=9)


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
