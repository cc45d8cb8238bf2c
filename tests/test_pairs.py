import functools
import itertools
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsim import orbits, pairs
from hhsim.greens import GAMMA1, GAMMA2, GAMMA3, greens_M_table
from hhsim.pairs import (
    LFParams,
    UVModel,
    det_diagonal,
    det_full,
    lf_map_main,
    lf_map_physical,
    pair_dispersion_strong_coupling,
    pair_energies,
    pair_mass,
    pair_mass_onsite,
    threshold_physical_poles,
)
from hhsim.orbits import BindingThreshold, threshold_diagonal, threshold_full, threshold_physical

from _oracles import (
    binding_condition_full,
    bisection_roots,
    det_diagonal_by_hand,
    det_full_by_hand,
    fd_second_derivative,
    orbit_det_lu,
    threshold_diagonal_closed_form,
    threshold_full_closed_form,
)


def test_uvmodel_validation():
    with pytest.raises(ValueError):
        UVModel(t_prime=-1.0, U=0.0)
    with pytest.raises(ValueError):
        UVModel(t_prime=1.0, U=0.0, variant="nope")
    assert UVModel.diagonal(-4.0, -2.0, 1.0).V2 == -2.0


@pytest.mark.parametrize("make", [
    lambda: UVModel.full(-1.7e308, 0.0, 0.0, 1e307),
    lambda: UVModel.diagonal(-1e308, -1e308, 1e300),
])
def test_uvmodel_rejects_a_search_depth_that_overflows(make):
    # couplings within 2^128 t' of a huge t' whose |U| + 8|V1| + 8|V2| + 12t'
    # is inf: the scan grid to that depth cannot be counted
    with pytest.raises(ValueError, match=r"^search depth \|U\| \+ 8\|V1\| \+ 8\|V2\| \+ 12t' "
                                         r"must be finite, got inf$"):
        make()
    # a deep but finite search still solves
    assert len(pair_energies(UVModel.diagonal(-1e20, -1.0, 1.0))) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["t_prime", "U", "V1", "V2"])
def test_uvmodel_rejects_non_finite_fields(field, bad):
    fields = {"t_prime": 1.0, "U": -4.0, "V1": -1.0, "V2": -1.0}
    fields[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        UVModel(**fields)


@pytest.mark.parametrize("V1", [-2.0, 0.5, 1e-300])
def test_diagonal_uvmodel_rejects_V1(V1):
    with pytest.raises(ValueError, match="V1"):
        UVModel(t_prime=1.0, U=-4.0, V1=V1, V2=-1.0, variant="diagonal")


def test_shells_are_the_literal_tables():
    assert list(UVModel.diagonal(-4.0, -2.0, 1.0).shells().items()) == [
        ((0, 0), -4.0), ((1, 1), -2.0), ((-1, -1), -2.0)]
    assert list(UVModel.full(-6.0, -1.5, -0.5, 1.0).shells().items()) == [
        ((0, 0), -6.0),
        ((1, 0), -1.5), ((-1, 0), -1.5), ((0, 1), -1.5), ((0, -1), -1.5),
        ((1, 1), -0.5), ((1, -1), -0.5), ((-1, 1), -0.5), ((-1, -1), -0.5)]


@pytest.mark.parametrize("variant", sorted(orbits._ORBITS))
def test_every_orbit_member_has_the_count_row_of_the_first(variant):
    # the determinant takes row i at the first member of orbit i, which
    # is exact only if every member sees the same M_nl counts
    table = orbits._ORBITS[variant]
    for i, (_, members) in enumerate(table):
        for r in members:
            assert np.array_equal(orbits._orbit_counts(r, table),
                                  np.array(orbits._COUNTS[variant])[:, i, :]), (i, r)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(U=st.floats(-14.0, 4.0), V1=st.floats(-6.0, 6.0), V2=st.floats(-6.0, 6.0),
       tp=st.floats(0.5, 2.0))
def test_determinants_equal_hand_expansions(U, V1, V2, tp):
    # relative to the size of the determinant's terms: no entry exceeds
    # 1 + 4|v| M_00, so near a root the tolerance does not collapse to 0
    U, V1, V2 = U * tp, V1 * tp, V2 * tp
    E = tp * (-8.0 - np.geomspace(1e-9, 30.0, 25))
    M00 = greens_M_table(E, tp)[0]
    for got, ref, vs in ((det_diagonal(E, U, V2, tp), det_diagonal_by_hand(E, U, V2, tp), (U, V2)),
                         (det_full(E, U, V1, V2, tp), det_full_by_hand(E, U, V1, V2, tp), (U, V1, V2))):
        scale = (1.0 + 4.0 * max(abs(v) for v in vs) * M00) ** len(vs)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), scale))


def test_determinants_are_roots_of_pair_energies():
    states = pair_energies(UVModel.diagonal(-6.0, -3.0, 1.0))
    assert states
    for s in states:
        assert abs(det_diagonal(s.E, -6.0, -3.0, 1.0)) < 1e-8
    states = pair_energies(UVModel.full(-6.0, -2.0, -1.0, 1.0))
    assert states
    for s in states:
        assert abs(det_full(s.E, -6.0, -2.0, -1.0, 1.0)) < 1e-8


def _largest_cofactor_term(B):
    """max |B_0p B_1q B_2r| over the permutations (p, q, r) of a 3x3 B,
    or |B_0p B_1q| of a 2x2, at every energy; B has shape energies + (n, n)."""
    return np.max([np.prod([np.abs(B[..., i, p]) for i, p in enumerate(perm)], axis=0)
                   for perm in itertools.permutations(range(B.shape[-1]))], axis=0)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(variant=st.sampled_from(sorted(orbits._ORBITS)), tp=st.floats(0.3, 3.0),
       depths=st.lists(st.floats(-10.0, 2.5), min_size=1, max_size=8),
       potentials=st.lists(st.floats(-40.0, 40.0), min_size=3, max_size=3))
def test_orbit_det_equals_the_lu_determinant(variant, tp, depths, potentials):
    # E = -8t' - t' 10^u reaches from 1e-10 t' below the band edge to
    # kappa = 8t'/|E| below 0.025, past the series switch at kappa = 0.7;
    # each draw adds one energy within 1e-9 t' of the edge and one past
    # the switch.  The tolerance is relative to the largest term of the
    # cofactor sum, since near a root the determinant cancels to 0
    N = np.array(orbits._COUNTS[variant])
    v = tuple(p * tp for p in potentials[:N.shape[1]])
    E = tp * (-8.0 - 10.0 ** np.array(depths + [-9.5, 1.0]))
    for M in (greens_M_table(E, tp), greens_M_table(E[0], tp)):
        ref = orbit_det_lu(M, N, v)
        B = np.einsum("kij,k...->...ij", N * v, M) + np.eye(N.shape[1])
        got = pairs._orbit_det(M, variant, v)
        assert np.shape(got) == np.shape(ref)
        assert np.all(np.abs(got - ref) <= 1e-12 * _largest_cofactor_term(B))


def test_determinants_accept_energy_arrays():
    E = -8.0 - np.geomspace(1e-9, 30.0, 7)
    assert np.array_equal(det_full(E, -6.0, -2.0, -1.0, 1.0),
                          [det_full(e, -6.0, -2.0, -1.0, 1.0) for e in E])
    assert np.array_equal(det_diagonal(E, -6.0, -3.0, 1.0),
                          [det_diagonal(e, -6.0, -3.0, 1.0) for e in E])


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(U=st.floats(-14.0, 2.0), dU=st.floats(0.05, 8.0),
       V1=st.floats(-4.0, 4.0), V2=st.floats(-4.0, 4.0), tp=st.floats(0.5, 2.0))
def test_root_count_monotone_in_attraction(U, dU, V1, V2, tp):
    # a more attractive on-site U lowers the Hamiltonian, so no bound
    # pair can be lost
    weaker = pair_energies(UVModel.full(U * tp, V1 * tp, V2 * tp, tp))
    stronger = pair_energies(UVModel.full((U - dU) * tp, V1 * tp, V2 * tp, tp))
    assert len(stronger) >= len(weaker)


def test_full_reduces_to_pure_onsite():
    # with V1 = V2 = 0 both determinant formulations agree
    a = pair_energies(UVModel.full(-6.0, 0.0, 0.0, 1.0))
    b = pair_energies(UVModel.diagonal(-6.0, 0.0, 1.0))
    assert len(a) == len(b) == 1
    assert a[0].E == pytest.approx(b[0].E, abs=1e-9)


def test_onsite_binding_for_any_attraction():
    # a 2D lattice binds a pair for arbitrarily weak on-site attraction
    states = pair_energies(UVModel.diagonal(-1.0, 0.0, 1.0))
    assert len(states) == 1
    assert states[0].E < -8.0


def test_energies_sorted_and_below_band():
    states = pair_energies(UVModel.diagonal(-8.0, -8.0, 1.0))
    assert len(states) == 2
    assert states[0].E < states[1].E < -8.0


def _seeded_models():
    """A seeded set of diagonal and full models: half of them on either
    side of the closed-form U_cr, close to it or farther off, and half
    drawn at random, many with two bound pairs."""
    rng = random.Random(2024)
    models = []
    for i in range(240):
        tp = rng.uniform(0.5, 2.0)
        if i % 4 == 0:
            V = rng.uniform(-6.0, 3.5) * tp
            factor = rng.choice([1.5, 1.05, 0.95, 0.7])
            U_cr = threshold_diagonal(V, tp).U_cr
            models.append(UVModel.diagonal(U_cr * factor if math.isfinite(U_cr) else -4.0 * tp, V, tp))
        elif i % 4 == 1:
            V1, V2 = rng.uniform(-6.0, 0.5) * tp, rng.uniform(-6.0, 0.5) * tp
            factor = rng.choice([1.25, 1.05, 0.95, 0.8])
            U_cr = threshold_full(V1, V2, tp).U_cr
            models.append(UVModel.full(U_cr * factor if math.isfinite(U_cr) else -4.0 * tp, V1, V2, tp))
        elif i % 4 == 2:
            models.append(UVModel.diagonal(rng.uniform(-12.0, 4.0) * tp, rng.uniform(-8.0, 2.0) * tp, tp))
        else:
            models.append(UVModel.full(rng.uniform(-12.0, 4.0) * tp, rng.uniform(-8.0, 2.0) * tp,
                                       rng.uniform(-8.0, 2.0) * tp, tp))
    return models


SEEDED_MODELS = _seeded_models()


def _recorded_scan(model):
    """The roots, in units of t', that _scan_roots returned to
    pair_energies(model), and the (f, xs, vals, tol) it was passed."""
    scan, calls = pairs._scan_roots, []

    def recording(*a):
        roots = scan(*a)
        calls.append((roots.tolist(), a))
        return roots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairs, "_scan_roots", recording)
        pair_energies(model)
    return calls[0]


def test_every_root_is_bracketed_to_tolerance_and_every_scan_bracket_has_one():
    counts = {0: 0, 1: 0, 2: 0}
    for model in SEEDED_MODELS:
        roots, (f, _, scan, _) = _recorded_scan(model)
        assert len(roots) == np.sum(scan[:-1] * scan[1:] < 0.0) + np.sum(scan[:-1] == 0.0)
        tol = pairs._ROOT_TOL
        for r in roots:
            below, above = f(np.array([r - tol, r + tol]))
            assert below * above < 0.0, (model, r)
        counts[len(roots)] += 1
    # the set exercises no-root, one-root and two-root solves
    assert min(counts.values()) >= 20, counts


def _counting(f):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return f(*args)
    return counted, calls


def test_root_bearing_solve_inside_the_scan_takes_one_greens_table(monkeypatch):
    # the scan reads the import-time table; the first estimate, from the
    # 12 scan values around a bracket, lies within tol of its root, so one
    # polish call closes every bracket at once
    assert max(pairs._search_bracket_depth(m) / m.t_prime for m in SEEDED_MODELS) \
        < 8.0 * (1.0 + math.exp(pairs._SCAN_S[-1]))
    counted, calls = _counting(greens_M_table)
    monkeypatch.setattr(pairs, "greens_M_table", counted)
    inside = 0
    for model in SEEDED_MODELS:
        calls[0] = 0
        roots, (_, xs, vals, _) = _recorded_scan(model)
        k = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        if not roots:
            assert calls[0] == 0, model
        elif k.min() >= 6 and k.max() + 1 <= xs.size - 7:
            assert calls[0] == 1, model
            inside += 1
        else:
            assert 0 < calls[0] <= 2, model
    assert inside >= 180


def _pair_scan_models(seed):
    """Models like the pair-scan benchmark's: threshold pairs on either
    side of the closed-form U_cr, and deep all-attractive models."""
    rng = random.Random(seed)
    models = []
    for _ in range(4):
        tp = rng.uniform(0.5, 2.0)
        V = rng.uniform(3.5, 6.0) * tp
        U_cr = threshold_diagonal(V, tp).U_cr
        models += [UVModel.diagonal(U_cr * rng.uniform(1.25, 1.5), V, tp),
                   UVModel.diagonal(U_cr * rng.uniform(0.7, 0.8), V, tp)]
        tp = rng.uniform(0.5, 2.0)
        V1, V2 = rng.uniform(0.5, 6.0) * tp, rng.uniform(0.5, 6.0) * tp
        U_cr = threshold_full(V1, V2, tp).U_cr
        models += [UVModel.full(U_cr * rng.uniform(1.25, 1.5), V1, V2, tp),
                   UVModel.full(U_cr * rng.uniform(0.7, 0.8), V1, V2, tp)]
    for _ in range(2):
        tp = rng.uniform(0.5, 2.0)
        models += [UVModel.diagonal(rng.uniform(-12.0, -6.0) * tp, rng.uniform(-7.0, -1.0) * tp, tp),
                   UVModel.full(rng.uniform(-12.0, -8.0) * tp, rng.uniform(-7.0, -1.0) * tp,
                                rng.uniform(-7.0, -1.0) * tp, tp)]
    return models


# search-bracket depths of 2,028, 2,020 and 1,612 t', s = 5.5, 5.5 and 5.3
DEEP_MODELS = [UVModel.full(-2000.0, -1.0, -1.0, 1.0), UVModel.diagonal(-2000.0, -1.0, 1.0),
               UVModel.full(-600.0, -3.0, 2.0, 0.4)]


def _rng5_models():
    """ROADMAP item 13's test set: 400 models from numpy's default_rng(5),
    alternating diagonal and full, with t' in [0.3, 3], U in [-40, 10] t'
    and V in [-10, 4] t'."""
    rng = np.random.default_rng(5)
    models = []
    for i in range(400):
        tp = rng.uniform(0.3, 3.0)
        U = rng.uniform(-40.0, 10.0) * tp
        if i % 2 == 0:
            models.append(UVModel.diagonal(U, rng.uniform(-10.0, 4.0) * tp, tp))
        else:
            models.append(UVModel.full(U, rng.uniform(-10.0, 4.0) * tp,
                                       rng.uniform(-10.0, 4.0) * tp, tp))
    return models


@functools.cache
def _rng5_greens_calls():
    """The _rng5_models() and the greens_M_table calls of each one's solve."""
    counted, calls = _counting(greens_M_table)
    models, per_model = _rng5_models(), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairs, "greens_M_table", counted)
        for model in models:
            calls[0] = 0
            pair_energies(model)
            per_model.append(calls[0])
    return models, per_model


def _stencil_misses():
    """The _rng5_models() whose solve makes more than one Green's-table
    call: a stencil estimate misses a root by more than tol, so secant
    steps polish it."""
    models, calls = _rng5_greens_calls()
    return [model for model, n in zip(models, calls) if n > 1]


def test_rng5_models_take_at_most_396_greens_tables():
    # 374 root-bearing solves: 352 close every bracket in one polish
    # call, 22 (the stencil misses) in two
    models, calls = _rng5_greens_calls()
    assert sum(calls) <= 396
    assert len(_stencil_misses()) >= 20


# the stencil misses are a callable: their solves are counted when the test runs
@pytest.mark.parametrize("models", [SEEDED_MODELS] + [_pair_scan_models(seed) for seed in (1, 2, 3)]
                         + [DEEP_MODELS, _stencil_misses],
                         ids=["seeded", "pair-scan-1", "pair-scan-2", "pair-scan-3", "deep",
                              "stencil-misses"])
def test_pair_energies_equal_a_reference_bisection_on_the_same_scan(models):
    if callable(models):
        models = models()
    for model in models:
        roots, args = _recorded_scan(model)
        reference = bisection_roots(*args)
        assert len(roots) == len(reference), model
        assert np.all(np.abs(np.subtract(roots, reference)) <= pairs._ROOT_TOL), model


def test_deep_models_take_one_greens_table_per_polish_call(monkeypatch):
    # each polish call is one det_* call and one Green's table; the scan,
    # however deep, reads the import-time table and makes none
    counted = {name: _counting(getattr(pairs, name))
               for name in ("greens_M_table", "det_diagonal", "det_full")}
    for name, (f, _) in counted.items():
        monkeypatch.setattr(pairs, name, f)
    for model in DEEP_MODELS:
        for _, calls in counted.values():
            calls[0] = 0
        assert pair_energies(model)
        dets = counted["det_diagonal"][1][0] + counted["det_full"][1][0]
        assert counted["greens_M_table"][1][0] == dets >= 1, model


def _float_spaced_draws(seed, n):
    """n models with U log-uniform from -2e4 t' to -1e6 t', alternating
    variants, from random.Random(seed)."""
    rng = random.Random(seed)
    models = []
    for i in range(n):
        tp = rng.uniform(0.5, 2.0)
        U = -(10.0 ** rng.uniform(math.log10(2e4), 6.0)) * tp
        V1, V2 = rng.uniform(-5.0, 2.0) * tp, rng.uniform(-5.0, 2.0) * tp
        models.append(UVModel.diagonal(U, V2, tp) if i % 2 else UVModel.full(U, V1, V2, tp))
    return models


def _float_spaced_models():
    """Solves whose brackets can end as two adjacent floats: beyond
    |E|/t' = 8,192 the float spacing of E/t' exceeds the 1e-12 stop
    width.  UVModel.diagonal(-20000, 0, 1) once never returned; 40 are
    drawn from random.Random(23); the last two, the 29th draws of
    random.Random(2) and random.Random(9), took 5 and 6 polish calls
    while the polish cluster's unit was tol alone."""
    return ([UVModel.diagonal(-20000.0, 0.0, 1.0)] + _float_spaced_draws(23, 40)
            + [_float_spaced_draws(seed, 29)[28] for seed in (2, 9)])


def test_deep_roots_close_within_one_float_spacing_of_a_reference_bisection(monkeypatch):
    # at most four polish calls per solve; a fifth fails the test where a
    # bracket that never closes would loop for ever
    scan, calls, args, found = pairs._scan_roots, [0], [], []

    def counting(f, xs, vals, tol):
        def counted(E):
            calls[0] += 1
            assert calls[0] <= 4, "more than four polish calls"
            return f(E)
        args.append((f, xs, vals, tol))
        found.append(scan(counted, xs, vals, tol))
        return found[-1]

    monkeypatch.setattr(pairs, "_scan_roots", counting)
    for model in _float_spaced_models():
        calls[0] = 0
        args.clear()
        found.clear()
        assert pair_energies(model), model
        roots = found[0]
        reference = bisection_roots(*args[0])
        assert len(roots) == len(reference), model
        # one float spacing where it exceeds the stop width, else the width
        bound = np.maximum(np.spacing(np.abs(reference)), args[0][3])
        assert np.all(np.abs(np.subtract(roots, reference)) <= bound), model


@pytest.mark.parametrize("t_prime", [0.3, 1.0, 1.7])
def test_scan_table_is_the_greens_table_at_unit_t_prime(t_prime):
    # M(E, t') = M(E/t', 1)/t'.  x t' is rounded to a float E, so each
    # table entry must lie between t' M at E and at the float on the side
    # of the exact product (M_nl is monotone in E; at t' = 1 both are E),
    # to 1e-14 of the column's M_00, the largest |M_nl|: near kappa = 0.7
    # the closed forms of M_20..M_22 cancel to ~1e-13 of their own size
    exact = [Fraction(x) * Fraction(t_prime) for x in pairs._SCAN_X.tolist()]
    E = np.array([float(p) for p in exact])
    other = np.array([e if p == e else np.nextafter(e, math.inf if p > e else -math.inf)
                      for p, e in zip(exact, E)])
    at_E, at_other = t_prime * greens_M_table(E, t_prime), t_prime * greens_M_table(other, t_prime)
    table = pairs._SCAN_M
    assert table.shape == (6, pairs._SCAN_X.size)
    outside = np.maximum(np.minimum(at_E, at_other) - table, table - np.maximum(at_E, at_other))
    assert np.all(outside <= 1e-14 * table[0])
    if t_prime == 1.0:
        assert np.array_equal(table, greens_M_table(pairs._SCAN_X, 1.0))


def test_every_scan_grid_is_finer_than_the_240_point_scan_and_reaches_the_bracket():
    # the 240-point scan the table replaced spaced its points
    # (s_hi - s_lo)/239 apart; the fixed 0.1 step is never coarser
    s_lo = math.log(pairs._EDGE_EPS / 8.0)
    for model in SEEDED_MODELS + _pair_scan_models(1) + DEEP_MODELS:
        tp = model.t_prime
        s_hi = math.log(pairs._search_bracket_depth(model) / (8.0 * tp) - 1.0)
        _, (_, xs, _, _) = _recorded_scan(model)
        s = np.log(-xs / 8.0 - 1.0)
        assert abs(s[0] - s_lo) < 1e-4, model
        assert np.all(np.diff(s) <= (s_hi - s_lo) / 239), model
        assert s[-2] < s_hi <= s[-1], model


@pytest.mark.parametrize("grid", ["uniform", "scan"])
def test_stencil_estimate_is_the_zero_of_a_polynomial_of_degree_up_to_11(grid):
    # a polynomial of degree <= 11 in the grid index (in x on a uniform
    # grid, in s on the pair scan's) is its own 12-point interpolant, so
    # the estimate is its zero, at any bracket, the grid's ends included
    rng = np.random.default_rng(17)
    j = np.arange(60)
    u, xs = (1.0 + j / 59.0,) * 2 if grid == "uniform" else pairs._scan_grid(j)
    h = u[1] - u[0]
    for degree in list(range(1, 12)) * 4:
        r = rng.uniform(u[0], u[-1])
        # the other roots lie at least two grid steps from r
        others = r + rng.choice([-1.0, 1.0], degree - 1) * rng.uniform(2.0, 30.0, degree - 1) * h
        vals = (u - r) * np.prod(u[:, None] - others, axis=1)
        k = np.array([int((r - u[0]) // h)])
        assert vals[k] * vals[k + 1] < 0.0
        zero = r if grid == "uniform" else -8.0 * (1.0 + math.exp(r))
        assert abs(pairs._stencil_zeros(xs, vals, k)[0] - zero) <= 1e-13 * abs(zero), (degree, r)


def test_stencil_estimate_goes_on_past_a_clipped_bracket():
    # the Newton start in [24, 25] heads for the close roots 25.55 and
    # 25.65 and is clipped onto a grid point, so that bracket has no
    # estimate; [34, 35] needs four steps, which it still takes
    xs = np.arange(40.0)
    vals = (xs - 24.5) * (xs - 25.55) * (xs - 25.65) * (xs - 34.4)
    k = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    assert list(k) == [24, 34]
    estimates = pairs._stencil_zeros(xs, vals, k)
    assert not np.isfinite(estimates[0])
    assert abs(estimates[1] - 34.4) <= 1e-13 * 34.4


@pytest.mark.parametrize("f", [lambda x: np.clip(x - 0.3, -1e-3, 1e-3),
                               lambda x: np.tanh(1e6 * (x - 0.3))], ids=["clipped-line", "tanh-step"])
def test_stencil_estimate_falls_back_quietly_on_flat_pieces(f):
    # each end of the bracket shares its f value with its outer grid
    # neighbour, so the 12 values are a step; Newton starts from the linear
    # zero, the midpoint, and stays inside the bracket, and a
    # RuntimeWarning fails the test
    xs = -1.0 + 2.0 * np.arange(240) / 239
    vals = f(xs)
    k = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    assert k.size == 1 and np.all(vals[k[0] - 1:k[0] + 1] == vals[k[0]])
    estimate = pairs._stencil_zeros(xs, vals, k)[0]
    assert xs[k[0]] < estimate < xs[k[0] + 1]


def _scan(f, lo, hi, n, tol):
    """_scan_roots on an n-point grid over [lo, hi], sampled by f itself,
    so a counting f counts the scan as one call."""
    xs = lo + (hi - lo) * np.arange(n) / (n - 1)
    return pairs._scan_roots(f, xs, f(xs), tol)


def test_scan_roots_bounds_a_multiple_root_by_four_bisections():
    # false position stalls on (x - c)^9; the stall rule bisects
    c, tol = 1.0 / 3.0, 1e-12
    f, calls = _counting(lambda x: (x - c) ** 9)
    roots = _scan(f, 0.0, 1.0, 2, tol)
    bisection = 1 + math.ceil(math.log2(1.0 / tol))
    assert calls[0] <= 4 * bisection
    assert len(roots) == 1 and abs(roots[0] - c) <= tol


def test_scan_roots_halves_a_bracket_wider_than_the_cluster_every_two_calls():
    # the cluster spans about 1.1e12 tol = 1.1 about c, and the estimates
    # of (x - c)^9 stay near one end of [0, 1000]: only the midpoint
    # steps after calls that do not halve the bracket bring it down
    c, tol, width = 1000.0 / 3.0, 1e-12, 1000.0
    f, calls = _counting(lambda x: (x - c) ** 9)
    roots = _scan(f, 0.0, width, 2, tol)
    assert calls[0] <= 1 + 2 * math.ceil(math.log2(width / tol))
    assert len(roots) == 1 and abs(roots[0] - c) <= tol


def test_scan_roots_closes_a_straight_line_in_two_calls():
    # the scan, then one polish call around the stencil's exact zero
    f, calls = _counting(lambda x: 2.5 * (x - 0.3))
    roots = _scan(f, -1.0, 1.0, 240, 1e-12)
    assert calls[0] <= 2
    assert len(roots) == 1 and abs(roots[0] - 0.3) <= 1e-12


@pytest.mark.parametrize("n, calls_taken", [(2, 2), (3, 1)])
def test_scan_roots_exact_zero_closes_its_bracket(n, calls_taken):
    # n = 2: the secant point of [0, 1] is the zero; n = 3: a grid point is
    f, calls = _counting(lambda x: x - 0.5)
    roots = _scan(f, 0.0, 1.0, n, 1e-12)
    assert roots.tolist() == [0.5]
    assert calls[0] == calls_taken


def test_scan_roots_resolves_a_steep_step():
    # tanh saturates to +/-1 on the scan grid, so the first estimates are
    # secant points and midpoints until the cluster resolves the slope;
    # bisection would take 33 polish calls
    c, tol = 1.0 / 3.0, 1e-12
    f, calls = _counting(lambda x: np.tanh(1e6 * (x - c)))
    roots = _scan(f, 0.0, 1.0, 240, tol)
    assert calls[0] <= 10
    assert len(roots) == 1 and abs(roots[0] - c) <= tol


def test_scan_roots_closes_on_a_zero_at_a_cluster_point():
    # the secant point of [0, 1] is 1/2 and the cluster holds 1/2 + tol,
    # exactly where f is zero; no sign change is nearer
    tol = 2.0**-40
    r = 0.5 + tol
    f, calls = _counting(lambda x: np.sign(x - r))
    roots = _scan(f, 0.0, 1.0, 2, tol)
    assert roots.tolist() == [r]
    assert calls[0] == 2


def test_scan_roots_polishes_two_roots_in_adjacent_brackets():
    # scan brackets [0.2, 0.3] and [0.3, 0.4], polished in the same calls;
    # the stencil spans all 11 points, so its interpolant is the quadratic
    # itself, and Newton from each bracket's linear zero reaches the exact
    # root: one polish call closes both brackets
    f, calls = _counting(lambda x: (x - 0.27) * (x - 0.33))
    roots = _scan(f, 0.0, 1.0, 11, 1e-12)
    assert calls[0] <= 2
    assert np.all(np.abs(roots - [0.27, 0.33]) <= 1e-12)


def test_scan_roots_falls_back_quietly_on_flat_pieces():
    # the clipped line is flat beyond 1e-3 of its root, so the stencil's
    # estimate is the scan bracket's midpoint; the secant steps through
    # the later brackets' two ends close it, with no RuntimeWarning
    f, calls = _counting(lambda x: np.clip(x - 0.3, -1e-3, 1e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _scan(f, -1.0, 1.0, 240, 1e-12)
    assert calls[0] <= 4
    assert len(roots) == 1 and abs(roots[0] - 0.3) <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e300])
def test_scan_roots_brackets_by_sign_not_by_product(scale):
    # the two ends' product underflows to -0.0 (1e-200) or overflows to
    # -inf (1e300); either way the ends bracket the root, with no RuntimeWarning
    f, _ = _counting(lambda x: scale * (x - 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _scan(f, 0.0, 1.0, 2, 1e-12)
    assert len(roots) == 1 and abs(roots[0] - 0.3) <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_scan_roots_closes_a_bracket_across_a_power_of_two(sign):
    # [-8192, -8192 + 2^-39] holds one float between its ends, the root
    # -8192 + 2^-40: the spacing is 2^-39 beyond |x| = 8192 and 2^-40 inside,
    # so the cluster's ends, four outer spacings apart, pass each other and
    # are capped at the midpoint.  Clipped onto the bracket's ends instead,
    # the polish never closed: a bound of 10 calls fails the test there
    r, calls = sign * (-8192.0 + 2.0**-40), [0]

    def f(x):
        calls[0] += 1
        assert calls[0] <= 10, "more than ten calls"
        return x - r
    roots = _scan(f, sign * -8192.0, sign * (-8192.0 + 2.0**-39), 2, 1e-12)
    assert roots.tolist() == [r]
    assert calls[0] == 2


@pytest.mark.parametrize("couplings, tp", [
    *((c, tp) for tp in (1e-310, 1e-300, 1e-160, 1e160, 1e300) for c in ((-9.0, -1.0), (-9.0, -1.0, -1.0))),
    # roots near the end of the float range, with couplings within 2^128 t'
    ((-100.0, -0.5), 1e306), ((-100.0, -0.5, -0.5), 1e306), ((-150.0, 0.0, 0.0), 1e306)], ids=str)
def test_pair_energies_are_t_prime_times_the_roots_at_unit_t_prime(couplings, tp):
    # E/t' depends only on U/t' and V/t' ((U, V2) make a diagonal model, (U, V1, V2)
    # a full one).  Solved at t' itself, the Green's table's |E|^2 overflowed or
    # underflowed: an EllipticDomainError, a root 5e-8 off, or an overflow warning
    # and no root at all
    def make(t):
        return (UVModel.diagonal if len(couplings) == 2 else UVModel.full)(*(c * t for c in couplings), t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = [s.E for s in pair_energies(make(tp))]
    expected = [Fraction(s.E) * Fraction(tp) for s in pair_energies(make(1.0))]
    assert len(roots) == len(expected) >= 1, tp
    assert all(abs(Fraction(r) - e) <= Fraction(1e-12) * abs(e)
               for r, e in zip(roots, expected)), (tp, roots, expected)


def test_scan_table_reaches_the_deepest_search_in_the_coupling_range():
    # every coupling at 2^128 t' sets the deepest search bracket; its first
    # grid point at or beyond it is the table's last but one
    R = orbits._COUPLING_RANGE
    deepest = pairs._search_bracket_depth(UVModel.full(-R, -R, -R, 1.0))
    s_hi = math.log(deepest / 8.0 - 1.0)
    assert pairs._SCAN_S[-3] < s_hi <= pairs._SCAN_S[-2]
    assert pairs._SCAN_X.size == 1148 and pairs._SCAN_M.shape == (6, 1148)


def test_huge_couplings_solve_without_an_overflow_warning():
    # the largest model accepted: every coupling at -2^128 t'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = pair_energies(UVModel.full(-2**128, -2**128, -2**128, 1.0))
    assert [r.E for r in roots] == [pytest.approx(-2.0**128, rel=1e-12)]


@pytest.mark.parametrize("tp", [0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 2.9])
def test_threshold_diagonal_asymptote_and_pole(tp):
    th = threshold_diagonal(1e6 * tp, tp)
    assert th.U_cr == pytest.approx(-1.5 * math.pi * tp, abs=1e-3 * tp)
    V_pole = -3.0 * math.pi * tp / 4.0
    pole = threshold_diagonal(V_pole, tp)
    assert pole.pole and math.isinf(pole.U_cr)
    # the full model's pole at V1 = -2t', V2 = 0 is exact in floats
    full = threshold_full(-2.0 * tp, 0.0, tp)
    assert full.pole and math.isinf(full.U_cr)
    # U_cr crosses the pole through infinity, from one sign to the other
    below, above = (threshold_diagonal(V_pole * (1.0 + d), tp) for d in (-1e-6, 1e-6))
    assert not below.pole and not above.pole
    assert math.isfinite(below.U_cr) and math.isfinite(above.U_cr)
    assert below.U_cr * above.U_cr < 0.0
    assert threshold_diagonal(0.0, tp).U_cr == 0.0


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(tp=st.floats(0.3, 3.0), v1=st.floats(-10.0, 4.0), v2=st.floats(-10.0, 4.0))
def test_thresholds_equal_the_closed_forms(tp, v1, v2):
    V1, V2 = v1 * tp, v2 * tp
    # each threshold with the terms of its closed form's denominator
    for got, ref, den_terms in (
            (threshold_diagonal(V2, tp), threshold_diagonal_closed_form(V2, tp),
             (tp, 4.0 * V2 / (3.0 * math.pi))),
            (threshold_full(V1, V2, tp), threshold_full_closed_form(V1, V2, tp),
             (GAMMA1 * V1 * V2, 0.5 * tp * V1, GAMMA2 * tp * V2, tp * tp))):
        assert got.pole == ref.pole
        if abs(sum(den_terms)) > 1e-6 * sum(map(abs, den_terms)):
            assert abs(got.U_cr - ref.U_cr) <= 1e-10 * abs(ref.U_cr)


def _closed_form_in_range(closed_form, couplings, t_prime):
    """closed_form at the couplings and t' divided by one power of two 2^k,
    its U_cr times 2^k.  U_cr is homogeneous of degree 1 in them, and k, the
    mean of the binary exponents of max |V| and t', brings V/2^k and t'/2^k
    to about sqrt(|V|/t') and its inverse, so no product of the closed form
    overflows, however far |V|/t' lies from 1."""
    k = (math.frexp(max(map(abs, couplings)))[1] + math.frexp(t_prime)[1]) // 2
    th = closed_form(*(math.ldexp(v, -k) for v in couplings), math.ldexp(t_prime, -k))
    return BindingThreshold(math.ldexp(th.U_cr, k), th.pole)


_RANGE = 2.0 ** 128   # the largest |coupling|/t' accepted
_RANGE_MESSAGE = r" must lie in \[-2\^128 t', 2\^128 t'\] = \[.+\], got "


@pytest.mark.parametrize("tp", [1.0, 0.37])
def test_thresholds_equal_the_closed_forms_out_to_the_end_of_the_float_range(tp):
    # |V|/t' from 1e-300 to 2^128 in half decades, and 2^128 itself; no point lies
    # within 5% of a pole.  With V2 = -V1 the full model's U_cr ~ GAMMA3 V^2/t' is
    # subnormal below |V|/t' = 1e-160: two ulps of 0 apart.  Every half decade
    # beyond 2^128 t', and the largest float, is rejected with the coupling's name
    bound = _RANGE * tp
    sizes = [10.0 ** (j / 2) * tp for j in range(-600, 617)] + [bound, sys.float_info.max]
    for size in sizes:
        for V in (size, -size):
            for threshold, couplings, closed_form in (
                    (threshold_diagonal, (V,), threshold_diagonal_closed_form),
                    (threshold_full, (V, V), threshold_full_closed_form),
                    (threshold_full, (V, -V), threshold_full_closed_form)):
                if size > bound:
                    with pytest.raises(ValueError, match="^V1?" + _RANGE_MESSAGE):
                        threshold(*couplings, tp)
                    continue
                got = threshold(*couplings, tp)
                ref = _closed_form_in_range(closed_form, couplings, tp)
                assert not got.pole and not ref.pole, (V, tp)
                assert abs(got.U_cr - ref.U_cr) <= 1e-10 * abs(ref.U_cr) + 2 * math.ulp(0.0), \
                    (V, tp, got, ref)


@pytest.mark.parametrize("tp", [1.0, 0.37, 3.0])
def test_every_entry_point_accepts_a_coupling_of_2_to_the_128_t_prime(tp):
    # 2^128 t' is exact, so the bound itself is in range; there the thresholds
    # equal the closed forms, and a pair solve raises no warning
    for V in (_RANGE * tp, -_RANGE * tp):
        for got, couplings, closed_form in (
                (threshold_diagonal(V, tp), (V,), threshold_diagonal_closed_form),
                (threshold_full(V, 0.0, tp), (V, 0.0), threshold_full_closed_form),
                (threshold_full(0.0, V, tp), (0.0, V), threshold_full_closed_form),
                (threshold_full(V, V, tp), (V, V), threshold_full_closed_form)):
            ref = _closed_form_in_range(closed_form, couplings, tp)
            assert not got.pole and not ref.pole, (couplings, tp)
            assert abs(got.U_cr - ref.U_cr) <= 1e-10 * abs(ref.U_cr), (couplings, tp, got, ref)
        for model in (UVModel.diagonal(V, 0.0, tp), UVModel.diagonal(0.0, V, tp),
                      UVModel.full(V, 0.0, 0.0, tp), UVModel.full(0.0, V, 0.0, tp),
                      UVModel.full(0.0, 0.0, V, tp)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                roots = [s.E for s in pair_energies(model)]
            # one deep pair on the orbit that carries V, none if V repels
            assert roots == ([pytest.approx(V, rel=1e-12)] if V < 0 else []), model


@pytest.mark.parametrize("tp", [1.0, 0.37, 3.0])
@pytest.mark.parametrize("make, field", [
    (lambda v, tp: UVModel.diagonal(v, 0.0, tp), "U"),
    (lambda v, tp: UVModel.diagonal(0.0, v, tp), "V2"),
    (lambda v, tp: UVModel.full(v, 0.0, 0.0, tp), "U"),
    (lambda v, tp: UVModel.full(0.0, v, 0.0, tp), "V1"),
    (lambda v, tp: UVModel.full(0.0, 0.0, v, tp), "V2"),
    (lambda v, tp: threshold_diagonal(v, tp), "V"),
    (lambda v, tp: threshold_full(v, 0.0, tp), "V1"),
    (lambda v, tp: threshold_full(0.0, v, tp), "V2"),
], ids=["diagonal-U", "diagonal-V", "full-U", "full-V1", "full-V2",
        "threshold_diagonal-V", "threshold_full-V1", "threshold_full-V2"])
def test_a_coupling_one_float_beyond_2_to_the_128_t_prime_is_rejected_by_name(make, field, tp):
    for v in (math.nextafter(_RANGE * tp, math.inf), math.nextafter(-_RANGE * tp, -math.inf)):
        with pytest.raises(ValueError, match=f"^{field}{_RANGE_MESSAGE}{re.escape(str(v))}$"):
            make(v, tp)


@pytest.mark.parametrize("make", [lambda: UVModel.diagonal(-1.7e308, 0.0, 1.0),
                                  lambda: UVModel.full(-1e100, -1.0, -1.0, 1.0)],
                         ids=["diagonal", "full"])
def test_couplings_far_beyond_the_range_stop_at_construction_without_a_warning(make):
    # the first overflowed the scan grid's last point with a numpy warning; the
    # second gave continuum levels 16 t' off in the oracle's banded solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^U" + _RANGE_MESSAGE):
            make()


def test_binding_threshold_is_a_pair_of_U_cr_and_a_pole_flag_that_defaults_to_false():
    assert BindingThreshold._fields == ("U_cr", "pole")
    assert BindingThreshold(-2.5) == BindingThreshold(U_cr=-2.5, pole=False)
    assert repr(BindingThreshold(-2.5)) == "BindingThreshold(U_cr=-2.5, pole=False)"
    pole = threshold_diagonal(-3.0 * math.pi / 4.0, 1.0)
    assert tuple(pole) == (math.inf, True)
    assert repr(pole) == "BindingThreshold(U_cr=inf, pole=True)"


def test_derived_band_edge_coefficients_are_the_closed_forms():
    # rows: U absent, present; columns: the other orbits' 0/1 flags in C order
    expected = {
        "diagonal": [[0.0, 2.0], [1.0, 4.0 / (3.0 * math.pi)]],
        "full": [[0.0, 4.0, 4.0, GAMMA3], [1.0, GAMMA2, 0.5, GAMMA1]],
    }
    for variant, rows in expected.items():
        derived = orbits._edge_factor(variant)
        assert np.all(np.abs(np.subtract(derived, rows)) <= 2e-15), variant
        # the determinants are exact integers, so each coefficient is rounded
        # once; in floats GAMMA1 came out 31 ulps off
        assert all(abs(a - r) <= math.ulp(r) for a, r in zip(np.ravel(derived), np.ravel(rows)))


@pytest.mark.parametrize("variant", sorted(orbits._ORBITS))
def test_band_edge_determinant_in_integers_is_the_orbit_determinant(variant):
    # orbits' pure-Python matrix and pairs' einsum read one count table: on
    # the integer band-edge tables, as an object array, they agree exactly
    tables = np.array(orbits._EDGE_TABLES, dtype=object).T   # (6, 2): M_00 = 0 and 1
    for corner in itertools.product((0, 1), repeat=len(orbits._ORBITS[variant])):
        exact = [orbits._table_det(M, variant, corner) for M in orbits._EDGE_TABLES]
        assert all(type(d) is int for d in exact)
        assert pairs._orbit_det(tables, variant, corner).tolist() == exact, corner


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: pair_energies misses binding shallower "
                   "than its 1e-10 t' band-edge window")
def test_a_pair_below_threshold_has_a_root():
    model = UVModel.full(-0.4, 0.0, 0.0, 1.0)
    assert model.U < threshold_full(model.V1, model.V2, model.t_prime).U_cr
    assert pair_energies(model)


@pytest.mark.parametrize("t_prime", [0.0, -1.0, -1e-300])
def test_thresholds_reject_non_positive_t_prime(t_prime):
    with pytest.raises(ValueError, match="^t_prime must be positive"):
        threshold_diagonal(1.0, t_prime)
    with pytest.raises(ValueError, match="^t_prime must be positive"):
        threshold_full(1.0, 1.0, t_prime)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("threshold, args, field", [
    (threshold_diagonal, {"V": 1.0, "t_prime": 1.0}, "V"),
    (threshold_diagonal, {"V": 1.0, "t_prime": 1.0}, "t_prime"),
    (threshold_full, {"V1": 1.0, "V2": 1.0, "t_prime": 1.0}, "V1"),
    (threshold_full, {"V1": 1.0, "V2": 1.0, "t_prime": 1.0}, "V2"),
    (threshold_full, {"V1": 1.0, "V2": 1.0, "t_prime": 1.0}, "t_prime"),
    (threshold_physical, {"lam": 1.0, "t": 1.0, "renormalized": True}, "lam"),
    (threshold_physical, {"lam": 1.0, "t": 1.0, "renormalized": True}, "t"),
])
def test_thresholds_reject_non_finite_inputs_by_name(threshold, args, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        threshold(**{**args, field: bad})


def test_threshold_full_matches_long_form_binding_condition():
    # U_cr of the reduced rational form is a zero of the long-form
    # band-edge expression
    rng = random.Random(3)
    for _ in range(8):
        V1 = rng.uniform(0.2, 5.0)
        V2 = rng.uniform(0.2, 5.0)
        th = threshold_full(V1, V2, 1.0)
        assert binding_condition_full(th.U_cr, V1, V2, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_binding_condition_equals_reduced_polynomial():
    rng = random.Random(11)
    for _ in range(8):
        U = rng.uniform(-10.0, 5.0)
        V1 = rng.uniform(-5.0, 5.0)
        V2 = rng.uniform(-5.0, 5.0)
        tp = rng.uniform(0.5, 2.0)
        reduced = (
            GAMMA1 * U * V1 * V2 / tp**2
            + 0.5 * U * V1 / tp
            + GAMMA2 * U * V2 / tp
            + GAMMA3 * V1 * V2 / tp
            + U + 4.0 * V1 + 4.0 * V2
        )
        assert binding_condition_full(U, V1, V2, tp) == pytest.approx(reduced, rel=1e-12, abs=1e-12)


def test_threshold_consistent_with_root_count():
    V1, V2 = 2.0, 1.0
    th = threshold_full(V1, V2, 1.0)
    above = pair_energies(UVModel.full(th.U_cr * 1.1, V1, V2, 1.0))
    below = pair_energies(UVModel.full(th.U_cr * 0.9, V1, V2, 1.0))
    assert len(above) == len(below) + 1


def test_lf_map_main():
    p = LFParams(t_bare=1.0, lam=0.5, hbar_omega_ph=10.0,
                 phi_nn_ratio=0.1, phi_nnn_ratio=-0.2, U_fesh=3.0)
    m = lf_map_main(p)
    assert m.t_prime == pytest.approx(math.exp(-4.0 * 0.5 * 0.9 / 10.0))
    assert m.V1 == pytest.approx(-2.0 * 0.1 * 4.0 * 0.5)
    assert m.V2 == pytest.approx(-2.0 * (-0.2) * 4.0 * 0.5)
    assert m.U == pytest.approx(3.0 - 2.0 * 4.0 * 0.5)


def test_lf_map_physical():
    m = lf_map_physical(LFParams(t_bare=2.0, lam=1.0, U_fesh=0.0))
    assert m.t_prime == pytest.approx(2.0 * math.exp(-4.0 * 0.84))
    assert m.V1 == pytest.approx(-0.32)
    assert m.V2 == pytest.approx(1.792)
    assert m.U == pytest.approx(-16.0)


def test_threshold_physical_pole_location():
    poles = threshold_physical_poles(1.0, renormalized=True)
    assert len(poles) == 1
    assert abs(poles[0] - 1.08) < 0.02


@pytest.mark.parametrize("t", [1.0, 0.4])
def test_threshold_physical_poles_equal_a_reference_bisection(t):
    # 1.0768870576671057 is the pole of the single-point polish the
    # cluster polish replaced (at both t)
    poles = threshold_physical_poles(t, renormalized=True)

    def denominators(lams):
        return np.array([threshold_physical(x, t, True)["denominator"] for x in lams])

    lo, hi, n = pairs._POLE_SCAN
    lams = lo + (hi - lo) * np.arange(n) / (n - 1)
    reference = bisection_roots(denominators, lams, denominators(lams), pairs._POLE_TOL)
    assert len(poles) == len(reference) == 1
    assert abs(poles[0] - reference[0]) <= 1e-12
    assert abs(poles[0] - 1.0768870576671057) <= 1e-12


@pytest.mark.parametrize("renormalized", [True, False])
def test_threshold_physical_is_the_rounded_composition(renormalized):
    # the printed denominator tp^2 + 0.5451 t tp lam - 0.0142 t^2 lam^2
    # is threshold_full's composed with lf_map_physical, its coefficients
    # 0.5*(-0.16) + g2*0.896 and g1*0.16*0.896 rounded to 4 decimals
    t = 1.3
    for lam in np.linspace(0.0, 2.0, 81):
        m = lf_map_physical(LFParams(t_bare=t, lam=float(lam)))
        tp = m.t_prime if renormalized else t
        composed = GAMMA1 * m.V1 * m.V2 + 0.5 * tp * m.V1 + GAMMA2 * tp * m.V2 + tp * tp
        printed = threshold_physical(float(lam), t, renormalized)
        rounding = 5e-5 * (t * tp * lam + t * t * lam**2)
        assert abs(printed["denominator"] - composed) <= rounding + 1e-14 * tp * tp


def test_threshold_physical_bare_is_smooth():
    assert threshold_physical_poles(1.0, renormalized=False) == []
    prev = None
    for i in range(201):
        lam = 2.0 * i / 200
        res = threshold_physical(lam, 1.0, renormalized=False)
        assert not res["pole"]
        if prev is not None:
            assert abs(res["U_cr"] - prev) < 0.2
        prev = res["U_cr"]
    with pytest.raises(ValueError, match="^lam must be nonnegative, got -0.1$"):
        threshold_physical(-0.1, 1.0, renormalized=False)


def test_dispersion_branches():
    states = pair_dispersion_strong_coupling(-6.0, -1.0, 0.5, (0.0, 0.0))
    assert len(states) == 3
    assert states[0].E <= states[1].E <= states[2].E
    assert [s.E for s in states].count(-1.0) == 1
    # the immobile branch E = V is k-independent
    other = pair_dispersion_strong_coupling(-6.0, -1.0, 0.5, (1.3, -0.4))
    assert [s.E for s in other].count(-1.0) == 1


def test_pair_mass_reduction_to_onsite_form():
    W, lam, tp = 4.0, 0.7, 0.3
    assert pair_mass(-2.0 * W * lam, 0.0, tp) == pytest.approx(
        pair_mass_onsite(W, lam, tp), rel=1e-12
    )


def test_pair_mass_deep_binding_limit():
    # for |U| >> t' the pair becomes heavy: m** ~ |U| / (2 t'^2 a^2)
    m = pair_mass(-1e6, 0.0, 1.0)
    assert m == pytest.approx(5e5, rel=1e-6)


def test_mass_scale_matches_dispersion_curvature_scale():
    # the closed-form 1/m** tracks the k = 0 curvature of the lower
    # branch up to a constant factor (the printed normalization), so the
    # ratio must be U, V, t' independent
    def ratio(U, V, tp):
        curv = fd_second_derivative(
            lambda kx: pair_dispersion_strong_coupling(U, V, tp, (kx, 0.0))[0].E,
            0.0, 1e-2)
        return curv * pair_mass(U, V, tp)

    r0 = ratio(-6.0, -1.0, 0.5)
    for args in [(-9.0, -2.0, 1.0), (-4.0, 0.0, 0.2), (-12.0, -5.0, 0.8)]:
        assert ratio(*args) == pytest.approx(r0, rel=1e-6)
