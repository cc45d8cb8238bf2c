"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (shown with `pytest -v -s` or
in the captured output of failures) and then asserts, so the suite
doubles as a human-readable checklist.
"""

import math
import random
import time

import numpy as np
import pytest

from hhsim import hubbard, lattice, oracle, pairs, phases, rydberg, stark
from hhsim.constants import A_BOHR, M_K40, M_RB87, nk_to_hz
from hhsim.greens import GAMMA1, GAMMA2, GAMMA3, SUPPORTED_NL, greens_C_threshold, greens_M_table

from _oracles import fd_second_derivative, quad_M


def _report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_stark_zeros():
    t0 = time.time()
    cfg = stark.StarkConfig()
    lam_k = stark.find_stark_zero(stark.K40, cfg)
    lam_rb = stark.find_stark_zero(stark.RB87, cfg)
    elapsed = time.time() - t0
    ok_k = abs(lam_k - 768.97) <= 0.05
    ok_rb = abs(lam_rb - 790.07) <= 0.05
    ok = ok_k and ok_rb and elapsed < 1.0
    _report(1, "stark zero crossings", ok,
            f"K-40 {lam_k:.4f} nm (ok={ok_k}), Rb-87 {lam_rb:.4f} nm (ok={ok_rb}), {elapsed:.2f} s")


def test_criterion_02_threshold_constants():
    ok_g = (abs(GAMMA1 - 0.0988263632) <= 1e-10
            and abs(GAMMA2 - 0.6976527263) <= 1e-10
            and abs(GAMMA3 - 0.7906109053) <= 1e-10)
    refs = {
        (1, 0): 1.0 / 8.0,
        (1, 1): 1.0 / (2.0 * math.pi),
        (2, 0): (math.pi - 2.0) / (2.0 * math.pi),
        (2, 1): (8.0 - math.pi) / (8.0 * math.pi),
        (2, 2): 2.0 / (3.0 * math.pi),
    }
    ok_c = all(abs(greens_C_threshold(*nl, 1.0) - v) <= 1e-12 for nl, v in refs.items())
    _report(2, "gamma and C_nl threshold constants", ok_g and ok_c)


def test_criterion_03_greens_identity_suite():
    t0 = time.time()
    energies = -np.geomspace(8.01, 100.0, 20)
    worst = 0.0
    for E in energies:
        ref = quad_M(float(E), 1.0)
        vals = greens_M_table(float(E), 1.0)
        for j, nl in enumerate(SUPPORTED_NL):
            worst = max(worst, abs(vals[j] - ref[nl]) / abs(ref[nl]))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(3, "closed forms vs 2D quadrature", ok,
            f"worst rel {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_asymptote():
    U_cr = pairs.threshold_diagonal(1e6, 1.0).U_cr
    ok = abs(U_cr - (-4.712389)) <= 1e-3
    _report(4, "large-V threshold asymptote", ok, f"U_cr = {U_cr:.7f}")


def test_criterion_05_oracle_equivalence():
    t0 = time.time()
    points = [
        pairs.UVModel.diagonal(-2.0, -5.0, 1.0),
        pairs.UVModel.diagonal(-2.0, -6.0, 1.0),
        pairs.UVModel.diagonal(-2.0, -7.0, 1.0),
        pairs.UVModel.diagonal(-2.0, -8.0, 1.0),
        pairs.UVModel.diagonal(-8.0, -8.0, 1.0),
        pairs.UVModel.diagonal(-10.0, 0.0, 1.0),
        pairs.UVModel.full(-6.0, -1.0, -1.0, 1.0),
        pairs.UVModel.full(-8.0, -2.0, -1.0, 1.0),
        pairs.UVModel.full(-4.0, -1.0, -3.0, 1.0),
        pairs.UVModel.full(-10.0, 0.0, -2.0, 1.0),
        pairs.UVModel.full(-6.0, -3.0, 0.0, 1.0),
        pairs.UVModel.full(-12.0, -2.0, -2.0, 1.0),
    ]
    Ls = [16, 24, 32]
    worst = 0.0
    two_branch_ok = True
    for model in points:
        roots = pairs.pair_energies(model)
        spectra = [oracle.ground_energies(model, L, n_states=3) for L in Ls]
        ex = oracle.extrapolate_energy(Ls, [s.energies[0] for s in spectra])
        worst = max(worst, abs(ex.E_inf - roots[0].E))
        if model.variant == "diagonal" and model.U == -8.0 and model.V2 == -8.0:
            ed_branches = min(s.bound_count for s in spectra)
            two_branch_ok = len(roots) == 2 and ed_branches == 2
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and two_branch_ok and elapsed < 300.0
    _report(5, "exact-diagonalization equivalence", ok,
            f"worst |dE| {worst:.1e} t', two-branch point ok={two_branch_ok}, {elapsed:.0f} s")


def test_criterion_06_threshold_root_count():
    rng = random.Random(7)
    ok = True
    for _ in range(10):
        V1 = rng.uniform(0.5, 6.0)
        V2 = rng.uniform(0.5, 6.0)
        U_cr = pairs.threshold_full(V1, V2, 1.0).U_cr
        n_above = len(pairs.pair_energies_full(U_cr * 1.1, V1, V2, 1.0))
        n_below = len(pairs.pair_energies_full(U_cr * 0.9, V1, V2, 1.0))
        ok = ok and (n_above == n_below + 1)
    _report(6, "root count changes by one at U_cr", ok)


def test_criterion_07_physical_case_curve():
    poles = pairs.threshold_physical_poles(1.0, renormalized=True)
    ok_pole = len(poles) == 1 and abs(poles[0] - 1.08) <= 0.02
    ok_bare = pairs.threshold_physical_poles(1.0, renormalized=False) == []
    prev, smooth = None, True
    for lam in np.linspace(0.0, 2.0, 401):
        u = pairs.threshold_physical(float(lam), 1.0, renormalized=False)["U_cr"]
        if prev is not None and abs(u - prev) > 0.1:
            smooth = False
        prev = u
    ok = ok_pole and ok_bare and smooth
    detail = f"pole at {poles[0]:.4f}" if poles else "no pole found"
    _report(7, "renormalized pole / bare smoothness", ok, detail)


def test_criterion_08_pair_mass():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(10):
        U = rng.uniform(-12.0, -4.0)
        V = rng.uniform(-3.0, 0.0)
        tp = rng.uniform(0.3, 1.5)
        curv = fd_second_derivative(
            lambda kx: pairs.pair_dispersion_strong_coupling(U, V, tp, (kx, 0.0))[0].E,
            0.0, 1e-2)
        inv_m = 1.0 / pairs.pair_mass(U, V, tp)
        worst = max(worst, abs(curv - inv_m) / abs(inv_m))
    ok_fd = worst <= 1e-6
    W, lam, tp = 4.0, 0.7, 0.3
    red = abs(pairs.pair_mass(-2.0 * W * lam, 0.0, tp) - pairs.pair_mass_onsite(W, lam, tp))
    ok_red = red <= 1e-12 * pairs.pair_mass_onsite(W, lam, tp)
    ok = ok_fd and ok_red
    _report(8, "pair mass vs dispersion curvature", ok,
            f"worst FD rel dev {worst:.2e} (ok={ok_fd}), onsite reduction ok={ok_red}")


def test_criterion_09_phi_map_structure():
    a = 1.73
    spec = rydberg.RydbergSpec.from_rc(C6=rydberg.c6_interpolated(27),
                                       r_c=0.1 * a, alpha_bar=0.004)
    args = (250.0, 0.6, 0.2823)

    hol = rydberg.effective_interaction(lattice.holstein_reference(a, *args), spec, a)
    off_site = max(abs(v) for d, v in hol.values.items() if d != (0, 0))
    ok_hol = off_site < 1e-3

    ap = a * math.sqrt(2.0)
    par = rydberg.effective_interaction(
        lattice.offset_parallel(a, *args, b=0.3 * ap), spec, a)
    nnn = abs(par.ratio(1, 1))
    ok_nnn = nnn < 5e-4

    b_half = 0.5 * ap
    cross = rydberg.effective_interaction(lattice.crossed(a, *args), spec, a)
    p1 = rydberg.effective_interaction(lattice.offset_parallel(a, *args, b=b_half), spec, a)
    p2 = rydberg.effective_interaction(lattice.offset_parallel_rotated(a, *args, b=b_half), spec, a)
    ok_sum = True
    for d in cross.displacements:
        combined = (p1.values[d] * p1.phi00 + p2.values[d] * p2.phi00) / (p1.phi00 + p2.phi00)
        if abs(cross.values[d] - combined) > 1e-10 * max(1.0, abs(combined)):
            ok_sum = False

    ok_est = True
    for frac in (0.25, 0.35, 0.45):
        pat = lattice.offset_parallel(a, *args, b=frac * ap)
        num = abs(rydberg.effective_interaction(pat, spec, a).ratio(1, 1))
        est = rydberg.nnn_ratio_estimate(frac * ap, a)["ratio"]
        if abs(est - num) / num > 0.10:
            ok_est = False

    ok = ok_hol and ok_nnn and ok_sum and ok_est
    _report(9, "effective-interaction map structure", ok,
            f"holstein off-site {off_site:.1e} (ok={ok_hol}), "
            f"b=0.3a' NNN {nnn:.1e} (ok={ok_nnn}), crossed-sum ok={ok_sum}, "
            f"estimate ok={ok_est}")


def test_criterion_10_phonon_closed_form():
    worst = 0.0
    for V0 in (100.0, 250.0, 400.0):
        for w in (0.4, 0.6, 0.8):
            for frac in (0.1, 0.25, 0.4):
                D = frac * w
                site = lattice.two_spot_site((0.0, 0.0), (1.0, 0.0), D)
                pat = lattice.SpotPattern("x", V0, w, D, sites=[site])
                modes = lattice.phonon_modes(lattice.dynamical_matrix(pat, site), M_RB87)
                soft = modes[-1].frequency
                closed = lattice.two_spot_frequency(V0, w, D, M_RB87)
                worst = max(worst, abs(soft - closed) / closed)
    ok_grid = worst <= 1e-8
    ok_zero = lattice.two_spot_frequency(250.0, 0.6, 0.3, M_RB87) == 0.0
    ok = ok_grid and ok_zero
    _report(10, "two-spot frequency closed form", ok, f"worst rel {worst:.1e}")


def test_criterion_11_phase_map():
    V0s = list(np.linspace(100.0, 600.0, 21))
    lams = list(np.linspace(0.05, 5.0, 26))
    grid = phases.phase_grid(V0s, lams, 20.0)
    labels = {p.label for row in grid.points for p in row}
    ok_labels = labels == set(phases.LABELS)
    ok_contour = len(grid.contour) > 0
    paired = [p.lam for row in grid.points for p in row if p.T_pair >= 20.0]
    ok_lam = bool(paired) and min(paired) >= 1.5
    ok = ok_labels and ok_contour and ok_lam
    lam_txt = f"{min(paired):.2f}" if paired else "none"
    _report(11, "phase-map structure", ok,
            f"labels={sorted(labels)} (all-four ok={ok_labels}), "
            f"contour segments={len(grid.contour)}, "
            f"min lambda with T_pair>=20nK = {lam_txt}")


def test_criterion_12_parameter_regime():
    a = 1.73
    spec = rydberg.RydbergSpec.from_rc(C6=rydberg.c6_interpolated(27),
                                       r_c=0.1 * a, alpha_bar=0.004)
    emap = rydberg.effective_interaction(
        lattice.holstein_reference(a, 250.0, 0.6, 0.2823), spec, a)
    E_rec = hubbard.recoil_energy(a, M_K40, k_lat=2.0 * math.pi / a)

    def w_lambda(V0_nk):
        t = hubbard.hopping_t(nk_to_hz(V0_nk), E_rec)
        omega = lattice.two_spot_frequency(2.5 * V0_nk, 0.6, 0.2823, M_RB87)
        lam = rydberg.lambda_dimensionless(emap.phi00, 4.0 * t, M_RB87, omega)
        return 4.0 * t * lam

    a_s_um = 90.0 * A_BOHR * 1e6
    rows = hubbard.parameter_sweep(np.linspace(300.0, 500.0, 21), a,
                                   a_s_um=a_s_um, w_lambda_of_v0=w_lambda)
    found = None
    for r in rows:
        vals = [r["t_Hz"], abs(r["U_Hz"]), r["W_lambda_Hz"]]
        if (max(vals) / min(vals) < 3.0
                and all(33.0 <= v <= 300.0 for v in vals)
                and abs(r["V0_nK"] - 400.0) <= 50.0):
            found = r
            break
    ok = found is not None
    detail = (f"V0={found['V0_nK']:.0f} nK: t={found['t_Hz']:.0f}, "
              f"U={found['U_Hz']:.0f}, W*lambda={found['W_lambda_Hz']:.0f} Hz"
              if found else "no qualifying V0 in [350, 450] nK")
    _report(12, "hundred-hertz parameter regime", ok, detail)
