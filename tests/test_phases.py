import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsim.constants import HBAR, H_PLANCK, HZ_TO_NK, K_B
from hhsim.pairs import pair_mass_onsite
from hhsim.phases import (
    LABELS,
    PhaseFamily,
    classify,
    delta_t_contour,
    phase_grid,
    t_bkt,
    t_pair,
)

from _oracles import delta_t_contour_loop, phase_point_scalar


def test_t_pair_clamped_at_zero():
    assert t_pair(100.0, 0.1, 50.0) == 0.0
    val = t_pair(100.0, 3.0, 50.0)
    assert val == pytest.approx((600.0 - 400.0) * HZ_TO_NK)
    arr = t_pair(100.0, np.array([0.1, 3.0]), 50.0)
    assert arr.tolist() == [0.0, val]


def test_t_bkt_formula_and_domain():
    n_B, m, a = 0.01, 1e-25, 1.73
    expect = 4 * math.pi * HBAR**2 * n_B / (
        (a * 1e-6) ** 2 * K_B * 2 * m * math.log(math.log(4 / n_B))
    ) * 1e9
    assert t_bkt(n_B, m, a) == pytest.approx(expect, rel=1e-12)
    assert t_bkt(n_B, np.array([m, 2 * m]), a).tolist() == [t_bkt(n_B, m, a), t_bkt(n_B, 2 * m, a)]
    with pytest.raises(ValueError, match=r"^n_B must lie in \(0, 1\), got 0.0$"):
        t_bkt(0.0, m, a)
    with pytest.raises(ValueError):
        t_bkt(3.9, m, a)  # lnln argument <= 1
    with pytest.raises(ValueError):
        t_bkt(n_B, np.array([m, 0.0]), a)
    with pytest.raises(ValueError, match="^m_star_star must be a positive mass$"):
        t_bkt(n_B, np.array([math.nan]), a)
    with pytest.raises(ValueError, match="^a must be finite"):
        t_bkt(n_B, m, math.nan)


def test_classify_all_labels_reachable():
    assert classify(10.0, 5.0, 1.0) == "Normal"
    assert classify(3.0, 5.0, 1.0) == "PreformedPairs"
    assert classify(0.5, 5.0, 1.0) == "BKTCondensedPairs"
    assert classify(0.5, 0.7, 1.0) == "BKTRegime"
    # ties fall through to Normal
    assert classify(5.0, 5.0, 5.0) == "Normal"
    assert classify(1.0, 5.0, 1.0) == "Normal"
    assert classify(5.0, 5.0, 1.0) == "Normal"
    assert isinstance(classify(10.0, 5.0, 1.0), str)
    assert set(LABELS) == {"Normal", "PreformedPairs", "BKTCondensedPairs", "BKTRegime"}


def test_classify_on_arrays_matches_scalars():
    T = np.array([10.0, 3.0, 0.5, 0.5, 5.0, 1.0])
    T_pair_ = np.array([5.0, 5.0, 5.0, 0.7, 5.0, 1.0])
    T_bkt_ = np.array([1.0, 1.0, 1.0, 1.0, 5.0, 1.0])
    labels = classify(T, T_pair_, T_bkt_)
    assert labels.shape == T.shape
    assert labels.tolist() == [classify(*x) for x in zip(T.tolist(), T_pair_.tolist(),
                                                           T_bkt_.tolist())]


def test_pair_mass_increases_with_coupling():
    W_J, tp_J, a_m = 500.0 * H_PLANCK, 100.0 * H_PLANCK, 1.73e-6
    m = pair_mass_onsite(W_J, np.array([1.0, 3.0]), tp_J, a_m, HBAR)
    assert m[1] > m[0] > 0.0


def test_one_point_grid_fields():
    grid = phase_grid([400.0], [2.0], 20.0, PhaseFamily())
    assert grid.T_bkt.shape == (1, 1)
    assert grid.label[0, 0] in LABELS
    assert grid.T_pair[0, 0] >= 0.0 and grid.T_bkt[0, 0] > 0.0


def test_contour_on_synthetic_grid():
    xs, ys = [0.0, 1.0], [0.0, 1.0]
    # Delta T changes sign along x
    segs = delta_t_contour(xs, ys, np.array([[1.0, 1.0], [-1.0, -1.0]]))
    assert len(segs) == 1
    (x1, _), (x2, _) = segs[0]
    assert x1 == pytest.approx(0.5) and x2 == pytest.approx(0.5)
    # Delta T changes sign along lambda, crossing at 3/4 of each edge
    segs = delta_t_contour(xs, ys, np.array([[3.0, -1.0], [3.0, -1.0]]))
    assert segs.tolist() == [[[1.0, 0.75], [0.0, 0.75]]]
    # uniform sign, or zero everywhere: no contour
    assert delta_t_contour(xs, ys, np.ones((2, 2))).shape == (0, 2, 2)
    assert delta_t_contour(xs, ys, np.zeros((2, 2))).shape == (0, 2, 2)


@st.composite
def contour_grids(draw):
    """(V0 axis, lambda axis, Delta T) with exact zeros of both signs,
    tied values, NaN cells and 1-point axes."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    axis = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-100.0, 100.0))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan]), st.floats(-10.0, 10.0))
    xs = draw(st.lists(axis, min_size=nx, max_size=nx))
    ys = draw(st.lists(axis, min_size=ny, max_size=ny))
    dT = np.array(draw(st.lists(value, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    return xs, ys, dT


def _assert_same_segments(got, ref):
    assert got.shape == (len(ref), 2, 2)
    assert got.tobytes() == np.array(ref, dtype=float).reshape(-1, 2, 2).tobytes()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(grid=contour_grids())
def test_contour_is_the_cell_loop_bit_for_bit(grid):
    _assert_same_segments(delta_t_contour(*grid), delta_t_contour_loop(*grid))


def test_default_map_contour_is_the_cell_loop_bit_for_bit():
    V0s = np.linspace(100.0, 600.0, 21)
    grid = phase_grid(V0s, np.linspace(0.05, 5.0, 26), 20.0, PhaseFamily())
    dT = grid.T_bkt - grid.T_pair
    _assert_same_segments(grid.contour, delta_t_contour_loop(V0s, grid.lam_axis, dT))


def test_phase_grid_structure():
    grid = phase_grid([300.0, 400.0, 500.0], [0.5, 1.5, 2.5, 3.5], 20.0, PhaseFamily())
    assert grid.lam_axis.shape == (4,)
    for arr in (grid.T_pair, grid.T_bkt, grid.label):
        assert arr.shape == (3, 4)
    assert set(grid.label.ravel().tolist()) <= set(LABELS)


families = st.builds(
    PhaseFamily, a=st.floats(1.5, 2.0),
    n_B=st.floats(0.002, 0.05), phi_nn_ratio=st.floats(0.0, 0.5),
    omega_ratio=st.floats(5.0, 25.0))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(family=families,
       V0s=st.lists(st.floats(100.0, 700.0), min_size=1, max_size=5),
       lams=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=5),
       T=st.one_of(st.floats(0.0, 50.0), st.floats(1e-4, 0.5)))
def test_grid_matches_scalar_reference(family, V0s, lams, T):
    grid = phase_grid(V0s, lams, T, family)
    for i, V0 in enumerate(V0s):
        for j, lam in enumerate(lams):
            T_pair_, T_bkt_, label = phase_point_scalar(V0, lam, T, family)
            for got, ref in ((grid.T_pair, T_pair_), (grid.T_bkt, T_bkt_)):
                assert abs(got[i, j] - ref) <= 1e-12 * abs(ref)
            assert grid.label[i, j] == label


@pytest.mark.parametrize("name", ["a", "n_B", "phi_nn_ratio", "omega_ratio"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_family_rejects_non_finite_fields_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        PhaseFamily(**{name: value})


@pytest.mark.parametrize("name", ["a", "omega_ratio"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_family_rejects_non_positive_scales(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        PhaseFamily(**{name: value})


@pytest.mark.parametrize("V0s, lams, T, name", [
    ([100.0, math.nan], [1.0], 20.0, "V0"),
    ([100.0], [1.0, math.inf], 20.0, "lambda"),
    ([100.0], [1.0], math.nan, "T"),
])
def test_phase_grid_rejects_non_finite_inputs_by_name(V0s, lams, T, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        phase_grid(V0s, lams, T, PhaseFamily())


@pytest.mark.parametrize("lams, T, message", [
    ([0.5, -1.0, -0.25], 20.0, "lambda must be nonnegative, got -1.0"),
    ([0.5], -5.0, "T must be nonnegative, got -5.0"),
    ([0.5], np.array(-1e-300), "T must be nonnegative, got -1e-300"),
])
def test_phase_grid_rejects_negative_coupling_and_temperature(lams, T, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        phase_grid([100.0], lams, T, PhaseFamily())
    # zero is a valid coupling and temperature: below T_bkt, with no pairing gap
    assert phase_grid([100.0], [0.0], 0.0, PhaseFamily()).label.tolist() == [["BKTRegime"]]


@pytest.mark.parametrize("V0s, lams, message", [
    # t'^2 in joules underflows, so the pair mass would divide by zero
    ([100.0, 1e6], [0.05], "the on-site pair mass is not finite at V0 = 1000000.0 nK, lambda = 0.05"),
    ([100.0], [0.05, 1e308], "T_pair is not finite at V0 = 100.0 nK, lambda = 1e+308"),
])
def test_phase_grid_rejects_scales_beyond_the_float_range_without_a_warning(V0s, lams, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            phase_grid(V0s, lams, 2.0, PhaseFamily())
