import math
import warnings

import numpy as np
import pytest

from hhsim.constants import M_RB87
from hhsim.lattice import (
    PATTERN_CONSTRUCTORS,
    PhononMode,
    SpotPattern,
    bipartite_parallel,
    crossed,
    dynamical_matrix,
    holstein_reference,
    offset_parallel,
    offset_parallel_rotated,
    phonon_modes,
    site_potential,
    spot_potential,
    two_spot_frequency,
)

from _oracles import fd_hessian_2d, two_spot_soft_curvature


# one two-spot site at the origin, soft axis x
ONE_SITE = dict(centers=[[0.0, 0.0]], displacements=[[[0.1, 0.0], [-0.1, 0.0]]],
                polarizations=[[[1.0, 0.0]]])


def test_pattern_validation():
    with pytest.raises(ValueError, match="^V0_ph must be positive, got -1.0$"):
        SpotPattern("x", V0_ph=-1.0, w_ph=0.6, **ONE_SITE)
    for ctor in PATTERN_CONSTRUCTORS.values():   # D > w/2: double well
        with pytest.raises(ValueError, match=r"^D must lie in \[0, w_ph/2\] = \[0, 0.3\] "
                                             r"\(a larger D forms a double well\), got 0.4$"):
            ctor(1.73, 100.0, 0.6, 0.4, extent=0)


# the constructors check D and b, which shape the spots and centres
@pytest.mark.parametrize("build, field", [
    (lambda v: SpotPattern("x", v, 0.6, **ONE_SITE), "V0_ph"),
    (lambda v: SpotPattern("x", 100.0, v, **ONE_SITE), "w_ph"),
    (lambda v: offset_parallel(1.73, 100.0, 0.6, v, extent=0), "D"),
    (lambda v: holstein_reference(1.73, 100.0, 0.6, 0.1, b=v, extent=0), "b"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_are_rejected_by_name(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(value)


@pytest.mark.parametrize("ctor", PATTERN_CONSTRUCTORS.values())
@pytest.mark.parametrize("D", [math.inf, -math.inf, math.nan])
def test_non_finite_D_is_rejected_before_it_scales_the_spots(ctor, D):
    # no numpy warning first: 0 * inf in a spot offset would emit one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^D must be finite, got {D}$"):
            ctor(1.73, 100.0, 0.6, D, extent=0)


@pytest.mark.parametrize("arrays", [
    dict(ONE_SITE, centers=[[0.0, 0.0], [1.0, 0.0]]),              # two centres, one site
    dict(ONE_SITE, polarizations=[[[1.0, 0.0]], [[0.0, 1.0]]]),    # two sites of modes
    dict(ONE_SITE, centers=[[0.0, 0.0, 0.0]]),                     # trailing axis 3
    dict(ONE_SITE, displacements=[[0.1, 0.0], [-0.1, 0.0]]),       # no site axis
    dict(centers=np.zeros((0, 2)), displacements=np.zeros((0, 2, 2)),
         polarizations=np.zeros((0, 1, 2))),                       # no site
])
def test_pattern_rejects_mismatched_or_empty_arrays(arrays):
    with pytest.raises(ValueError):
        SpotPattern("x", 100.0, 0.6, **arrays)


def test_pattern_equality_is_identity():
    p = holstein_reference(1.73, 250.0, 0.6, 0.25, extent=1)
    q = holstein_reference(1.73, 250.0, 0.6, 0.25, extent=1)
    assert p == p
    assert p != q


@pytest.mark.parametrize("name", sorted(PATTERN_CONSTRUCTORS))
def test_constructors_reject_bad_grid_arguments(name):
    ctor = PATTERN_CONSTRUCTORS[name]
    for a in (0.0, -1.73, math.nan, math.inf):
        rule = "positive" if math.isfinite(a) else "finite"
        with pytest.raises(ValueError, match=f"^a must be {rule}, got {a}$"):
            ctor(a, 250.0, 0.6, 0.25, extent=1)
    with pytest.raises(ValueError, match="^extent must be an integer >= 0, got -1$"):
        ctor(1.73, 250.0, 0.6, 0.25, extent=-1)
    with pytest.raises(TypeError):
        ctor(1.73, 250.0, 0.6, 0.25, extent=1.5)
    assert len(ctor(1.73, 250.0, 0.6, 0.25, extent=np.int64(1)).centers) == 9


@pytest.mark.parametrize("name", sorted(PATTERN_CONSTRUCTORS))
def test_pattern_arrays_have_one_row_per_site_in_grid_order(name):
    a, D, s = 1.73, 0.25, 1.0 / math.sqrt(2.0)
    # the (0, 0) site's offset from (i, j)a with b=None, and each site's mode axes
    shift = {"holstein": (0.1 * a, 0.0), "offset-parallel-rotated": (0.5 * a, -0.5 * a)}
    axes = {"holstein": [[1.0, 0.0]], "offset-parallel": [[s, s]],
            "offset-parallel-rotated": [[s, -s]], "crossed": [[s, s], [s, -s]]}
    n_s, n_modes = (4, 2) if name == "crossed" else (2, 1)
    for extent in (0, 1, 3):
        pat = PATTERN_CONSTRUCTORS[name](a, 250.0, 0.6, D, extent=extent)
        n = (2 * extent + 1) ** 2
        assert pat.centers.shape == (n, 2)
        assert pat.displacements.shape == (n, n_s, 2)
        assert pat.polarizations.shape == (n, n_modes, 2)
        for x in (pat.centers, pat.displacements, pat.polarizations):
            assert x.dtype == np.float64
        # row k is site (i, j) = divmod(k, 2 extent + 1) - extent, i outer
        ij = np.array([divmod(k, 2 * extent + 1) for k in range(n)]) - extent
        expected = ij * a + shift.get(name, (0.5 * a, 0.5 * a))
        assert np.allclose(pat.centers, expected, rtol=0, atol=1e-14)
        if name == "bipartite-parallel":   # soft axis x where i + j is even, y where odd
            zeta = np.where((ij.sum(axis=1) % 2 == 0)[:, None, None], [[1.0, 0.0]], [[0.0, 1.0]])
        else:
            zeta = np.broadcast_to(axes[name], (n, n_modes, 2))
        assert np.allclose(pat.polarizations, zeta, rtol=0, atol=1e-15)
        # spots at +D and -D along each mode axis in turn
        spots = (D * zeta[:, :, None, :] * np.array([1.0, -1.0])[:, None]).reshape(n, n_s, 2)
        assert np.allclose(pat.displacements, spots, rtol=0, atol=1e-15)


def test_spot_potential_depth_and_decay():
    assert spot_potential(0.0, 250.0, 0.6) == -250.0
    assert abs(spot_potential(3.0, 250.0, 0.6)) < 1e-15


def test_site_potential_per_spot_normalization():
    # an N-spot site is as deep as a single spot at D = 0
    pat = crossed(1.73, 250.0, 0.6, 0.0)
    k = len(pat.centers) // 2
    assert site_potential(pat, k, pat.centers[k]) == pytest.approx(-250.0)


def test_pattern_constructors_registry():
    assert set(PATTERN_CONSTRUCTORS) == {
        "holstein", "offset-parallel", "offset-parallel-rotated",
        "crossed", "bipartite-parallel",
    }


@pytest.mark.parametrize("name", sorted(PATTERN_CONSTRUCTORS))
def test_registry_tiles_every_pattern_with_its_default_offset(name):
    a = 1.6123
    # the (0, 0) site with b=None: 0.1a along x for Holstein, a plaquette centre otherwise
    middle = {"holstein": (0.1 * a, 0.0), "offset-parallel-rotated": (0.5 * a, -0.5 * a)}
    for extent in (0, 1, 3):
        pat = PATTERN_CONSTRUCTORS[name](a, 250.0, 0.6, 0.25, extent=extent)
        assert len(pat.centers) == (2 * extent + 1) ** 2
        centre = pat.centers[len(pat.centers) // 2]
        assert np.allclose(centre, middle.get(name, (0.5 * a, 0.5 * a)), rtol=0, atol=1e-15)


def test_plaquette_centred_patterns_take_no_offset():
    a_half_prime = 0.5 * 1.73 * math.sqrt(2.0)
    for ctor in (crossed, bipartite_parallel):
        for b in (0.3, a_half_prime):
            with pytest.raises(ValueError, match="plaquette"):
                ctor(1.73, 250.0, 0.6, 0.25, b=b, extent=1)


@pytest.mark.parametrize("b", [None, 0.3 * 1.73 * math.sqrt(2.0)])
def test_offset_parallel_rotated_is_offset_parallel_mirrored(b):
    # y -> -y maps site (i, j) onto site (i, -j), bit for bit
    extent, flip = 2, np.array([1.0, -1.0])
    m = 2 * extent + 1
    par = offset_parallel(1.73, 250.0, 0.6, 0.25, b=b, extent=extent)
    rot = offset_parallel_rotated(1.73, 250.0, 0.6, 0.25, b=b, extent=extent)
    # rows are (i, j) with i outer: reversing j within each i maps j onto -j
    twin = np.arange(m * m).reshape(m, m)[:, ::-1].ravel()
    assert np.array_equal(rot.centers[twin], par.centers * flip)
    assert np.array_equal(rot.displacements[twin], par.displacements * flip)
    assert np.array_equal(rot.polarizations[twin], par.polarizations * flip)


def test_holstein_offset_default():
    pat = holstein_reference(1.73, 250.0, 0.6, 0.25)
    assert np.allclose(pat.centers[len(pat.centers) // 2], (0.173, 0.0), rtol=0, atol=1e-15)
    # soft axis along x
    assert np.array_equal(pat.polarizations, np.tile([[1.0, 0.0]], (121, 1, 1)))


@pytest.mark.parametrize("b", [-0.1, 1.0, 100.0])
def test_holstein_offset_bounds(b):
    # b = 0 is the on-site limit; b = a puts the phonon site on the next fermion site
    with pytest.raises(ValueError, match=rf"^b must lie in \[0, a\) = \[0, 1\), got {b:.5g}$"):
        holstein_reference(1.0, 250.0, 0.6, 0.25, b=b, extent=0)
    assert holstein_reference(1.0, 250.0, 0.6, 0.25, b=0.0, extent=0).centers.tolist() == [[0.0, 0.0]]


def test_offset_parallel_bounds():
    message = r"^b must lie in \(0, a\*sqrt\(2\)\) = \(0, 1.4142\), got 1.5$"
    with pytest.raises(ValueError, match=message):
        offset_parallel(1.0, 250.0, 0.6, 0.25, b=1.5)  # b > a*sqrt(2)


def test_dynamical_matrix_matches_analytic_two_spot():
    V0, w, D = 250.0, 0.6, 0.25
    pat = holstein_reference(1.0, V0, w, D, b=0.0, extent=0)
    H = dynamical_matrix(pat, 0)
    assert H[0, 0] == pytest.approx(two_spot_soft_curvature(V0, w, D, 0.0), rel=1e-8)
    ref = fd_hessian_2d(lambda x, y: site_potential(pat, 0, (x, y)), 0.0, 0.0, 1e-4)
    assert np.allclose(H, ref, rtol=1e-6)
    assert H[0, 1] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("name", sorted(PATTERN_CONSTRUCTORS))
@pytest.mark.parametrize("frac", [0.0, 0.2, 0.5])
@pytest.mark.parametrize("where", ["centre", "corner"])
def test_dynamical_matrix_matches_finite_differences_on_every_pattern(name, frac, where):
    V0, w = 250.0, 0.6
    pat = PATTERN_CONSTRUCTORS[name](1.73, V0, w, frac * w, extent=2)
    k = len(pat.centers) // 2 if where == "centre" else 0
    H = dynamical_matrix(pat, k)
    # a zero entry (off-diagonal, or the soft axis at D = w/2) is judged on the matrix's scale
    scale = V0 / w**2
    ref = fd_hessian_2d(lambda x, y: site_potential(pat, k, (x, y)), *pat.centers[k], 1e-4)
    np.testing.assert_allclose(H, ref, rtol=1e-6, atol=1e-6 * scale)
    if pat.displacements.shape[1] == 2:
        p = pat.polarizations[k, 0]
        soft = (H * p[:, None] * p[None, :]).sum()
        assert soft == pytest.approx(two_spot_soft_curvature(V0, w, frac * w, 0.0),
                                     rel=1e-12, abs=1e-12 * scale)


def test_dynamical_matrix_rejects_non_stationary_point():
    lopsided = SpotPattern("x", 250.0, 0.6, centers=[[0.0, 0.0]],
                           displacements=[[[0.25, 0.0], [-0.1, 0.0]]],
                           polarizations=[[[1.0, 0.0]]])
    with pytest.raises(ValueError):
        dynamical_matrix(lopsided, 0)


def test_phonon_modes_soft_axis_and_frequency():
    V0, w, D = 250.0, 0.6, 0.25
    pat = holstein_reference(1.0, V0, w, D, b=0.0, extent=0)
    modes = phonon_modes(dynamical_matrix(pat, 0), M_RB87)
    assert len(modes) == 2
    assert modes[0].frequency >= modes[1].frequency
    # soft mode lies along the spot axis (x)
    assert abs(modes[-1].polarization @ np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-9)
    assert modes[-1].frequency == pytest.approx(two_spot_frequency(V0, w, D, M_RB87), rel=1e-8)


def test_phonon_modes_validation():
    with pytest.raises(ValueError):
        phonon_modes([[0.0, 1.0], [2.0, 0.0]], M_RB87)
    with pytest.raises(ValueError):
        phonon_modes([[-5.0, 0.0], [0.0, 1.0]], M_RB87)
    with pytest.raises(ValueError):
        PhononMode(frequency=1.0, polarization=np.array([1.0, 1.0]))


def test_crossed_modes_are_degenerate():
    pat = crossed(1.73, 250.0, 0.6, 0.25)
    modes = phonon_modes(dynamical_matrix(pat, len(pat.centers) // 2), M_RB87)
    assert modes[0].frequency == pytest.approx(modes[1].frequency, rel=1e-6)


def test_bipartite_axes_alternate():
    pat = bipartite_parallel(1.0, 250.0, 0.6, 0.25, extent=1)
    axes = {tuple(np.abs(p[0]).round(9)) for p in pat.polarizations}
    assert axes == {(1.0, 0.0), (0.0, 1.0)}


def test_two_spot_frequency_vanishes_at_half_waist():
    assert two_spot_frequency(250.0, 0.6, 0.3, M_RB87) == 0.0
    with pytest.raises(ValueError):
        two_spot_frequency(250.0, 0.6, 0.31, M_RB87)
