import math

import numpy as np
import pytest

from hhsim.constants import M_RB87
from hhsim.lattice import (
    LatticeSpec,
    PATTERN_CONSTRUCTORS,
    PhononMode,
    SpotPattern,
    bipartite_parallel,
    crossed,
    dynamical_matrix,
    holstein_reference,
    offset_parallel,
    offset_parallel_rotated,
    painted_potential,
    phonon_modes,
    site_potential,
    spot_potential,
    two_spot_frequency,
    two_spot_site,
)

from _oracles import fd_hessian_2d, two_spot_soft_curvature


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(a=-1.0, V0=100.0, w_f=0.5)
    with pytest.raises(ValueError):
        LatticeSpec(a=1.0, V0=100.0, w_f=0.5, V0_pan=-1.0)


def test_pattern_validation():
    with pytest.raises(ValueError):
        SpotPattern("x", V0_ph=-1.0, w_ph=0.6, D=0.1)
    with pytest.raises(ValueError):
        SpotPattern("x", V0_ph=100.0, w_ph=0.6, D=0.4)  # D > w/2: double well


def test_spot_potential_depth_and_decay():
    assert spot_potential(0.0, 250.0, 0.6) == -250.0
    assert abs(spot_potential(3.0, 250.0, 0.6)) < 1e-15


def test_site_potential_per_spot_normalization():
    # an N-spot site is as deep as a single spot at D = 0
    pat = crossed(1.73, 250.0, 0.6, 0.0)
    site = pat.sites[len(pat.sites) // 2]
    assert site_potential(pat, site, site.center) == pytest.approx(-250.0)


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
        assert len(pat.sites) == (2 * extent + 1) ** 2
        assert pat.b == (0.1 * a if name == "holstein" else 0.5 * a * math.sqrt(2.0))
        centre = pat.sites[len(pat.sites) // 2].center
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
    assert rot.b == par.b
    for k, site in enumerate(par.sites):
        i, j = divmod(k, m)
        twin = rot.sites[i * m + (m - 1 - j)]
        assert np.array_equal(twin.center, site.center * flip)
        assert np.array_equal(twin.displacements, site.displacements * flip)
        assert np.array_equal(twin.polarizations, site.polarizations * flip)


def test_holstein_offset_default():
    pat = holstein_reference(1.73, 250.0, 0.6, 0.25)
    assert pat.b == pytest.approx(0.173)
    # soft axis along x
    assert np.allclose(pat.sites[0].polarizations, [[1.0, 0.0]])


def test_offset_parallel_bounds():
    with pytest.raises(ValueError):
        offset_parallel(1.0, 250.0, 0.6, 0.25, b=1.5)  # b > a*sqrt(2)


def test_dynamical_matrix_matches_analytic_two_spot():
    V0, w, D = 250.0, 0.6, 0.25
    site = two_spot_site((0.0, 0.0), (1.0, 0.0), D)
    pat = SpotPattern("x", V0, w, D, sites=[site])
    H = dynamical_matrix(pat, site)
    assert H[0, 0] == pytest.approx(two_spot_soft_curvature(V0, w, D, 0.0), rel=1e-8)
    ref = fd_hessian_2d(lambda x, y: site_potential(pat, site, (x, y)), 0.0, 0.0, 1e-4)
    assert np.allclose(H, ref, rtol=1e-6)
    assert H[0, 1] == pytest.approx(0.0, abs=1e-6)


def test_dynamical_matrix_rejects_non_stationary_point():
    site = two_spot_site((0.0, 0.0), (1.0, 0.0), 0.25)
    lopsided = type(site)(center=site.center,
                          displacements=np.array([[0.25, 0.0], [-0.1, 0.0]]),
                          polarizations=site.polarizations)
    pat = SpotPattern("x", 250.0, 0.6, 0.25, sites=[lopsided])
    with pytest.raises(ValueError):
        dynamical_matrix(pat, lopsided)


def test_phonon_modes_soft_axis_and_frequency():
    V0, w, D = 250.0, 0.6, 0.25
    site = two_spot_site((0.0, 0.0), (1.0, 0.0), D)
    pat = SpotPattern("x", V0, w, D, sites=[site])
    modes = phonon_modes(dynamical_matrix(pat, site), M_RB87)
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
    site = pat.sites[len(pat.sites) // 2]
    modes = phonon_modes(dynamical_matrix(pat, site), M_RB87)
    assert modes[0].frequency == pytest.approx(modes[1].frequency, rel=1e-6)


def test_bipartite_axes_alternate():
    pat = bipartite_parallel(1.0, 250.0, 0.6, 0.25, extent=1)
    axes = {tuple(np.abs(s.polarizations[0]).round(9)) for s in pat.sites}
    assert axes == {(1.0, 0.0), (0.0, 1.0)}


def test_two_spot_frequency_vanishes_at_half_waist():
    assert two_spot_frequency(250.0, 0.6, 0.3, M_RB87) == 0.0
    with pytest.raises(ValueError):
        two_spot_frequency(250.0, 0.6, 0.31, M_RB87)


def test_painted_potential_includes_pancake():
    spec = LatticeSpec(a=1.73, V0=100.0, w_f=0.5, V0_pan=500.0, w_pan=2.0)
    pat = holstein_reference(1.73, 250.0, 0.6, 0.25, extent=1)
    v_mid = painted_potential(spec, pat, (0.0, 0.0, 0.0))
    v_up = painted_potential(spec, pat, (0.0, 0.0, 5.0))
    assert v_mid < v_up  # pancake confines along z
