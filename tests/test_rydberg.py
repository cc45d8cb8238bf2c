import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhsim.constants import M_RB87
from hhsim.lattice import (
    PATTERN_CONSTRUCTORS,
    crossed,
    holstein_reference,
    offset_parallel,
    offset_parallel_rotated,
    site_potential,
)
from hhsim.rydberg import (
    RydbergSpec,
    c6_interpolated,
    coupling_f,
    effective_interaction,
    lambda_dimensionless,
    nnn_ratio_estimate,
    rydberg_potential,
)

from _oracles import coupling_f_scalar, phi_sum_scalar


def test_c6_endpoints_and_bounds():
    assert c6_interpolated(27) == pytest.approx(26.1)
    assert c6_interpolated(32) == pytest.approx(153.0)
    mid = c6_interpolated(29.5)
    assert 26.1 < mid < 153.0
    for bad in (26, 33):
        with pytest.raises(ValueError):
            c6_interpolated(bad)


def test_spec_derived_quantities():
    spec = RydbergSpec(C6=26.1, r_c=0.173, alpha_bar=0.004)
    assert spec.V_tilde == 0.004**4 * 26.1


def test_spec_keeps_its_inputs_exactly():
    spec = RydbergSpec(C6=26.1, r_c=0.173, alpha_bar=0.004, eta=3)
    assert (spec.C6, spec.r_c, spec.alpha_bar, spec.eta) == (26.1, 0.173, 0.004, 3)


def test_spec_rejects_strong_dressing():
    with pytest.raises(ValueError):
        RydbergSpec(C6=26.1, r_c=0.173, alpha_bar=0.5)


@pytest.mark.parametrize("build, field", [
    (lambda v: RydbergSpec(C6=v, r_c=0.173, alpha_bar=0.004), "C6"),
    (lambda v: RydbergSpec(C6=26.1, r_c=v, alpha_bar=0.004), "r_c"),
    (lambda v: RydbergSpec(C6=26.1, r_c=0.173, alpha_bar=v), "alpha_bar"),
])
@pytest.mark.parametrize("value, problem", [(math.nan, "finite"), (math.inf, "finite"),
                                            (0.0, "positive"), (-0.1, "positive")])
def test_spec_rejects_degenerate_values_by_name(build, field, value, problem):
    with pytest.raises(ValueError, match=f"^{field} must be {problem}, got {value}$"):
        build(value)


def test_potential_soft_core():
    spec = RydbergSpec(C6=26.1, r_c=0.2, alpha_bar=0.004)
    v0 = rydberg_potential(0.0, spec)
    assert v0 == pytest.approx(spec.V_tilde / spec.r_c**6)
    # beyond the core it crosses over to plain van der Waals decay
    assert rydberg_potential(2.0, spec) == pytest.approx(spec.V_tilde / 2.0**6, rel=1e-3)
    with pytest.raises(ValueError):
        rydberg_potential(-1.0, spec)
    with pytest.raises(ValueError, match="nonnegative"):
        rydberg_potential(np.array([math.nan]), spec)


def test_coupling_antisymmetric_and_projective():
    spec = RydbergSpec(C6=26.1, r_c=0.173, alpha_bar=0.004)
    z = np.array([1.0, 0.0])
    f = coupling_f((1.0, 0.5), (0.0, 0.0), z, spec)
    f_flip = coupling_f((-1.0, -0.5), (0.0, 0.0), z, spec)
    assert f_flip == pytest.approx(-f, rel=1e-12)
    # polarization perpendicular to the separation gives no coupling
    assert coupling_f((0.0, 1.0), (0.0, 0.0), z, spec) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ValueError):
        coupling_f((0.0, 0.0), (0.0, 0.0), z, spec)


def test_coupling_is_potential_gradient():
    spec = RydbergSpec(C6=26.1, r_c=0.173, alpha_bar=0.004)
    x = 1.1
    h = 1e-6
    grad = (rydberg_potential(x + h, spec) - rydberg_potential(x - h, spec)) / (2 * h)
    f = coupling_f((x, 0.0), (0.0, 0.0), np.array([1.0, 0.0]), spec)
    assert f == pytest.approx(-grad, rel=1e-7)


def test_effective_interaction_normalization_and_symmetry():
    a = 1.73
    spec = RydbergSpec(C6=26.1, r_c=0.1 * a, alpha_bar=0.004)
    pat = offset_parallel(a, 250.0, 0.6, 0.2823, b=0.25 * a * math.sqrt(2.0))
    emap = effective_interaction(pat, spec, a)
    assert emap.values[(0, 0)] == 1.0
    assert emap.phi00 > 0.0
    # mirror symmetry about the offset diagonal maps (2,0) onto (0,2)
    assert emap.values[(2, 0)] == pytest.approx(emap.values[(0, 2)], rel=1e-9)


def test_crossed_map_equals_sum_of_rotated_parallels():
    a = 1.73
    spec = RydbergSpec(C6=26.1, r_c=0.1 * a, alpha_bar=0.004)
    b = 0.5 * a * math.sqrt(2.0)
    cross = effective_interaction(crossed(a, 250.0, 0.6, 0.2823), spec, a)
    p1 = effective_interaction(offset_parallel(a, 250.0, 0.6, 0.2823, b), spec, a)
    p2 = effective_interaction(offset_parallel_rotated(a, 250.0, 0.6, 0.2823, b), spec, a)
    for d in cross.values:
        combined = (p1.values[d] * p1.phi00 + p2.values[d] * p2.phi00) / (p1.phi00 + p2.phi00)
        assert cross.values[d] == pytest.approx(combined, abs=1e-10)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_effective_interaction_rejects_bad_lattice_constant(a):
    spec = RydbergSpec(C6=26.1, r_c=0.173, alpha_bar=0.004)
    pat = offset_parallel(1.73, 250.0, 0.6, 0.2823, extent=1)
    rule = "positive" if math.isfinite(a) else "finite"
    with pytest.raises(ValueError, match=f"^a must be {rule}, got {a}$"):
        effective_interaction(pat, spec, a)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(PATTERN_CONSTRUCTORS)), extent=st.sampled_from([1, 3, 5]),
       a=st.floats(1.6, 1.9), eta=st.sampled_from([3, 6]))
def test_array_path_matches_scalar_references(name, extent, a, eta):
    spec = RydbergSpec(C6=26.1, r_c=0.1 * a, alpha_bar=0.004, eta=eta)
    pat = PATTERN_CONSTRUCTORS[name](a, 100.0, 0.6, 0.2823, extent=extent)
    emap = effective_interaction(pat, spec, a)

    centers = np.array([c for c, zs in zip(pat.centers, pat.polarizations) for _ in zs])
    zetas = np.array([z for zs in pat.polarizations for z in zs])
    points = a * np.array(list(emap.values), dtype=float)
    f = coupling_f(points[:, None, :], centers, zetas, spec)
    ref = np.array([[coupling_f_scalar(p, c, z, spec) for c, z in zip(centers, zetas)]
                    for p in points])
    assert f.shape == ref.shape
    assert np.all(np.abs(f - ref) <= 1e-12 * np.abs(ref))
    assert isinstance(coupling_f(points[1], centers[0], zetas[0], spec), float)

    phi = phi_sum_scalar(pat, spec, a, list(emap.values))
    assert abs(emap.phi00 - phi[(0, 0)]) <= 1e-12 * phi[(0, 0)]
    for d in emap.values:
        assert abs(emap.values[d] * emap.phi00 - phi[d]) <= 1e-12 * phi[(0, 0)]

    k = len(pat.centers) // 2
    offsets = np.linspace(-0.6, 0.6, 7)
    xy = pat.centers[k] + np.stack(np.meshgrid(offsets, offsets, indexing="ij"), axis=-1)
    V = site_potential(pat, k, xy)
    assert V.shape == (7, 7)
    for idx in np.ndindex(7, 7):
        one = site_potential(pat, k, xy[idx])
        assert abs(V[idx] - one) <= 1e-12 * abs(one)

    with pytest.raises(ValueError, match="coincide"):
        effective_interaction(holstein_reference(a, 100.0, 0.6, 0.2823, b=0.0, extent=extent),
                              spec, a)


@pytest.mark.parametrize("name", sorted(PATTERN_CONSTRUCTORS))
def test_truncation_at_extent_five_is_below_1e6_of_phi00(name):
    a = 1.73
    spec = RydbergSpec(C6=26.1, r_c=0.1 * a, alpha_bar=0.004, eta=6)
    m5, m8 = (effective_interaction(PATTERN_CONSTRUCTORS[name](a, 100.0, 0.6, 0.2823, extent=n),
                                    spec, a) for n in (5, 8))
    for d in m8.values:
        assert abs(m5.values[d] * m5.phi00 - m8.values[d] * m8.phi00) <= 1e-6 * m8.phi00


def test_nnn_estimate_validity_window():
    # inside r_c << b < a/sqrt(2) the estimate is a ratio below one
    a = 1.73
    b = 0.3 * a * math.sqrt(2.0)
    est = nnn_ratio_estimate(b, a)
    assert 0.0 < est < 1.0
    assert est == pytest.approx((b / (a * math.sqrt(2.0) - b)) ** 7, rel=1e-14)


@pytest.mark.parametrize("b_over_a", [math.sqrt(2.0), 2.0])
def test_nnn_estimate_rejects_offsets_past_the_nnn_site(b_over_a):
    # the formula is defined for 0 < b < a*sqrt(2): at b = a*sqrt(2) it divides
    # by zero, and beyond it an odd power turns the ratio negative
    a = 1.73
    with pytest.raises(ValueError, match=r"^b must be below a\*sqrt\(2\) = "):
        nnn_ratio_estimate(b_over_a * a, a)


def test_lambda_dimensionless_scalings():
    lam = lambda_dimensionless(1.0, 500.0, M_RB87, 2 * math.pi * 1e4)
    assert lam > 0.0
    assert lambda_dimensionless(2.0, 500.0, M_RB87, 2 * math.pi * 1e4) == pytest.approx(2 * lam)
    assert lambda_dimensionless(1.0, 1000.0, M_RB87, 2 * math.pi * 1e4) == pytest.approx(lam / 2)
    assert lambda_dimensionless(1.0, 500.0, M_RB87, 4 * math.pi * 1e4) == pytest.approx(lam / 4)
    with pytest.raises(ValueError):
        lambda_dimensionless(1.0, -1.0, M_RB87, 1.0)
