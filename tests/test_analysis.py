import math

import numpy as np
import pytest

from gvfpath import (
    ArctanPower,
    CassiniPath,
    CirclePath,
    Classification,
    EllipsePath,
    GvfParams,
    IdentityMap,
    PolynomialPath,
    Pose,
    RationalSignPower,
    classify_critical_point,
    critical_error_threshold,
    find_critical_points,
    viability_check,
)
from gvfpath.analysis import critical_distance, sample_invariant_set
from gvfpath.field import compose_heading, field_arrays, steering_arrays


def test_find_critical_points_ellipse(ellipse):
    found = find_critical_points(ellipse)
    assert len(found.locations) == 1
    assert not found.unclassifiable
    assert found.locations[0] == pytest.approx([600.0, 350.0], abs=1e-6)


def test_find_critical_points_cassini(cassini):
    found = find_critical_points(cassini)
    assert len(found.locations) == 3
    expect = [(300.0, 350.0), (600.0, 350.0), (900.0, 350.0)]
    for loc, ref in zip(found.locations, expect):
        assert loc == pytest.approx(ref, abs=1e-6)
    # Finite-difference confirmation that each root really kills the gradient.
    for loc in found.locations:
        h = 1e-3
        for k, ek in enumerate((np.array([h, 0.0]), np.array([0.0, h]))):
            fd = (cassini.phi(loc + ek) - cassini.phi(loc - ek)) / (2 * h)
            assert abs(fd) < 1e-6


def test_find_critical_points_line_empty(line_y0):
    found = find_critical_points(line_y0)
    assert not found.locations and not found.unclassifiable


def test_degenerate_hessian_reported_not_dropped():
    # phi = x^4 + y^4 has a gradient zero with a singular Hessian at the
    # origin; Newton contracts onto it geometrically.
    quartic = PolynomialPath(terms=((4, 0, 1.0), (0, 4, 1.0)))
    found = find_critical_points(quartic)
    assert not found.locations
    assert len(found.unclassifiable) == 1
    assert found.unclassifiable[0] == pytest.approx([0.0, 0.0], abs=1e-3)


def test_critical_set_points(cassini, line_y0):
    # points is the whole critical set: locations, then unclassifiable roots.
    found = find_critical_points(cassini)
    assert np.array_equal(found.points, np.array(found.locations))
    assert find_critical_points(line_y0).points.shape == (0, 2)
    quartic = PolynomialPath(terms=((4, 0, 1.0), (0, 4, 1.0)))
    found = find_critical_points(quartic)
    assert np.array_equal(found.points, np.array(found.unclassifiable))
    merged = type(found)(locations=[np.array([1.0, 2.0])],
                         unclassifiable=[np.array([3.0, 4.0])])
    assert merged.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_classify_ellipse_center_repulsive(ellipse, identity):
    cp = classify_critical_point(ellipse, identity, 3.0, (600.0, 350.0))
    assert cp.classification is Classification.REPULSIVE
    assert cp.e_value == pytest.approx(-1.6)
    assert cp.hessian_eigs == pytest.approx((2e-5, 8e-5))
    assert cp.trace_j > 0.0 and cp.det_j > 0.0


def test_classify_cassini_points(cassini, identity):
    center = classify_critical_point(cassini, identity, 3.0, (600.0, 350.0))
    assert center.classification is Classification.SADDLE_ZERO_MEASURE
    assert center.hessian_eigs[0] < 0.0 < center.hessian_eigs[1]
    assert center.det_j < 0.0
    for x in (300.0, 900.0):
        locus = classify_critical_point(cassini, identity, 3.0, (x, 350.0))
        assert locus.classification is Classification.REPULSIVE
        assert locus.e_value < 0.0
        assert min(locus.hessian_eigs) > 0.0


def test_classify_trap_when_eh_positive():
    # A strict minimum of phi inside the region where phi > 0: e*H is
    # positive definite, so the raw flow can be attracted there.
    bowl = PolynomialPath(terms=((0, 0, 1.0), (2, 0, 1.0), (0, 2, 1.0)))
    cp = classify_critical_point(bowl, ArctanPower(1.0), 2.0, (0.0, 0.0))
    assert cp.classification is Classification.POTENTIAL_TRAP


def test_classify_requires_critical_point(ellipse, identity):
    with pytest.raises(ValueError):
        classify_critical_point(ellipse, identity, 3.0, (1000.0, 350.0))


def test_critical_error_threshold_values(ellipse, cassini, line_y0, identity):
    assert critical_error_threshold(ellipse, identity, [(600.0, 350.0)]) == \
        pytest.approx(1.6, abs=1e-12)
    found = find_critical_points(cassini)
    e_c = critical_error_threshold(cassini, identity, found.locations)
    assert e_c == pytest.approx(0.375921, abs=1e-9)  # k_s * (p^4 - q^4)
    assert critical_error_threshold(line_y0, identity, []) == math.inf


def test_critical_distance_to_empty_set_is_inf():
    d = critical_distance(np.zeros((3, 2)), np.empty((0, 2)))
    assert d.shape == (3,) and np.all(d == math.inf)


def test_invariant_set_spec_band(ellipse, identity):
    found = find_critical_points(ellipse)
    e_c = critical_error_threshold(ellipse, identity,
                                   found.locations + found.unclassifiable)
    assert e_c == pytest.approx(1.6)
    assert math.atan(3.0 * e_c) == pytest.approx(math.atan(4.8))


def _in_invariant_set(path, errmap, params, e_c, x, y, alpha):
    """Strict membership in M, read off the steering kernel: regular,
    |e| < e_c and |delta| < arctan(k_n e_c)."""
    st = steering_arrays(path, errmap, params, x, y, alpha)
    band = math.atan(params.k_n * e_c)
    return st["regular"] & (np.abs(st["e"]) < e_c) & (np.abs(st["delta"]) < band)


def test_in_invariant_set_examples(ellipse, identity, exp_params):
    # On the path, aligned: inside.
    m_d = field_arrays(ellipse, identity, 3.0, (1000.0, 350.0))["m_d"]
    aligned = compose_heading(m_d, 0.0)
    assert _in_invariant_set(ellipse, identity, exp_params, 1.6, 1000.0, 350.0, aligned)

    # |e| equal to e_c: excluded by strictness.
    e_here = abs(float(identity.psi(ellipse.phi(np.array([960.0, 350.0])))))
    assert not _in_invariant_set(ellipse, identity, exp_params, e_here,
                                 960.0, 350.0, aligned)

    # e = 1.0 with delta = 1.3 rad: inside (band is arctan 4.8 ~ 1.3654).
    x = 600.0 + math.sqrt(260000.0)
    m_d = field_arrays(ellipse, identity, 3.0, (x, 350.0))["m_d"]
    tilted = compose_heading(m_d, 1.3)
    assert _in_invariant_set(ellipse, identity, exp_params, 1.6, x, 350.0, tilted)
    beyond = compose_heading(m_d, 1.37)
    assert not _in_invariant_set(ellipse, identity, exp_params, 1.6, x, 350.0, beyond)

    # Degenerate point: never inside.
    assert not _in_invariant_set(ellipse, identity, exp_params, 1.6, 600.0, 350.0, 0.0)


def test_viability_formula_experiment_parameters(ellipse, identity, exp_params):
    m_d = field_arrays(ellipse, identity, exp_params.k_n, (1000.0, 350.0))["m_d"]
    pose = Pose(1000.0, 350.0, compose_heading(m_d, 0.0))
    rep = viability_check(ellipse, identity, pose, 1.6, exp_params)
    assert rep.rhs_viability_2 == pytest.approx(
        25.0 * math.log(math.pi / math.atan(4.8)), abs=1e-12)
    assert rep.rhs_viability_2 == pytest.approx(20.832044, abs=1e-5)
    # Aligned start: the heading term vanishes and capture is guaranteed.
    assert rep.rhs_viability_1 == 0.0
    assert rep.d0_lower_bound > 0.0
    assert rep.guaranteed


def test_viability_requires_error_below_threshold(ellipse, identity, exp_params):
    with pytest.raises(ValueError):
        viability_check(ellipse, identity, Pose(1200.0, 680.0, 0.0), 1.6,
                        exp_params)


def test_viability_not_guaranteed_next_to_the_center(ellipse, identity,
                                                     exp_params):
    # The center, where |e| = e_c = 1.6, lies 5 Px from the start, and the
    # heading term needs rhs_1 = 20.75 Px.
    m_d = field_arrays(ellipse, identity, exp_params.k_n, (605.0, 350.0))["m_d"]
    pose = Pose(605.0, 350.0, compose_heading(m_d, math.pi - 0.01))
    rep = viability_check(ellipse, identity, pose, 1.6, exp_params)
    assert rep.rhs_viability_1 == pytest.approx(20.752340, abs=1e-5)
    assert rep.d0_lower_bound <= 5.0
    assert not rep.guaranteed


def test_viability_rejects_pose_outside_region(line_y0, identity, exp_params):
    # The bound on |grad phi| holds inside the working region only; the line
    # has no critical points, so e_c = inf admits every other start.
    assert viability_check(line_y0, identity, Pose(0.0, 1070.0, 0.0), math.inf,
                           exp_params).guaranteed
    with pytest.raises(ValueError, match="outside the working region"):
        viability_check(line_y0, identity, Pose(0.0, 1090.0, 0.0), math.inf,
                        exp_params)


def _brute_force_viability_distance(path, errmap, p0, e_c):
    """The nearest point with |e| >= e_c along 360 rays from p0, marched in
    0.25 Px steps up to 300 Px inside the working region (+inf if none)."""
    ang = np.radians(np.arange(360.0))
    r = 0.25 * np.arange(1, 1201)
    pts = p0 + r[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    bad = np.abs(errmap.psi(path.phi(pts))) >= e_c
    bad &= path.region.contains(pts)
    return float(np.min(np.broadcast_to(r[:, None], bad.shape)[bad],
                        initial=math.inf))


@pytest.mark.parametrize("path", [
    EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
    CirclePath(640.0, 360.0, 250.0, k_s=1e-5),
    PolynomialPath(terms=((2, 0, 1e-5), (1, 0, -0.012), (0, 2, 4e-5),
                          (0, 1, -0.028), (0, 0, 6.9), (3, 0, 1e-9))),
], ids=["ellipse", "cassini", "circle", "polynomial"])
@pytest.mark.parametrize("errmap", [IdentityMap(), ArctanPower(2.0),
                                    RationalSignPower(2.0)],
                         ids=["identity", "arctan", "rational"])
def test_viability_distance_is_a_lower_bound(path, errmap, exp_params):
    e_c = critical_error_threshold(path, errmap, find_critical_points(path).points)
    rng = np.random.default_rng(20261020)
    pts = path.region.sample(rng, 400)
    pts = pts[np.abs(errmap.psi(path.phi(pts))) < e_c][:6]
    assert len(pts) == 6
    found = 0
    for x, y in pts:
        d0 = viability_check(path, errmap, Pose(x, y, 0.0), e_c,
                             exp_params).d0_lower_bound
        d_star = _brute_force_viability_distance(path, errmap, np.array([x, y]), e_c)
        assert 0.0 < d0 <= d_star
        found += d_star < math.inf
    assert found


def test_viability_lipschitz_bound_circle(identity):
    # arctan error map on a circle: |grad e| = 2r/(1 + (r^2 - 1)^2) is
    # globally bounded; the Lipschitz route gives d0 = (e_c - |e0|)/c.
    circle = CirclePath(0.0, 0.0, 1.0)
    errmap = ArctanPower(1.0)
    params = GvfParams(k_n=2.0, k_delta=1.0, u_r=1.0)
    e_c = abs(float(errmap.psi(circle.phi(np.zeros(2)))))
    assert e_c == pytest.approx(math.pi / 4)

    r = np.linspace(0.0, 50.0, 200001)
    c = float(np.max(2 * r / (1 + (r**2 - 1) ** 2)))

    m_d = field_arrays(circle, errmap, params.k_n, (1.2, 0.0))["m_d"]
    pose = Pose(1.2, 0.0, compose_heading(m_d, 0.0))
    e0 = abs(float(errmap.psi(circle.phi(pose.xy))))
    assert e0 < e_c
    rep = viability_check(circle, errmap, pose, e_c, params, lipschitz_c=c)
    assert rep.d0_lower_bound == pytest.approx((e_c - e0) / c, rel=1e-12)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_viability_rejects_bad_lipschitz(ellipse, identity, exp_params, c):
    pose = Pose(1000.0, 350.0, -math.pi / 2)
    with pytest.raises(ValueError, match="lipschitz_c must be positive"):
        viability_check(ellipse, identity, pose, 1.6, exp_params, lipschitz_c=c)


def test_band_monotone_in_gain():
    e_c = 1.6
    bands = [math.atan(k * e_c) for k in np.linspace(0.5, 20.0, 40)]
    assert all(b2 > b1 for b1, b2 in zip(bands, bands[1:]))


def test_sampled_poses_lie_in_set(ellipse, identity, exp_params, rng):
    poses = sample_invariant_set(ellipse, identity, 3.0, 1.6, 50, rng)
    assert len(poses) == 50
    assert np.all(_in_invariant_set(ellipse, identity, exp_params, 1.6, *poses.T))


@pytest.mark.parametrize("e_c, n, name", [(0.0, 5, "e_c"), (math.nan, 5, "e_c"),
                                          (-1.0, 5, "e_c"), (1.6, -3, "n")])
def test_sample_invariant_set_rejects_bad_arguments(ellipse, identity, rng,
                                                    e_c, n, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        sample_invariant_set(ellipse, identity, 3.0, e_c, n, rng)


@pytest.mark.parametrize("k_n", [0.0, -1.0, math.nan, math.inf])
def test_sample_invariant_set_rejects_bad_gain(ellipse, identity, rng, k_n):
    # k_n = 0 leaves the heading band, and so M, empty.
    with pytest.raises(ValueError, match="^k_n must"):
        sample_invariant_set(ellipse, identity, k_n, 1.6, 5, rng)


def test_sample_invariant_set_gives_up_when_m_is_almost_empty(ellipse, identity,
                                                               rng):
    # With e_c = 1e-300 almost no position of the region lies in M.
    with pytest.raises(ValueError, match="no pose inside M"):
        sample_invariant_set(ellipse, identity, 3.0, 1e-300, 1, rng)


def test_sample_invariant_set_accepts_empty_critical_set(ellipse, identity, rng):
    # e_c = inf is the threshold of a path without critical points.
    poses = sample_invariant_set(ellipse, identity, 3.0, math.inf, 5, rng)
    assert poses.shape == (5, 3)
