import math

import numpy as np
import pytest

from gvfpath import (
    AmbiguousProjectionError,
    CassiniPath,
    CirclePath,
    Direction,
    EllipsePath,
    GuidanceInfeasibleError,
    GvfParams,
    LinePath,
    LosParams,
    NglParams,
    Pose,
    project_to_path,
)
from gvfpath.controllers import _circle_intersections, los_sample, ngl_sample
from gvfpath.field import compose_heading, field_arrays, steering_arrays
from gvfpath.paths import BOUNDARY_SAMPLES
from gvfpath.util import PADDED_WORKSPACE


def test_params_validation():
    with pytest.raises(ValueError):
        LosParams(lookahead=-1.0, k_los=2.0)
    with pytest.raises(ValueError):
        NglParams(radius=40.0, k_r=0.0)


def test_gvf_control_law_identity(ellipse, identity, exp_params, rng):
    # omega = omega_d - k_delta * delta, bitwise, at every regular pose.
    for _ in range(50):
        x = rng.uniform(0, 1280)
        y = rng.uniform(0, 720)
        alpha = rng.uniform(-math.pi, math.pi)
        s = steering_arrays(ellipse, identity, exp_params, x, y, alpha)
        if s["regular"]:
            assert s["omega"] == s["omega_d"] - exp_params.k_delta * s["delta"]


def test_gvf_control_aligned_follows_field(ellipse, identity, exp_params):
    m_d = field_arrays(ellipse, identity, exp_params.k_n, (1000.0, 350.0))["m_d"]
    alpha = compose_heading(m_d, 0.0)
    s = steering_arrays(ellipse, identity, exp_params, 1000.0, 350.0, alpha)
    assert s["delta"] == pytest.approx(0.0, abs=1e-12)
    assert s["omega"] == pytest.approx(s["omega_d"], abs=1e-12)


def test_gvf_control_quarter_turn_penalty(line_y0, identity):
    # delta = pi/2 contributes exactly -k_delta * pi/2 = -pi to the command.
    params = GvfParams(k_n=1.0, k_delta=2.0, u_r=1.0)
    s = steering_arrays(line_y0, identity, params, 0.0, 0.0, math.pi / 2)
    assert s["delta"] == pytest.approx(math.pi / 2)
    assert s["omega"] - s["omega_d"] == pytest.approx(-math.pi)


def test_gvf_control_straight_line_invariant(line_y0, identity):
    params = GvfParams(k_n=1.0, k_delta=2.0, u_r=1.0)
    s = steering_arrays(line_y0, identity, params, 0.0, 0.0, 0.0)
    assert s["e"] == 0.0
    assert s["delta"] == 0.0
    assert s["omega"] == 0.0


def test_gvf_control_degenerate_flag(ellipse, identity, exp_params):
    # The ellipse centre is a critical point: the kernel flags it, commands no
    # turn and leaves delta and omega_d undefined, whatever the heading.
    for alpha in (1.0, 0.2):
        s = steering_arrays(ellipse, identity, exp_params, 600.0, 350.0, alpha)
        assert not s["regular"]
        assert s["omega"] == 0.0
        assert math.isnan(s["delta"])
        assert math.isnan(s["omega_d"])


def test_project_to_semiaxis_end(ellipse):
    pr = project_to_path(ellipse, (1050.0, 350.0))
    assert pr.point == pytest.approx([1000.0, 350.0], abs=1e-4)
    assert pr.distance == pytest.approx(50.0, abs=1e-6)
    # Parametric oracle at the rightmost point (s = 0): with x = x0 + pR cos,
    # y = y0 - qR sin, the signed curvature is -(pR)/(qR)^2 = -0.01.
    assert pr.curvature == pytest.approx(-0.01, abs=1e-9)
    assert pr.tangent == pytest.approx([0.0, -1.0], abs=1e-6)


def test_project_point_on_path_is_fixed(ellipse):
    p = ellipse.point(np.array(0.37))
    pr = project_to_path(ellipse, p)
    assert pr.distance < 1e-6
    assert pr.point == pytest.approx(p, abs=1e-5)


def test_project_center_is_ambiguous(ellipse):
    with pytest.raises(AmbiguousProjectionError):
        project_to_path(ellipse, (600.0, 350.0))


def test_project_reverse_flips_orientation(ellipse):
    fwd = project_to_path(ellipse, (1050.0, 350.0), Direction.FORWARD)
    rev = project_to_path(ellipse, (1050.0, 350.0), Direction.REVERSE)
    assert rev.curvature == pytest.approx(-fwd.curvature)
    assert rev.tangent == pytest.approx(-fwd.tangent)


def test_project_past_line_end(line_y0):
    # The chord of y = 0 ends at x = 1920 (s = 1); the foot point of
    # (2000, 30) on the infinite line lies past it, so the end is nearest.
    pr = project_to_path(line_y0, (2000.0, 30.0))
    assert pr.s == 1.0
    assert pr.point == pytest.approx([1920.0, 0.0], abs=1e-9)
    assert pr.distance == pytest.approx(math.hypot(80.0, 30.0), abs=1e-9)
    assert line_y0.distance((2000.0, 30.0)) == pytest.approx(pr.distance, abs=1e-9)
    assert project_to_path(line_y0, (-700.0, -5.0)).s == 0.0


def test_los_line_geometry(line_y0):
    # Robot 70 above the line, aiming at the lookahead point 70 ahead: the
    # bearing is -pi/4 and the heading error vanishes.
    w = los_sample(line_y0, LosParams(lookahead=70.0, k_los=2.0),
                   Pose(0.0, 70.0, -math.pi / 4), u_r=13.0).omega
    assert w == pytest.approx(0.0, abs=1e-6)


def test_los_on_path_feedforward(ellipse, unit_circle):
    s = los_sample(ellipse, LosParams(lookahead=70.0, k_los=2.0),
                   Pose(1000.0, 350.0, -math.pi / 2), u_r=50.0)
    assert s.heading_error == pytest.approx(0.0, abs=1e-6)
    assert s.omega == pytest.approx(-0.01 * 50.0, abs=1e-5)
    w = los_sample(unit_circle, LosParams(lookahead=0.4, k_los=2.0),
                   Pose(1.0, 0.0, -math.pi / 2), u_r=1.0).omega
    assert abs(w) == pytest.approx(1.0, abs=1e-6)


def test_ngl_on_path_aligned(line_y0):
    s = ngl_sample(line_y0, NglParams(radius=50.0, k_r=2.0), Pose(0.0, 0.0, 0.0))
    assert s.bearing == pytest.approx(0.0, abs=1e-8)
    assert s.omega == pytest.approx(0.0, abs=1e-8)


def test_ngl_three_four_five(line_y0):
    # Intersections at (+-40, 0); ahead is (40, 0), bearing atan2(-30, 40).
    s = ngl_sample(line_y0, NglParams(radius=50.0, k_r=2.0), Pose(0.0, 30.0, 0.0))
    assert s.bearing == pytest.approx(math.atan2(-30.0, 40.0), abs=1e-7)
    assert s.omega == pytest.approx(-2.0 * (0.0 - math.atan2(-30.0, 40.0)), abs=1e-6)
    assert s.omega == pytest.approx(-1.2870022175865687, abs=1e-6)


def test_ngl_infeasible_when_far(line_y0):
    with pytest.raises(GuidanceInfeasibleError):
        ngl_sample(line_y0, NglParams(radius=50.0, k_r=2.0), Pose(0.0, 100.0, 0.0))


@pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.REVERSE])
def test_ngl_picks_strictly_ahead(ellipse, direction, rng):
    params = NglParams(radius=40.0, k_r=2.0, direction=direction)
    picked = 0
    while picked < 40:
        s_param = rng.uniform(0.0, 1.0)
        offset = rng.uniform(-25.0, 25.0)
        base = ellipse.point(np.array(s_param))
        g = ellipse.grad(base)
        nhat = g / np.hypot(*g)
        pose = Pose(*(base + offset * nhat), rng.uniform(-math.pi, math.pi))
        try:
            samp = ngl_sample(ellipse, params, pose)
            proj = project_to_path(ellipse, (pose.x, pose.y), direction)
        except (GuidanceInfeasibleError, AmbiguousProjectionError):
            continue
        ahead = (samp.target_s - proj.s) % 1.0
        if direction is Direction.REVERSE:
            ahead = (proj.s - samp.target_s) % 1.0
        assert 0.0 < ahead < 0.5
        picked += 1


# -- reference refiners: the golden-section projection and the bisection
# circle intersection that the on-curve Newton step replaced ---------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a, b, iters=45):
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _reference_dist(path, p):
    def dist(s):
        return float(np.hypot(*(path.point(s % 1.0 if path.closed else s) - p)))
    return dist


def _reference_projection(path, p):
    """(distance, s) of the projection, or None when it is ambiguous."""
    h = 1.0 / 1024
    seeds = path._boundary_pts[::4]
    d_seed = np.hypot(*(seeds - p).T)
    if path.closed:
        left, right = np.roll(d_seed, 1), np.roll(d_seed, -1)
    else:
        left, right = np.r_[np.inf, d_seed[:-1]], np.r_[d_seed[1:], np.inf]
    minima = []
    for k in np.flatnonzero((d_seed <= left) & (d_seed <= right)):
        lo, hi = k * h - h, k * h + h
        if not path.closed:
            lo, hi = max(lo, 0.0), min(hi, 1.0 - 1e-12)
        s, d = _golden_min(_reference_dist(path, p), lo, hi)
        minima.append((d, s % 1.0 if path.closed else s))
    minima.sort()
    d_best, s_best = minima[0]
    for d, s in minima[1:]:
        ds = abs(s - s_best)
        if (min(ds, 1.0 - ds) if path.closed else ds) >= 1e-6:
            return None if d - d_best < 1e-6 else (d_best, s_best)
    return d_best, s_best


def _reference_circle_hits(path, center, radius):
    """Parameters s of the circle crossings, bisected to 1e-8 in s."""
    n = BOUNDARY_SAMPLES
    h = 1.0 / n
    f = np.hypot(*(path._boundary_pts - center).T) - radius
    fa = f if path.closed else f[:-1]
    fb = np.roll(f, -1) if path.closed else f[1:]
    dist = _reference_dist(path, center)
    hits = []
    for k in np.flatnonzero((fa == 0.0) | (fa * fb < 0.0)):
        a, b, f_lo = k * h, (k + 1) * h, f[k]
        for _ in range(math.ceil(math.log2(h / 1e-8))):
            m = 0.5 * (a + b)
            fm = dist(m) - radius
            if f_lo * fm <= 0.0:
                b = m
            else:
                a, f_lo = m, fm
        hits.append((0.5 * (a + b)) % 1.0 if path.closed else 0.5 * (a + b))
    return hits


REFERENCE_PATHS = pytest.mark.parametrize("path", [
    EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
    CirclePath(640.0, 360.0, 250.0),
    LinePath(1.0, 2.0, -1300.0),
], ids=["ellipse", "cassini", "circle", "sloped_line"])


def _s_gap(path, a, b):
    ds = np.abs(np.asarray(a) - b)
    return np.minimum(ds, 1.0 - ds) if path.closed else ds


@REFERENCE_PATHS
def test_newton_refiners_match_reference(path, rng):
    for p in PADDED_WORKSPACE.sample(rng, 1000):
        ref = _reference_projection(path, p)
        try:
            pr = project_to_path(path, p)
        except AmbiguousProjectionError:
            assert ref is None
        else:
            assert ref is not None
            d_ref, s_ref = ref
            assert abs(pr.distance - d_ref) < 1e-9
            assert path.distance(p) == pytest.approx(d_ref, abs=1e-9)
            assert _s_gap(path, pr.s, s_ref) < 1e-6
            assert np.hypot(*(pr.point - path.point(s_ref))) < 1e-4

        radius = float(path.distance_many(p)) + 40.0
        s_ref = _reference_circle_hits(path, p, radius)
        targets, s_new = _circle_intersections(path, p, radius)
        assert len(s_new) == len(s_ref)
        for s in s_ref:
            j = np.argmin(_s_gap(path, s_new, s))
            assert _s_gap(path, s_new[j], s) < 1e-6
            assert np.hypot(*(targets[j] - path.point(s))) < 1e-4


@REFERENCE_PATHS
def test_foot_point_is_exact(path, rng):
    # The foot point q of p satisfies (q - p) x grad phi(q) = 0: its
    # tangential residual is rounding, not a bracket width.
    for p in PADDED_WORKSPACE.sample(rng, 200):
        try:
            pr = project_to_path(path, p)
        except AmbiguousProjectionError:
            continue
        if not 0.0 < pr.s < 1.0:
            continue
        (dx, dy), (gx, gy) = pr.point - p, path.grad(pr.point)
        assert abs(dx * gy - dy * gx) / math.hypot(gx, gy) < 1e-9
