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
from gvfpath.controllers import (
    _circle_intersections,
    _signed_curvature,
    los_sample,
    ngl_sample,
)
from gvfpath.field import compose_heading, field_arrays, steering_arrays
from gvfpath.paths import BOUNDARY_SAMPLES, COARSE_STRIDE
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


def _array_projection(path, p):
    """project_to_path with every foot point refined at once, on arrays:
    (point, s, distance, curvature, tangent), or None when it is ambiguous."""
    seeds = path._boundary_pts[::4]
    d_seed = np.hypot(seeds[:, 0] - p[0], seeds[:, 1] - p[1])
    if path.closed:
        left, right = np.roll(d_seed, 1), np.roll(d_seed, -1)
    else:
        left, right = np.r_[np.inf, d_seed[:-1]], np.r_[d_seed[1:], np.inf]
    q, s, d = _array_foot_points(path, p, seeds[(d_seed <= left) & (d_seed <= right)])
    best = np.argmin(d)
    ds = np.abs(s - s[best])
    if path.closed:
        ds = np.minimum(ds, 1.0 - ds)
    if np.min(d[ds >= 1e-6], initial=math.inf) - d[best] < 1e-6:
        return None
    _, gx, gy, hxx, hxy, hyy = (np.broadcast_to(c, len(q))[best]
                                for c in path.jet(q, 2))
    curv = _signed_curvature(gx, gy, hxx, hxy, hyy)
    return q[best], s[best], d[best], curv, np.array([gy, -gx]) / math.hypot(gx, gy)


def _array_foot_points(path, p, q0):
    """path._foot_points with all starts refined at once, on arrays."""
    side = path._foot_side(p[0], p[1])
    q = np.column_stack(path._newton_xy(q0[:, 0], q0[:, 1], side, 2))
    s = path._curve_s(q)
    if not path.closed:
        end = (s == 0.0) | (s == 1.0)
        q[end] = path.point(s[end])
    return q, s, np.hypot(q[:, 0] - p[0], q[:, 1] - p[1])


@REFERENCE_PATHS
def test_float_refinement_matches_array_reference(path, rng):
    # project_to_path and path.distance refine each start on floats; the
    # same Newton on arrays gives the same bits.
    pts = np.concatenate((PADDED_WORKSPACE.sample(rng, 1000),
                          path._boundary_pts[rng.integers(BOUNDARY_SAMPLES, size=50)]))
    ambiguous = 0
    for p in pts:
        ref = _array_projection(path, p)
        try:
            pr = project_to_path(path, p)
        except AmbiguousProjectionError:
            ambiguous += 1
            assert ref is None
        else:
            got = (pr.point, pr.s, pr.distance, pr.curvature, pr.tangent)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        _, k = path.nearest_boundary(p)
        near = path._boundary_pts[k][None]
        assert path.distance(p) == _array_foot_points(path, p, near)[2][0]
    assert ambiguous < len(pts) // 10


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


def _full_scan_circle_intersections(path, center, radius):
    """The circle crossings from a sign-change scan of all 4096 samples: the
    reference for the coarse-cell pruning of _circle_intersections."""
    pts = path._boundary_pts
    f = np.hypot(*(pts - center).T) - radius
    f = np.concatenate((f, f[:1] if path.closed else [np.nan]))
    fa, fb = f[:-1], f[1:]
    k = np.flatnonzero((fa == 0.0) | (fa * fb < 0.0))
    a, b = pts[k], pts[(k + 1) % len(pts)]
    # A zero at sample a starts there (fb may be a zero too, or NaN past the
    # end of an open path).
    t = np.zeros(len(k))
    nz = fa[k] != 0.0
    t[nz] = fa[k][nz] / (fa[k][nz] - fb[k][nz])
    cx, cy = center

    def side(qx, qy, jet):
        dx, dy = qx - cx, qy - cy
        return dx * dx + dy * dy - radius * radius, 2.0 * dx, 2.0 * dy

    # All starts at once, on arrays.
    q = np.column_stack(path._newton_xy(*(a + t[:, None] * (b - a)).T, side))
    return q, path._curve_s(q)


@REFERENCE_PATHS
def test_pruned_circle_scan_matches_full_scan(path, rng):
    pts = path._boundary_pts
    cases = []
    for p in PADDED_WORKSPACE.sample(rng, 150):
        d = float(path.distance_many(p))
        k = int(rng.integers(BOUNDARY_SAMPLES))
        cases += [
            (p, d + 40.0),
            (p, rng.uniform(1.0, 1500.0)),
            (p, 0.5 * d),                       # no crossing
            (p, d), (p, d + 1e-9),              # near-tangent at a sample
            (p, path.distance(p) + 1e-12),      # near-tangent at the foot point
            (p, float(np.hypot(*(pts[k] - p)))),  # through sample k exactly
        ]
    # Circles through the ends of the sample range: on the open line, a zero
    # at the last sample is a crossing with nothing after it.
    for p in PADDED_WORKSPACE.sample(rng, 20):
        cases += [(p, float(np.hypot(*(pts[-1] - p)))),
                  (p, float(np.hypot(*(pts[0] - p))))]
    # Centers behind sample 0, on the line's extension for the sloped line,
    # and radii a few ulps short of a cell's last sample: where the distance
    # grows as fast as the arc length, the coarse |f| can exceed the cell's
    # rounded length by a rounding error while the cell holds a crossing.
    step = (pts[1] - pts[0]) / np.hypot(*(pts[1] - pts[0]))
    for back in (15.0, 85.0):
        p = pts[0] - back * step
        for end in range(COARSE_STRIDE, BOUNDARY_SAMPLES, COARSE_STRIDE):
            r = float(np.hypot(*(pts[end] - p)))
            cases += [(p, r - u * math.ulp(r)) for u in (1, 2, 3)]
    exact = empty = 0
    for p, radius in cases:
        q_ref, s_ref = _full_scan_circle_intersections(path, p, radius)
        q, s = _circle_intersections(path, p, radius)
        assert q.shape == q_ref.shape and s.shape == s_ref.shape
        assert np.array_equal(q, q_ref) and np.array_equal(s, s_ref)
        f = np.hypot(*(pts - p).T) - radius
        exact += bool(np.any(f == 0.0))
        empty += not len(s)
    assert exact >= 150 and empty >= 150


def test_circle_crossing_on_last_sample_of_open_path():
    # The circle passes through the line's last boundary sample (1919.375,
    # 300) and crosses it again at x = 1859.375.
    line = LinePath(0.0, 1.0, -300.0)
    assert np.array_equal(line._boundary_pts[-1], [1919.375, 300.0])
    q, s = _circle_intersections(line, np.array([1889.375, 340.0]), 50.0)
    assert q[:, 0].tolist() == [1859.375, 1919.375]
    assert np.all(q[:, 1] == 300.0)
    assert s[0] < s[1]


def test_circle_through_two_consecutive_samples():
    # The circle passes through samples 1000 and 1001 of the line, which
    # both have f = 0: the bracket between them starts at sample 1000, and
    # sample 1001 is a crossing of its own.
    line = LinePath(0.0, 1.0, -300.0)
    a, b = line._boundary_pts[[1000, 1001]]
    assert a.tolist() == [-15.0, 300.0] and b.tolist() == [-14.375, 300.0]
    center = np.array([-14.6875, 340.0])
    q, s = _circle_intersections(line, center, float(np.hypot(*(a - center))))
    assert q.tolist() == [[-15.0, 300.0], [-14.375, 300.0]]
    assert s[0] < s[1]
