import math

import numpy as np
import pytest

from gvfpath import (
    AmbiguousProjectionError,
    Direction,
    GuidanceInfeasibleError,
    GvfParams,
    LosParams,
    NglParams,
    Pose,
    gvf_control,
    project_to_path,
)
from gvfpath.controllers import los_sample, ngl_sample
from gvfpath.field import compose_heading, guiding_field


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
        s = gvf_control(ellipse, identity, exp_params, Pose(x, y, alpha))
        if s.regular:
            assert s.omega == s.omega_d - exp_params.k_delta * s.delta


def test_gvf_control_aligned_follows_field(ellipse, identity, exp_params):
    g = guiding_field(ellipse, identity, exp_params, (1000.0, 350.0))
    alpha = compose_heading(g.m_d, 0.0)
    s = gvf_control(ellipse, identity, exp_params, Pose(1000.0, 350.0, alpha))
    assert s.delta == pytest.approx(0.0, abs=1e-12)
    assert s.omega == pytest.approx(s.omega_d, abs=1e-12)


def test_gvf_control_quarter_turn_penalty(line_y0, identity):
    # delta = pi/2 contributes exactly -k_delta * pi/2 = -pi to the command.
    params = GvfParams(k_n=1.0, k_delta=2.0, u_r=1.0)
    s = gvf_control(line_y0, identity, params, Pose(0.0, 0.0, math.pi / 2))
    assert s.delta == pytest.approx(math.pi / 2)
    assert s.omega - s.omega_d == pytest.approx(-math.pi)


def test_gvf_control_straight_line_invariant(line_y0, identity):
    params = GvfParams(k_n=1.0, k_delta=2.0, u_r=1.0)
    s = gvf_control(line_y0, identity, params, Pose(0.0, 0.0, 0.0))
    assert s.e == 0.0
    assert s.delta == 0.0
    assert s.omega == 0.0


def test_gvf_control_degenerate_flag(ellipse, identity, exp_params):
    s = gvf_control(ellipse, identity, exp_params, Pose(600.0, 350.0, 1.0))
    assert not s.regular
    assert s.omega == 0.0
    assert math.isnan(s.delta)


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
