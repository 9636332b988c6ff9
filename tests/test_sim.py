import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvfpath import (
    GvfParams,
    LinePath,
    LosParams,
    NglParams,
    PolynomialPath,
    Pose,
    StopPolicy,
    TerminationKind,
    TraceLabel,
    TraceMode,
    simulate,
    simulate_gvf_batch,
    trace_batch,
    wrap_angle,
)
from gvfpath import analysis
from gvfpath.analysis import find_critical_points, sample_invariant_set
from gvfpath.field import compose_heading, field_arrays
from gvfpath.scenario import bundled_scenario
from gvfpath.sim import (
    _KINDS,
    _RowRecorder,
    _gvf_steer,
    _rk4_step,
    _run,
    _simulate_runs,
    _trace_command,
    _unicycle_command,
)
from gvfpath.util import WORKSPACE


def _step(pose, u_r, omega, dt):
    """The simulator's RK4 step applied to one pose."""
    return Pose(*map(float, _rk4_step(pose.x, pose.y, pose.alpha, u_r, omega, dt)))


def test_pose_wraps_alpha():
    assert Pose(0.0, 0.0, 4.0419).alpha == pytest.approx(4.0419 - 2 * math.pi)
    assert Pose(0.0, 0.0, -math.pi).alpha == math.pi
    assert Pose(0.0, 0.0, 0.25).alpha == 0.25


@pytest.mark.parametrize("xya", [(math.nan, 300.0, 0.0), (600.0, math.inf, 0.0),
                                 (600.0, 300.0, math.nan)])
def test_pose_rejects_non_finite(xya):
    with pytest.raises(ValueError, match="not finite"):
        Pose(*xya)


def test_batches_reject_non_finite_starts(ellipse, identity, exp_params):
    poses = np.array([[472.0, 311.0, 0.0768], [np.nan, 300.0, 0.0]])
    with pytest.raises(ValueError, match=r"row\(s\) \[1\]"):
        simulate_gvf_batch(ellipse, identity, exp_params, poses, dt=0.005,
                           t_max=1.0)
    with pytest.raises(ValueError, match=r"row\(s\) \[0\]"):
        trace_batch(ellipse, identity, 3.0, [(np.inf, 350.0)], TraceMode.RAW,
                    dt=0.005, t_max=1.0)


def test_batches_reject_mis_shaped_starts(ellipse, identity, exp_params):
    # Three (x, y) rows are not two poses, and two (x, y, alpha) rows are not
    # three starts; one pose (3,) or one start (2,) is a batch of one.
    kw = dict(dt=0.005, t_max=1.0)
    with pytest.raises(ValueError, match=r"\(3, 2\) are not \(B, 3\) or \(3,\)"):
        simulate_gvf_batch(ellipse, identity, exp_params,
                           np.array([[900, 350], [1000, 350], [700, 300]]), **kw)
    with pytest.raises(ValueError, match=r"\(2, 3\) are not \(B, 2\) or \(2,\)"):
        trace_batch(ellipse, identity, 3.0, np.array([[650.0, 350.0, 0.0],
                                                     [700.0, 300.0, 0.0]]),
                    TraceMode.RAW, **kw)
    one = simulate_gvf_batch(ellipse, identity, exp_params, [472.0, 311.0, 0.0768], **kw)
    assert len(one.kind) == 1
    labels, _ = trace_batch(ellipse, identity, 3.0, (650.0, 350.0), TraceMode.RAW, **kw)
    assert len(labels) == 1
    none = simulate_gvf_batch(ellipse, identity, exp_params, np.empty((0, 3)), **kw)
    assert len(none.kind) == 0


@pytest.mark.parametrize("controller", [LosParams(lookahead=70.0, k_los=2.0), "gvf"])
def test_gvf_batch_rejects_other_controllers(ellipse, identity, controller):
    with pytest.raises(TypeError, match="unsupported controller"):
        simulate_gvf_batch(ellipse, identity, controller, [[472.0, 311.0, 0.0768]],
                           dt=0.005, t_max=1.0)


@pytest.mark.parametrize("mode", ["bogus", "raw", None])
def test_trace_batch_rejects_unknown_mode(ellipse, identity, mode):
    with pytest.raises(ValueError, match="mode must be a TraceMode"):
        trace_batch(ellipse, identity, 3.0, [(650.0, 350.0)], mode, dt=0.005,
                    t_max=1.0)


@pytest.mark.parametrize("gains", [{"u_r": math.nan}, {"k_n": math.nan},
                                   {"u_r": 0.0}, {"u_r": -50.0}])
def test_trace_batch_rejects_invalid_gains(ellipse, identity, gains):
    # Such gains once ran: NaN ones ended "critical", u_r <= 0 timed out.
    k_n, u_r = gains.get("k_n", 3.0), gains.get("u_r", 50.0)
    with pytest.raises(ValueError, match=f"{next(iter(gains))} must be positive"):
        trace_batch(ellipse, identity, k_n, [(980.0, 350.0)], TraceMode.NORMALIZED,
                    dt=0.005, t_max=1.0, u_r=u_r)


@pytest.mark.parametrize("bad", [{"dt": math.nan}, {"dt": math.inf},
                                 {"t_max": math.nan}, {"t_max": math.inf}])
def test_runs_reject_non_finite_dt_and_t_max(ellipse, identity, exp_params, bad):
    kw = {"dt": 0.005, "t_max": 1.0, **bad}
    match = f"{next(iter(bad))} must be positive and finite"
    with pytest.raises(ValueError, match=match):
        simulate_gvf_batch(ellipse, identity, exp_params, [472.0, 311.0, 0.0768], **kw)
    with pytest.raises(ValueError, match=match):
        trace_batch(ellipse, identity, 3.0, [650.0, 350.0], TraceMode.NORMALIZED, **kw)


def test_recorded_trace_searches_no_distances(ellipse, identity, monkeypatch):
    # A trace's recorder reads pts and e only, so recording must not turn on
    # the full distance search; the dwell test stays on the witness.
    starts = [(980.0, 350.0), (650.0, 350.0), (600.0, 600.0), (-500.0, 0.0)]
    kw = dict(dt=0.005, t_max=10.0, u_r=50.0, stop=StopPolicy(t_dwell=1.0))
    ref = trace_batch(ellipse, identity, 3.0, starts, TraceMode.NORMALIZED, **kw)

    def no_search(self, pts):
        raise AssertionError("full distance search")

    monkeypatch.setattr(type(ellipse), "distance_many", no_search)
    rows = []
    got = trace_batch(ellipse, identity, 3.0, starts, TraceMode.NORMALIZED, **kw,
                      record=lambda t, ids, pts, e: rows.append(len(ids)))
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert TraceLabel.PATH in ref[0].tolist() and len(rows) > 1


def _edge_starts(path, crit, tol_c):
    """One batch per critical point and per region edge: poses 0-3 Px outside
    tol_c of the point or inside the edge, heading into it, and the same
    poses turned about.  The gaps are several steps apart, so that the tests
    are skipped between exits."""
    gaps = np.array([0.0, 0.7, 1.6, 3.0])
    ang = 2.0 * math.pi * np.arange(12) / 12.0
    d = tol_c + np.repeat(gaps, 3)
    batches = [np.column_stack([px + d * np.cos(ang), py + d * np.sin(ang),
                                ang + math.pi]) for px, py in crit]
    r = path.region
    along = np.linspace(0.3, 0.7, 4)
    xs, ys = r.xmin + r.width * along, r.ymin + r.height * along
    for x, y, heading in ((r.xmin + gaps, ys, math.pi), (r.xmax - gaps, ys, 0.0),
                          (xs, r.ymin + gaps, -0.5 * math.pi),
                          (xs, r.ymax - gaps, 0.5 * math.pi)):
        batches.append(np.column_stack([x, y, np.full(4, heading)]))
    return [np.concatenate([b, b + [0.0, 0.0, math.pi]]) for b in batches]


@pytest.mark.parametrize("name", ["ellipse_experiment", "cassini_experiment"])
def test_deadline_changes_no_decision(name, monkeypatch):
    # The critical-set and domain tests are skipped until some row could fail
    # one.  Against running them on every step (speed = inf), no outcome may
    # change, bit for bit, and the tests must have been skipped.
    scn = bundled_scenario(f"{name}.cfg")
    path, stop = scn.path, scn.stop
    crit = find_critical_points(path).points
    calls = []
    distance = analysis.critical_distance
    monkeypatch.setattr(analysis, "critical_distance",
                        lambda *a: calls.append(1) or distance(*a))
    trace = _trace_command(path, scn.errmap, scn.gvf.k_n, TraceMode.NORMALIZED,
                           scn.gvf.u_r, scn.dt)
    codes = np.zeros(5, dtype=int)
    for poses in _edge_starts(path, crit, stop.tol_c):
        gvf = _unicycle_command([_gvf_steer(path, scn.errmap, scn.gvf)],
                                np.zeros(len(poses), dtype=int), scn.gvf.u_r, scn.dt)
        for command, state in ((gvf, poses), (trace, poses[:, :2])):
            runs = []
            for cmd in (command, command._replace(speed=math.inf)):
                calls.clear()
                runs.append((*_run(cmd, path, state, scn.dt, 1.0, stop, crit),
                             len(calls)))
            (*got, n_got), (*ref, n_ref) = runs
            for a, b in zip(got, ref):
                assert np.array_equal(a, b, equal_nan=True)
            assert n_got < n_ref
            if command is gvf:
                codes += np.bincount(got[0], minlength=5)
    # sim._KINDS order: infeasible, critical, left domain, converged, timeout.
    assert codes[1] > 0 and codes[2] > 0


def test_step_straight():
    assert _step(Pose(0, 0, 0), u_r=1.0, omega=0.0, dt=1.0) == Pose(1.0, 0.0, 0.0)


def test_step_zero_dt_identity():
    p = Pose(3.0, -2.0, 0.7)
    assert _step(p, u_r=5.0, omega=1.3, dt=0.0) == p


def test_step_constant_turn_arc():
    # Exact arc for omega = 1, u_r = 1: x = sin t, y = 1 - cos t.
    p = Pose(0.0, 0.0, 0.0)
    dt = math.pi / 100
    for _ in range(100):
        p = _step(p, u_r=1.0, omega=1.0, dt=dt)
    assert p.x == pytest.approx(0.0, abs=1e-6)
    assert p.y == pytest.approx(2.0, abs=1e-6)
    assert abs(wrap_angle(p.alpha - math.pi)) < 1e-9


@settings(max_examples=50)
@given(u=st.floats(0.1, 100), w=st.floats(-3, 3), t=st.floats(0.01, 2))
def test_step_matches_closed_form_arc(u, w, t):
    # One coarse step against the closed-form constant-turn arc.
    p = _step(Pose(0, 0, 0), u_r=u, omega=w, dt=t)
    if abs(w) < 1e-12:
        x_true, y_true = u * t, 0.0
    else:
        x_true = u / w * math.sin(w * t)
        y_true = 2.0 * u / w * math.sin(0.5 * w * t) ** 2
    scale = max(1.0, u * t)
    # RK4 local error ~ (wt)^5 / 120 per unit arc.
    tol = max(1e-9, 0.02 * abs(w * t) ** 5) * scale
    assert p.x == pytest.approx(x_true, abs=tol)
    assert p.y == pytest.approx(y_true, abs=tol)


def test_rk4_order_on_arc():
    # Halving dt shrinks the terminal error by at least 2^3 (observed ~2^4).
    def run(dt):
        p = Pose(0.0, 0.0, 0.0)
        n = int(round(math.pi / dt))
        for _ in range(n):
            p = _step(p, u_r=1.0, omega=1.0, dt=dt)
        return math.hypot(p.x - 0.0, p.y - 2.0)

    e1, e2 = run(math.pi / 25), run(math.pi / 50)
    assert e1 / e2 >= 8.0


def test_simulate_validates_arguments(ellipse, identity, exp_params):
    with pytest.raises(ValueError):
        simulate(ellipse, identity, exp_params, Pose(0, 0, 0), dt=-0.01, t_max=1.0)
    with pytest.raises(ValueError):
        simulate(ellipse, identity, LosParams(lookahead=70, k_los=2),
                 Pose(0, 0, 0), dt=0.01, t_max=1.0)  # baseline without u_r


def test_simulate_experiment_ic_a_converges(ellipse, identity, exp_params):
    traj = simulate(ellipse, identity, exp_params, Pose(472, 311, 0.0768),
                    dt=0.005, t_max=120.0)
    ev = traj.termination
    assert ev.kind is TerminationKind.CONVERGED
    assert abs(traj.e[-1]) < 1e-2
    assert ellipse.distance((traj.x[-1], traj.y[-1])) < 2.0
    # |e| decays below tolerance and stays there for the dwell window.
    dwell = traj.t >= ev.t_final - 5.0
    assert np.all(np.abs(traj.e[dwell]) < 1e-2)
    # Trajectory samples step uniformly.
    assert np.allclose(np.diff(traj.t), traj.dt)
    assert traj.t[0] == 0.0
    assert (traj.x[0], traj.y[0], traj.alpha[0]) == (472.0, 311.0, 0.0768)
    assert np.isfinite(traj.delta[0])


def test_simulate_on_path_start_is_near_invariant(ellipse, identity, exp_params):
    start = ellipse.point(np.array(0.125))
    m_d = field_arrays(ellipse, identity, exp_params.k_n, start)["m_d"]
    pose0 = Pose(start[0], start[1], compose_heading(m_d, 0.0))
    # Dwell longer than one circulation (~38.6 s) to observe a full lap.
    stop = StopPolicy(t_dwell=45.0)
    traj = simulate(ellipse, identity, exp_params, pose0, dt=0.005, t_max=120.0,
                    stop=stop)
    assert traj.termination.kind is TerminationKind.CONVERGED
    assert np.nanmax(traj.dist) < 1.0


def test_simulate_critical_start(ellipse, identity, exp_params):
    traj = simulate(ellipse, identity, exp_params, Pose(600.0, 350.0, 0.0),
                    dt=0.005, t_max=10.0)
    assert traj.termination.kind is TerminationKind.CRITICAL
    assert traj.termination.t_final == 0.0
    assert len(traj) == 1


def test_simulate_singular_start_is_critical(ellipse, identity, exp_params):
    # With an empty critical set, the vanishing gradient at the ellipse
    # center alone ends the run; the row records omega = 0 and NaN delta.
    command = _unicycle_command([_gvf_steer(ellipse, identity, exp_params)],
                               np.zeros(1, dtype=int), exp_params.u_r, 0.005)
    rec = _RowRecorder(1)
    code, t_final, *_ = _run(command, ellipse, np.array([[600.0, 350.0, 0.0]]),
                             0.005, 10.0, StopPolicy(), np.zeros((0, 2)), rec)
    assert _KINDS[code[0]] is TerminationKind.CRITICAL and t_final[0] == 0.0
    row = rec.columns(0)
    assert len(row["t"]) == 1 and row["omega"][0] == 0.0
    assert np.isnan(row["delta"][0]) and np.isnan(row["omega_d"][0])


def test_simulate_baseline_runs(ellipse, identity):
    pose0 = Pose(200.0, 450.0, 0.0278)
    for controller in (LosParams(lookahead=70.0, k_los=2.0),
                       NglParams(radius=40.0, k_r=2.0)):
        traj = simulate(ellipse, identity, controller, pose0, dt=0.005,
                        t_max=30.0, u_r=50.0)
        assert traj.termination.kind is TerminationKind.CONVERGED
        assert ellipse.distance((traj.x[-1], traj.y[-1])) < 2.0


def test_simulate_baseline_infeasible_event(ellipse, identity):
    traj = simulate(ellipse, identity, NglParams(radius=40.0, k_r=2.0),
                    Pose(600.0, 250.0, 0.0), dt=0.005, t_max=5.0, u_r=50.0)
    assert traj.termination.kind is TerminationKind.INFEASIBLE
    assert traj.termination.t_final == 0.0
    assert "does not intersect" in traj.termination.detail
    assert len(traj) == 1
    assert np.isnan([traj.delta[0], traj.omega_d[0], traj.omega[0]]).all()


def test_baseline_on_path_circulation_stays_close(ellipse, identity):
    # Starting on the path and aligned, the baselines stay near it over a
    # full circulation (~38.6 s at 50 Px/s).  LOS, with its curvature
    # feedforward, holds a small fraction of a pixel.  NGL cuts the corner at
    # the high-curvature ends by about R^2 * kappa / 8 = 2 Px for R = 40, so
    # its bound is the pursuit-geometry one, not the LOS one.
    start = ellipse.point(np.array(0.3))
    g = ellipse.grad(start)
    tangent = np.array([g[1], -g[0]]) / np.hypot(*g)
    alpha = math.atan2(tangent[1], tangent[0])
    pose0 = Pose(start[0], start[1], alpha)
    stop = StopPolicy(t_dwell=math.inf)
    for controller, bound in ((LosParams(lookahead=70.0, k_los=2.0), 0.5),
                              (NglParams(radius=40.0, k_r=2.0), 3.0)):
        traj = simulate(ellipse, identity, controller, pose0, dt=0.005,
                        t_max=40.0, u_r=50.0, stop=stop)
        assert traj.termination.kind is TerminationKind.TIMEOUT
        assert np.max(traj.dist) < bound


def test_simulate_left_domain_event(ellipse, identity, exp_params):
    # One pixel below the top edge of the path's region (the padded
    # workspace), aimed straight out: the robot exits it before the heading
    # transient can turn it around.
    traj = simulate(ellipse, identity, exp_params, Pose(640.0, 1079.0, math.pi / 2),
                    dt=0.005, t_max=30.0)
    assert traj.termination.kind is TerminationKind.LEFT_DOMAIN
    assert traj.y[-1] > 1080.0


def test_batch_kinds_sort_by_value(ellipse, identity, exp_params):
    # One run per event: a far start times out, the center is critical, a
    # start aimed out of the path's region leaves it, and an aligned
    # on-path start converges at once with a one-step dwell.
    poses = np.array([[472.0, 311.0, 0.0768], [600.0, 350.0, 0.0],
                      [640.0, 1079.0, math.pi / 2], [1000.0, 350.0, -math.pi / 2]])
    res = simulate_gvf_batch(ellipse, identity, exp_params, poses, dt=0.005,
                             t_max=1.0, stop=StopPolicy(t_dwell=0.005))
    assert np.unique(res.kind).tolist() == [
        TerminationKind.CONVERGED, TerminationKind.LEFT_DOMAIN,
        TerminationKind.CRITICAL, TerminationKind.TIMEOUT]


@pytest.mark.parametrize("y0", [900.0, 719.0])
def test_line_region_bounds_the_run(identity, exp_params, y0):
    # The line's own region is the run's working region: a start 180 Px
    # outside it ends at once, and a start 1 Px inside it, aimed straight
    # out, leaves it through the top edge.
    line = LinePath(0.0, 1.0, -360.0, region=WORKSPACE)
    traj = simulate(line, identity, exp_params, Pose(640.0, y0, math.pi / 2),
                    dt=0.005, t_max=5.0)
    assert traj.termination.kind is TerminationKind.LEFT_DOMAIN
    assert traj.y[-1] > 720.0
    if y0 > 720.0:
        assert traj.termination.t_final == 0.0


def test_polynomial_ellipse_converges_like_the_ellipse(ellipse, identity,
                                                        exp_params):
    # The bundled ellipse written out as a polynomial has exact distances,
    # so its run passes the dwell test like the ellipse's own.
    poly = PolynomialPath(terms=((2, 0, 1e-5), (1, 0, -0.012), (0, 2, 4e-5),
                                 (0, 1, -0.028), (0, 0, 6.9)))
    pose = Pose(980.0, 350.0, -1.4)
    ref, got = (simulate(p, identity, exp_params, pose, dt=0.005, t_max=20.0)
                for p in (ellipse, poly))
    assert got.termination.kind is TerminationKind.CONVERGED
    assert got.termination.t_final == pytest.approx(ref.termination.t_final,
                                                    abs=0.05)


def test_zero_dwell_stops_at_first_step_inside_tolerances(ellipse, identity,
                                                         exp_params):
    # t_dwell = 0 still needs one step with |e| < tol_e and the distance below
    # tol_d; the start is 148 Px off the path.
    stop = StopPolicy(t_dwell=0.0)
    res = simulate_gvf_batch(ellipse, identity, exp_params, [[472.0, 311.0, 0.0768]],
                             dt=0.005, t_max=20.0, stop=stop)
    assert res.kind[0] is TerminationKind.CONVERGED
    assert res.t_final[0] > 0.0
    assert abs(res.e[0]) < stop.tol_e and res.dist[0] < stop.tol_d
    traj = simulate(ellipse, identity, exp_params, Pose(472.0, 311.0, 0.0768),
                    dt=0.005, t_max=20.0, stop=stop)
    assert traj.termination.t_final == res.t_final[0]
    outside = (np.abs(traj.e[:-1]) >= stop.tol_e) | ~(traj.dist[:-1] < stop.tol_d)
    assert outside.all()


@pytest.mark.parametrize("name", ["cassini", "sloped_line"])
def test_witnessed_dwell_matches_recorded_distances(cassini, identity, exp_params,
                                                    name):
    # Without a recorder the dwell test runs on the witness; with one, every
    # row's distance is searched in full.  The outcomes must agree bit for
    # bit, and each converged run's dist is the full search at its end.
    path = cassini if name == "cassini" else LinePath(1.0, 2.0, -1300.0)
    rng = np.random.default_rng(15)
    poses = np.column_stack([path.region.sample(rng, 16),
                             rng.uniform(-math.pi, math.pi, 16)])
    kw = dict(dt=0.005, t_max=25.0, stop=StopPolicy(t_dwell=1.0))
    got = simulate_gvf_batch(path, identity, exp_params, poses, **kw)
    ref = simulate_gvf_batch(path, identity, exp_params, poses, **kw,
                             record=lambda t, ids, data: None)
    for col in ("kind", "t_final", "x", "y", "alpha", "e", "dist"):
        assert np.array_equal(getattr(got, col), getattr(ref, col),
                              equal_nan=col != "kind"), col
    conv = np.array([k is TerminationKind.CONVERGED for k in got.kind])
    assert conv.sum() >= 8
    end = np.column_stack([got.x, got.y])[conv]
    assert np.array_equal(got.dist[conv], path.distance_many(end))


def _assert_same_runs(batch, singles):
    assert len(batch) == len(singles)
    for b, s in zip(batch, singles):
        assert len(b) == len(s)
        assert b.termination == s.termination
        for col in ("t", "x", "y", "alpha", "e", "delta", "omega_d", "omega", "dist"):
            assert np.array_equal(getattr(b, col), getattr(s, col), equal_nan=True), col


@pytest.mark.parametrize("name", ["ellipse_experiment", "cassini_experiment"])
def test_batch_equals_single_runs(name):
    scn = bundled_scenario(f"{name}.cfg")
    poses = [pose for _, pose in scn.poses]
    kw = dict(dt=scn.dt, t_max=scn.t_max, stop=scn.stop)
    batch = _simulate_runs(scn.path, scn.errmap, [scn.gvf] * len(poses), poses, **kw)
    assert len(poses) == 4
    _assert_same_runs(batch, [simulate(scn.path, scn.errmap, scn.gvf, p, **kw)
                              for p in poses])


@pytest.mark.parametrize("controller", [LosParams(lookahead=70.0, k_los=2.0),
                                        NglParams(radius=40.0, k_r=2.0)])
def test_baseline_batch_keeps_each_runs_detail(ellipse, identity, controller):
    # The center is an ambiguous projection for LOS and too far from the
    # path for the NGL circle; (600, 250) is infeasible for NGL only.
    poses = [Pose(200.0, 450.0, 0.0278), Pose(600.0, 350.0, 0.0),
             Pose(600.0, 250.0, 0.0)]
    kw = dict(dt=0.005, t_max=2.0, u_r=50.0)
    batch = _simulate_runs(ellipse, identity, [controller] * len(poses), poses, **kw)
    _assert_same_runs(batch, [simulate(ellipse, identity, controller, p, **kw)
                              for p in poses])
    details = [traj.termination.detail for traj in batch]
    assert details[0] == "t_max reached"
    assert "(600.0, 350.0)" in details[1]
    if isinstance(controller, NglParams):
        assert "(600.0, 250.0) does not intersect" in details[2]
    else:
        assert details[2] == "t_max reached"


def test_mixed_controller_batch_equals_single_runs(ellipse, identity, exp_params):
    los, ngl = LosParams(lookahead=70.0, k_los=2.0), NglParams(radius=40.0, k_r=2.0)
    start = Pose(200.0, 450.0, 0.0278)
    # LOS is ambiguous at the center and NGL infeasible at (600, 250): those
    # runs end at t = 0, while the GVF runs from the same poses go on.
    runs = [(exp_params, start), (los, start), (ngl, start),
            (los, Pose(600.0, 350.0, 0.0)), (exp_params, Pose(600.0, 250.0, 0.0)),
            (ngl, Pose(600.0, 250.0, 0.0)), (exp_params, Pose(600.0, 350.0, 0.0))]
    controllers, poses = zip(*runs)
    kw = dict(dt=0.005, t_max=2.0, u_r=50.0)
    batch = _simulate_runs(ellipse, identity, controllers, poses, **kw)
    _assert_same_runs(batch, [simulate(ellipse, identity, c, p, **kw) for c, p in runs])
    ends = [(traj.termination.kind, traj.termination.t_final) for traj in batch]
    assert ends[:3] == [(TerminationKind.TIMEOUT, 2.0)] * 3
    assert ends[3] == ends[5] == (TerminationKind.INFEASIBLE, 0.0)
    assert ends[4] == (TerminationKind.TIMEOUT, 2.0)
    assert ends[6] == (TerminationKind.CRITICAL, 0.0)
    details = [traj.termination.detail for traj in batch]
    assert "(600.0, 350.0) is ambiguous" in details[3]
    assert "(600.0, 250.0) does not intersect" in details[5]


def test_baseline_slices_keep_each_runs_detail(ellipse, identity):
    # Sorted by controller, the batch is LOS, LOS, NGL, NGL.  The ambiguous
    # LOS run and the infeasible NGL run are each the second row of their
    # controller's slice, so a message keyed by its row in the slice would
    # land on the wrong run.
    los, ngl = LosParams(lookahead=70.0, k_los=2.0), NglParams(radius=40.0, k_r=2.0)
    start = Pose(200.0, 450.0, 0.0278)
    runs = [(ngl, start), (los, start), (los, Pose(600.0, 350.0, 0.0)),
            (ngl, Pose(600.0, 250.0, 0.0))]
    controllers, poses = zip(*runs)
    kw = dict(dt=0.005, t_max=1.0, u_r=50.0)
    batch = _simulate_runs(ellipse, identity, controllers, poses, **kw)
    _assert_same_runs(batch, [simulate(ellipse, identity, c, p, **kw) for c, p in runs])
    details = [traj.termination.detail for traj in batch]
    assert details[0] == details[1] == "t_max reached"
    assert "(600.0, 350.0) is ambiguous" in details[2]
    assert "(600.0, 250.0) does not intersect" in details[3]


def test_simulate_runs_checks_every_controller(ellipse, identity, exp_params):
    los = LosParams(lookahead=70.0, k_los=2.0)
    start = Pose(200.0, 450.0, 0.0278)
    with pytest.raises(ValueError, match="positive u_r"):
        _simulate_runs(ellipse, identity, [exp_params, los], [start, start],
                       dt=0.005, t_max=1.0)
    with pytest.raises(ValueError, match="do not pass both"):
        _simulate_runs(ellipse, identity, [los, exp_params], [start, start],
                       dt=0.005, t_max=1.0, u_r=40.0)
    slow = GvfParams(k_n=3.0, k_delta=2.0, u_r=30.0)
    with pytest.raises(ValueError, match="share one forward speed"):
        _simulate_runs(ellipse, identity, [exp_params, slow], [start, start],
                       dt=0.005, t_max=1.0)
    with pytest.raises(ValueError, match="2 controllers for 1 poses"):
        _simulate_runs(ellipse, identity, [los, los], [start], dt=0.005,
                       t_max=1.0, u_r=50.0)


def test_simulate_converges_with_bounded_error_map(ellipse, exp_params):
    from gvfpath import ArctanPower

    traj = simulate(ellipse, ArctanPower(1.0), exp_params, Pose(472, 311, 0.0768),
                    dt=0.005, t_max=120.0)
    assert traj.termination.kind is TerminationKind.CONVERGED
    assert ellipse.distance((traj.x[-1], traj.y[-1])) < 2.0


def test_trace_normalized_reaches_path(ellipse, identity):
    labels, _ = trace_batch(ellipse, identity, 3.0, [(650.0, 350.0)],
                            TraceMode.NORMALIZED, dt=0.005, t_max=600.0, u_r=50.0)
    assert labels[0] is TraceLabel.PATH


def test_trace_from_critical_point(ellipse, identity):
    labels, t_final = trace_batch(ellipse, identity, 3.0, [(600.2, 350.0)],
                                  TraceMode.NORMALIZED, dt=0.005, t_max=10.0,
                                  u_r=50.0)
    assert labels[0] is TraceLabel.CRITICAL
    assert t_final[0] == 0.0


def test_trace_cassini_saddle_neighbor_escapes(cassini, identity):
    # (600, 351) sits next to the saddle; its stable manifold has measure
    # zero, so the normalized flow carries the point to the path.
    labels, _ = trace_batch(cassini, identity, 3.0, [(600.0, 351.0)],
                            TraceMode.NORMALIZED, dt=0.005, t_max=600.0, u_r=50.0)
    assert labels[0] is TraceLabel.PATH


def test_lyapunov_on_path_trajectory_is_zero(ellipse, identity, exp_params):
    start = ellipse.point(np.array(0.6))
    m_d = field_arrays(ellipse, identity, exp_params.k_n, start)["m_d"]
    pose0 = Pose(start[0], start[1], compose_heading(m_d, 0.0))
    traj = simulate(ellipse, identity, exp_params, pose0, dt=0.005, t_max=30.0)
    assert np.max(0.5 * traj.e**2) < 1e-8


@pytest.mark.parametrize("mode", [TraceMode.RAW, TraceMode.NORMALIZED])
def test_lyapunov_monotone_along_traces(ellipse, cassini, identity, mode, rng):
    for path in (ellipse, cassini):
        starts = WORKSPACE.sample(rng, 10)
        crit = [list(p) for p in find_critical_points(path).locations]
        starts = starts[np.min(
            np.hypot(starts[:, 0, None] - np.array(crit)[:, 0],
                     starts[:, 1, None] - np.array(crit)[:, 1]), axis=1) > 2.0]
        prev = {}
        worst = [0.0]

        def rec(t, ids, pts, e):
            V = 0.5 * e * e
            for i, idx in enumerate(ids):
                if idx in prev:
                    worst[0] = max(worst[0], V[i] - prev[idx] - 1e-9 * (1 + prev[idx]))
                prev[idx] = V[i]

        trace_batch(path, identity, 3.0, starts, mode, dt=0.005, t_max=20.0,
                    u_r=50.0, record=rec)
        assert worst[0] <= 0.0


def test_closed_loop_lyapunov_net_decrease_ic_d(ellipse, identity, exp_params):
    # From IC (d) the closed loop may transiently raise V, but ends far below
    # its initial value.
    traj = simulate(ellipse, identity, exp_params, Pose(78, 133, 4.0419),
                    dt=0.005, t_max=120.0)
    v = 0.5 * traj.e**2
    assert traj.termination.kind is TerminationKind.CONVERGED
    assert v[-1] < v[0] * 1e-6


def test_delta_decay_sample_runs(ellipse, identity, exp_params, rng):
    poses = []
    while len(poses) < 5:
        x, y = WORKSPACE.sample(rng, 1)[0]
        if math.hypot(x - 600.0, y - 350.0) < 5.0:
            continue
        poses.append((x, y, rng.uniform(-math.pi, math.pi)))
    poses = np.array(poses)
    delta0 = np.full(len(poses), np.nan)
    worst = [-math.inf]

    def rec(t, ids, data):
        reg = data["regular"]
        if t == 0.0:
            delta0[ids] = np.abs(data["delta"])
        bound = delta0[ids] * np.exp(-exp_params.k_delta * t) + 1e-2
        viol = np.abs(data["delta"])[reg] - bound[reg]
        if len(viol):
            worst[0] = max(worst[0], float(viol.max()))

    simulate_gvf_batch(ellipse, identity, exp_params, poses, dt=0.005,
                       t_max=60.0, record=rec)
    assert worst[0] <= 0.0


def test_invariant_set_containment_sample(ellipse, identity, exp_params, rng):
    poses = sample_invariant_set(ellipse, identity, 3.0, 1.6, 20, rng)
    e0 = np.full(len(poses), np.nan)
    d0 = np.full(len(poses), np.nan)
    max_e = np.zeros(len(poses))

    def rec(t, ids, data):
        if t == 0.0:
            e0[ids] = np.abs(data["e"])
            d0[ids] = np.abs(data["delta"])
        np.maximum.at(max_e, ids, np.abs(data["e"]))

    res = simulate_gvf_batch(ellipse, identity, exp_params, poses, dt=0.005,
                             t_max=120.0, record=rec)
    assert all(k is TerminationKind.CONVERGED for k in res.kind)
    bound = np.maximum(e0, np.tan(d0) / exp_params.k_n)
    assert np.all(max_e <= bound + 1e-6)


def test_dichotomy_normalized_traces_full_grid(ellipse, cassini, identity):
    # Every normalized integral curve from a 40x40 lattice ends on the path
    # or in the critical set; the Cassini saddle captures less than 1%.
    for path in (ellipse, cassini):
        crit = np.array([list(p) for p in find_critical_points(path).locations])
        grid = WORKSPACE.grid(40, 40)
        d = np.min(np.hypot(grid[:, 0, None] - crit[:, 0],
                            grid[:, 1, None] - crit[:, 1]), axis=1)
        grid = grid[d > 1.0]
        labels, _ = trace_batch(path, identity, 3.0, grid, TraceMode.NORMALIZED,
                                dt=0.005, t_max=600.0, u_r=50.0,
                                critical_points=crit)
        assert all(l in (TraceLabel.PATH, TraceLabel.CRITICAL) for l in labels)
        assert np.mean([l is TraceLabel.CRITICAL for l in labels]) < 0.01
