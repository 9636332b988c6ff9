"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with pytest -s or in the
failure report).  The physical parameters are the experiment ones throughout:
u_r = 50 Px/s, k_n = 3, k_delta = 2, dt = 0.005 s, identity error map.
"""

import math
import time

import numpy as np
import pytest

from gvfpath import (
    CassiniPath,
    CirclePath,
    Classification,
    EllipsePath,
    GvfParams,
    IdentityMap,
    LinePath,
    Pose,
    TerminationKind,
    TraceMode,
    check_derivatives,
    classify_critical_point,
    find_critical_points,
    simulate,
    wrap_angle,
)
from gvfpath.analysis import critical_error_threshold, sample_invariant_set
from gvfpath.cli import basin_sweep, compare_controllers
from gvfpath.field import field_arrays, steering_arrays
from gvfpath.scenario import bundled_scenario
from gvfpath.sim import simulate_gvf_batch, trace_batch
from gvfpath.util import PADDED_WORKSPACE, WORKSPACE

ELLIPSE = EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5)
CASSINI = CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10)
LINE = LinePath(0.0, 1.0, 0.0)
CIRCLE = CirclePath(x0=600.0, y0=350.0, radius=300.0, k_s=1e-5)
IDENTITY = IdentityMap()
PARAMS = GvfParams(k_n=3.0, k_delta=2.0, u_r=50.0)
CRIT = {
    "ellipse": np.array([[600.0, 350.0]]),
    "cassini": np.array([[300.0, 350.0], [600.0, 350.0], [900.0, 350.0]]),
}


def _report(num, name, ok, detail, elapsed, budget):
    line = (f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded budget: {line}"


def _sample_regular_poses(path, crit, n, rng, exclusion=5.0):
    poses = np.empty((0, 3))
    while len(poses) < n:
        pts = PADDED_WORKSPACE.sample(rng, 4 * n)
        d = np.min(np.hypot(pts[:, 0, None] - crit[:, 0],
                            pts[:, 1, None] - crit[:, 1]), axis=1)
        pts = pts[d > exclusion]
        alpha = rng.uniform(-math.pi, math.pi, size=len(pts))
        poses = np.vstack([poses, np.column_stack([pts, alpha])])
    return poses[:n]


def test_criterion_01_derivative_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for path in (ELLIPSE, CASSINI, LINE, CIRCLE):
        for p in PADDED_WORKSPACE.sample(rng, 1000):
            worst = max(worst, check_derivatives(path, p))
    _report(1, "derivative oracle", worst < 1e-4,
            f"max rel err {worst:.3g} < 1e-4 over 1000 pts x 4 paths",
            time.time() - t0, 5.0)


def test_criterion_02_field_identities():
    t0 = time.time()
    rng = np.random.default_rng(2)
    k_n = PARAMS.k_n
    worst = 0.0
    for path in (ELLIPSE, CASSINI):
        pts = PADDED_WORKSPACE.sample(rng, 10000)
        fs = field_arrays(path, IDENTITY, k_n, pts)
        r = fs["regular"]
        e, n2 = fs["e"][r], fs["n_norm"][r] ** 2
        vtn = np.sum(fs["v"][r] * fs["n"][r], axis=-1)
        v2 = fs["v_norm"][r] ** 2
        worst = max(
            worst,
            float(np.max(np.abs(vtn + k_n * e * n2) / n2)),
            float(np.max(np.abs(v2 - (1 + k_n**2 * e**2) * n2) / v2)),
            float(np.max(np.abs(np.hypot(*fs["m_d"][r].T) - 1.0))),
        )
    _report(2, "field identities", worst < 1e-10,
            f"max rel err {worst:.3g} < 1e-10 at 1e4 pts per path",
            time.time() - t0, 5.0)


def test_criterion_03_rotation_rate_oracle():
    t0 = time.time()
    rng = np.random.default_rng(3)
    h = 1e-6
    worst = 0.0
    for name, path in (("ellipse", ELLIPSE), ("cassini", CASSINI),
                       ("line", LINE), ("circle", CIRCLE)):
        if name == "circle":
            crit = np.array([[600.0, 350.0]])
        else:
            # The line has no critical points; an unreachable sentinel keeps
            # the sampler's exclusion test vectorized.
            crit = CRIT.get(name, np.array([[math.inf, math.inf]]))
        poses = _sample_regular_poses(path, crit, 1000, rng)
        x, y, alpha = poses.T
        st = steering_arrays(path, IDENTITY, PARAMS, x, y, alpha)
        ux, uy = np.cos(alpha), np.sin(alpha)

        def bearing(px, py):
            s = steering_arrays(path, IDENTITY, PARAMS, px, py, alpha)
            return np.arctan2(s["m_d"][:, 1], s["m_d"][:, 0])

        b1 = bearing(x + PARAMS.u_r * ux * h, y + PARAMS.u_r * uy * h)
        b0 = bearing(x - PARAMS.u_r * ux * h, y - PARAMS.u_r * uy * h)
        fd = wrap_angle(b1 - b0) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(st["omega_d"] - fd))))
    _report(3, "rotation-rate oracle", worst < 1e-5,
            f"max |omega_d - fd| {worst:.3g} < 1e-5 at 1e3 poses x 4 paths",
            time.time() - t0, 10.0)


class _MonotoneV:
    def __init__(self, n):
        self.prev = np.full(n, np.inf)
        self.worst = -math.inf

    def __call__(self, t, ids, pts, e):
        v = 0.5 * e * e
        prev = self.prev[ids]
        excess = v - prev - 1e-9 * (1.0 + prev)
        if len(excess):
            self.worst = max(self.worst, float(np.max(excess)))
        self.prev[ids] = v


def test_criterion_04_lyapunov_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(4)
    worst = -math.inf
    for name, path in (("ellipse", ELLIPSE), ("cassini", CASSINI)):
        crit = CRIT[name]
        for mode, t_max in ((TraceMode.RAW, 40.0), (TraceMode.NORMALIZED, 600.0)):
            starts = np.empty((0, 2))
            while len(starts) < 50:
                pts = WORKSPACE.sample(rng, 200)
                d = np.min(np.hypot(pts[:, 0, None] - crit[:, 0],
                                    pts[:, 1, None] - crit[:, 1]), axis=1)
                starts = np.vstack([starts, pts[d > 5.0]])
            starts = starts[:50]
            mono = _MonotoneV(len(starts))
            trace_batch(path, IDENTITY, PARAMS.k_n, starts, mode, dt=0.005,
                        t_max=t_max, u_r=PARAMS.u_r, critical_points=crit,
                        record=mono)
            worst = max(worst, mono.worst)
    _report(4, "Lyapunov monotonicity", worst <= 0.0,
            f"max excess {worst:.3g} <= 0 over 100 raw + 100 normalized curves",
            time.time() - t0, 30.0)


def test_criterion_05_delta_decay():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = -math.inf
    for name, path in (("ellipse", ELLIPSE), ("cassini", CASSINI)):
        poses = _sample_regular_poses(path, CRIT[name], 25, rng)
        delta0 = np.full(len(poses), np.nan)
        tracker = {"worst": -math.inf}

        def rec(t, ids, data):
            reg = data["regular"]
            if t == 0.0:
                delta0[ids] = np.abs(data["delta"])
            bound = delta0[ids] * np.exp(-PARAMS.k_delta * t) + 1e-2
            viol = np.abs(data["delta"])[reg] - bound[reg]
            if len(viol):
                tracker["worst"] = max(tracker["worst"], float(viol.max()))

        simulate_gvf_batch(path, IDENTITY, PARAMS, poses, dt=0.005, t_max=120.0,
                           critical_points=CRIT[name], record=rec)
        worst = max(worst, tracker["worst"])
    _report(5, "delta decay", worst <= 0.0,
            f"max |delta| excess over envelope {worst:.3g} <= 0, 50 starts",
            time.time() - t0, 60.0)


def test_criterion_06_experiment_reproduction():
    t0 = time.time()
    ok = True
    details = []
    for cfg in ("ellipse_experiment.cfg", "cassini_experiment.cfg"):
        scn = bundled_scenario(cfg)
        crit = CRIT[cfg.split("_")[0]]
        for label, pose in scn.poses:
            traj = simulate(scn.path, scn.errmap, scn.gvf, pose, dt=0.005,
                            t_max=120.0, stop=scn.stop, critical_points=crit)
            e_fin = abs(float(traj.e[-1]))
            d_fin = scn.path.distance((traj.x[-1], traj.y[-1]))
            good = (traj.termination.kind is TerminationKind.CONVERGED
                    and e_fin < 1e-2 and d_fin < 2.0
                    and traj.termination.t_final <= 120.0)
            ok &= good
            details.append(f"{cfg[:3]}-{label}:t={traj.termination.t_final:g}")
    _report(6, "experiment reproduction", ok,
            "8 ICs converged, final |e| < 1e-2, dist < 2 Px (" +
            " ".join(details) + ")", time.time() - t0, 60.0)


def test_criterion_07_critical_points():
    t0 = time.time()
    found_e = find_critical_points(ELLIPSE)
    ok = (len(found_e.locations) == 1 and not found_e.unclassifiable
          and np.allclose(found_e.locations[0], [600.0, 350.0], atol=1e-6))
    cls_e = classify_critical_point(ELLIPSE, IDENTITY, PARAMS.k_n,
                                    found_e.locations[0])
    ok &= cls_e.classification is Classification.REPULSIVE

    found_c = find_critical_points(CASSINI)
    expect = [(300.0, 350.0), (600.0, 350.0), (900.0, 350.0)]
    ok &= len(found_c.locations) == 3 and not found_c.unclassifiable
    kinds = []
    for loc, ref in zip(found_c.locations, expect):
        ok &= bool(np.allclose(loc, ref, atol=1e-6))
        kinds.append(classify_critical_point(CASSINI, IDENTITY, PARAMS.k_n,
                                             loc).classification)
    ok &= kinds == [Classification.REPULSIVE,
                    Classification.SADDLE_ZERO_MEASURE,
                    Classification.REPULSIVE]
    _report(7, "critical points", ok,
            "ellipse {center}=repulsive; cassini {locus,saddle,locus}",
            time.time() - t0, 10.0)


def test_criterion_08_invariant_set():
    t0 = time.time()
    rng = np.random.default_rng(8)
    ok = True
    details = []
    for name, path in (("ellipse", ELLIPSE), ("cassini", CASSINI)):
        e_c = critical_error_threshold(path, IDENTITY, CRIT[name])
        poses = sample_invariant_set(path, IDENTITY, PARAMS.k_n, e_c, 100, rng)
        e0 = np.full(len(poses), np.nan)
        d0 = np.full(len(poses), np.nan)
        max_e = np.zeros(len(poses))

        def rec(t, ids, data):
            if t == 0.0:
                e0[ids] = np.abs(data["e"])
                d0[ids] = np.abs(data["delta"])
            np.maximum.at(max_e, ids, np.abs(data["e"]))

        res = simulate_gvf_batch(path, IDENTITY, PARAMS, poses, dt=0.005,
                                 t_max=120.0, critical_points=CRIT[name],
                                 record=rec)
        n_crit = sum(k is TerminationKind.CRITICAL for k in res.kind)
        bound = np.maximum(e0, np.tan(d0) / PARAMS.k_n)
        n_viol = int(np.sum(max_e > bound + 1e-6))
        ok &= n_crit == 0 and n_viol == 0
        details.append(f"{name}: {n_viol} bound violations, {n_crit} critical")
    _report(8, "invariant set", ok, "; ".join(details), time.time() - t0, 120.0)


def test_criterion_09_dichotomy_sweep(tmp_path):
    t0 = time.time()
    ok = True
    details = []
    for cfg in ("ellipse_experiment.cfg", "cassini_experiment.cfg"):
        scn = bundled_scenario(cfg)
        rep = basin_sweep(scn, out_file=tmp_path / f"{scn.name}_basin.csv")
        allowed = {TerminationKind.CONVERGED.value, TerminationKind.CRITICAL.value}
        ok &= set(rep.fractions) <= allowed
        frac_crit = rep.fractions.get(TerminationKind.CRITICAL.value, 0.0)
        if cfg.startswith("cassini"):
            ok &= frac_crit < 0.01
        details.append(f"{cfg.split('_')[0]}: {rep.total} runs, "
                       f"critical {frac_crit:.4f}")
    _report(9, "dichotomy sweep", ok, "; ".join(details), time.time() - t0, 40.0)


def test_criterion_10_controller_comparison(tmp_path):
    t0 = time.time()
    scn = bundled_scenario("comparison_experiment.cfg")
    rows = {r.controller: r for r in compare_controllers(scn, tmp_path)}
    gvf_o, los_o, ngl_o = (rows[k].max_overshoot for k in ("gvf", "los", "ngl"))
    ok = (gvf_o < los_o and gvf_o < ngl_o
          and rows["ngl"].steady_mean_dist > rows["gvf"].steady_mean_dist)
    _report(10, "controller comparison", ok,
            f"overshoot gvf {gvf_o:.2f} < los {los_o:.2f}, ngl {ngl_o:.2f}; "
            f"steady ngl {rows['ngl'].steady_mean_dist:.3f} > "
            f"gvf {rows['gvf'].steady_mean_dist:.3f}",
            time.time() - t0, 15.0)


def test_criterion_11_viability_arithmetic():
    t0 = time.time()
    from gvfpath import viability_check

    pose = Pose(1000.0, 350.0, -math.pi / 2)  # on the path, aligned
    rep = viability_check(ELLIPSE, IDENTITY, pose, 1.6, PARAMS)
    target = 25.0 * math.log(math.pi / math.atan(4.8))
    err = abs(rep.rhs_viability_2 - target)
    ok = err < 1e-6 and abs(target - 20.832044) < 1e-4
    _report(11, "viability arithmetic", ok,
            f"rhs_2 = {rep.rhs_viability_2:.9f} (err {err:.2g} < 1e-6)",
            time.time() - t0, 1.0)
