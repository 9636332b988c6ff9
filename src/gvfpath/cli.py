"""Scenario runner and exporters: reproduce the experiments as files.

Subcommands (<config> is a scenario file, or the name of a bundled config
such as ellipse_experiment when no file of that name exists):

    simulate <config>   one trajectory CSV per initial pose + summary.csv
    field <config>      guiding-field direction grid for external plotting
    critical <config>   critical-point report as structured text
    basin <config>      termination label per grid start + aggregate fractions
    compare <config>    GVF / LOS / NGL from one pose: d(t) series + metrics
    check               built-in derivative / field-identity self-tests

Exit code 0 on success; nonzero only for configuration or validation errors
(dynamical outcomes such as Timeout are data, recorded in the outputs).

Trajectory CSV columns, in order: t, x, y, alpha, e, delta, omega_d, omega,
dist_path (units: s, Px, rad).  alpha is the integrated heading, not
wrapped, for every controller.  For the baselines, delta is the wrapped
heading error to the guidance bearing and omega_d is the curvature
feedforward (LOS) or 0 (NGL).  The dist_path column is the
nearest-boundary-sample distance (resolution about 0.25 Px for the bundled
paths); use `path.distance` for refined point queries.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from . import field as gvf
from . import sim
from .paths import PathError, check_derivatives
from .scenario import ConfigError, _fmt, bundled_scenario, load_scenario
from .util import PADDED_WORKSPACE, wrap_angle

CSV_COLUMNS = ("t", "x", "y", "alpha", "e", "delta", "omega_d", "omega", "dist_path")
CSV_BLOCK_ROWS = 1024


def _write_csv(out_file, header, *columns):
    """Header, then one row per index of the columns: str of each .tolist() value.

    Rows are converted and written in blocks, so only one block at a time
    exists as Python objects.
    """
    columns = [np.asarray(c) for c in columns]
    n = min(map(len, columns), default=0)
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n, CSV_BLOCK_ROWS):
            block = (c[i:i + CSV_BLOCK_ROWS].tolist() for c in columns)
            fh.write("".join(",".join(map(str, row)) + "\n" for row in zip(*block)))


def write_trajectory_csv(out_file, traj):
    _write_csv(out_file, CSV_COLUMNS, traj.t, traj.x, traj.y, traj.alpha, traj.e,
               traj.delta, traj.omega_d, traj.omega, traj.dist)


def first_touch_index(e, dist, touch_eps=0.5):
    """Index of the first path touch: a sign change of e or dist < touch_eps."""
    e = np.asarray(e)
    dist = np.asarray(dist)
    cands = []
    zero = np.flatnonzero(e == 0.0)
    if len(zero):
        cands.append(int(zero[0]))
    flips = np.flatnonzero(e[:-1] * e[1:] < 0.0)
    if len(flips):
        cands.append(int(flips[0]) + 1)
    near = np.flatnonzero(dist < touch_eps)
    if len(near):
        cands.append(int(near[0]))
    return min(cands) if cands else None


@dataclass
class RunSummary:
    label: str
    kind: sim.TerminationKind
    t_final: float
    final_abs_e: float
    max_abs_e_after_touch: float
    max_dist_overshoot: float


def summarize_run(label, traj, touch_eps=0.5):
    i = first_touch_index(traj.e, traj.dist, touch_eps)
    if i is None:
        after_e = after_d = math.nan
    else:
        after_e = float(np.max(np.abs(traj.e[i:])))
        after_d = float(np.max(traj.dist[i:]))
    return RunSummary(
        label=label,
        kind=traj.termination.kind,
        t_final=traj.termination.t_final,
        final_abs_e=float(abs(traj.e[-1])),
        max_abs_e_after_touch=after_e,
        max_dist_overshoot=after_d,
    )


def run_scenario(scn, out_dir):
    """One trajectory CSV per initial pose plus summary.csv; returns summaries.

    All poses run as one batch; each trajectory equals its single run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajs = sim._simulate_runs(scn.path, scn.errmap,
                               [scn.controller_params()] * len(scn.poses),
                               [pose for _, pose in scn.poses], dt=scn.dt,
                               t_max=scn.t_max, stop=scn.stop, u_r=scn.u_r)
    summaries = []
    for (label, _), traj in zip(scn.poses, trajs):
        write_trajectory_csv(out / f"{scn.name}_{label}.csv", traj)
        summaries.append(summarize_run(label, traj))

    _write_csv(out / "summary.csv",
               ("label", "termination", "t_final", "final_abs_e",
                "max_abs_e_after_touch", "max_dist_overshoot"),
               *zip(*((s.label, s.kind.value, s.t_final, s.final_abs_e,
                       s.max_abs_e_after_touch, s.max_dist_overshoot)
                      for s in summaries)))
    return summaries


def export_field_grid(path, errmap, k_n, region, nx, ny, out_file,
                      degeneracy_eps=gvf.DEGENERACY_EPS):
    """Write rows (x, y, m_d_x, m_d_y, e, regular) on an nx*ny grid.

    A node is flagged degenerate (regular = 0, NaN direction) when the
    gradient is below the degeneracy threshold or the node lies within half a
    cell diagonal of one of the path's critical points.
    """
    if nx < 2 or ny < 2:
        raise ValueError("field grid resolution must be at least 2")
    crit = analysis.find_critical_points(path).points

    pts = region.grid(nx, ny)
    fs = gvf.field_arrays(path, errmap, k_n, pts, eps=degeneracy_eps)
    half_diag = 0.5 * math.hypot(region.width / (nx - 1), region.height / (ny - 1))
    flagged = ~fs["regular"] | (analysis.critical_distance(pts, crit) <= half_diag)
    m_d = np.where(flagged[:, None], np.nan, fs["m_d"])

    _write_csv(out_file, ("x", "y", "m_d_x", "m_d_y", "e", "regular"),
               pts[:, 0], pts[:, 1], m_d[:, 0], m_d[:, 1], fs["e"],
               (~flagged).astype(int))
    return int(np.sum(flagged))


@dataclass
class BasinReport:
    total: int
    fractions: dict
    labels: np.ndarray
    poses: np.ndarray
    t_final: np.ndarray


def basin_sweep(scn, out_file):
    """Closed-loop termination label for every grid start and heading."""
    if scn.basin is None:
        raise ConfigError("scenario has no [basin] section")
    if scn.gvf is None:
        raise ConfigError("basin sweeps use the gvf controller; add [controller.gvf]")
    spec = scn.basin
    grid = spec.region.grid(spec.nx, spec.ny)
    headings = wrap_angle(np.arange(spec.headings) * (2.0 * math.pi / spec.headings))
    poses = np.concatenate(
        [np.column_stack([grid, np.full(len(grid), h)]) for h in headings])

    crit = analysis.find_critical_points(scn.path).points
    poses = poses[analysis.critical_distance(poses[:, :2], crit) > scn.stop.tol_c]

    res = sim.simulate_gvf_batch(scn.path, scn.errmap, scn.gvf, poses,
                                 dt=scn.dt, t_max=spec.t_max, stop=scn.stop,
                                 critical_points=crit)
    labels = np.array([k.value for k in res.kind])
    fractions = {k: float(np.mean(labels == k)) for k in sorted(set(labels))}

    _write_csv(out_file, ("x", "y", "alpha", "label", "t_final"),
               poses[:, 0], poses[:, 1], poses[:, 2], labels, res.t_final)
    return BasinReport(total=len(poses), fractions=fractions, labels=labels,
                       poses=poses, t_final=res.t_final)


@dataclass
class CompareRow:
    controller: str
    kind: sim.TerminationKind
    max_overshoot: float
    settling_time: float
    steady_mean_dist: float


def comparison_metrics(traj, settle_threshold, steady_window, touch_eps):
    d = traj.dist
    t = traj.t
    i = first_touch_index(traj.e, d, touch_eps)
    overshoot = float(np.max(d[i:])) if i is not None else math.nan
    above = np.flatnonzero(d >= settle_threshold)
    if len(above) == 0:
        settling = 0.0
    elif above[-1] + 1 >= len(d):
        settling = math.nan
    else:
        settling = float(t[above[-1] + 1])
    steady = d[t >= t[-1] - steady_window]
    return overshoot, settling, float(np.mean(np.abs(steady)))


def compare_controllers(scn, out_dir):
    """Run the configured controllers from the scenario's one pose, as one
    batch; emit d(t) + metrics."""
    if scn.compare is None:
        raise ConfigError("scenario has no [compare] section")
    if not scn.path.has_parametric:
        raise ConfigError("controller comparison needs a parametric path")
    if len(scn.poses) != 1:
        raise ConfigError("controller comparison runs from one initial pose; "
                          f"[initial_poses] has {len(scn.poses)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, pose = scn.poses[0]
    crit = analysis.find_critical_points(scn.path).points

    names = scn.compare.controllers
    trajs = sim._simulate_runs(scn.path, scn.errmap,
                               [scn.controller_params(name) for name in names],
                               [pose] * len(names), dt=scn.dt, t_max=scn.t_max,
                               stop=scn.stop, u_r=scn.u_r, critical_points=crit)
    rows = []
    for name, traj in zip(names, trajs):
        write_trajectory_csv(out / f"compare_{name}.csv", traj)
        over, settle, steady = comparison_metrics(
            traj, scn.compare.settle_threshold, scn.compare.steady_window,
            scn.compare.touch_eps)
        rows.append(CompareRow(controller=name, kind=traj.termination.kind,
                               max_overshoot=over, settling_time=settle,
                               steady_mean_dist=steady))

    _write_csv(out / "comparison.csv",
               ("controller", "termination", "max_overshoot", "settling_time",
                "steady_mean_dist"),
               *zip(*((r.controller, r.kind.value, r.max_overshoot,
                       r.settling_time, r.steady_mean_dist) for r in rows)))
    return rows


def write_critical_report(scn, out_file):
    found = analysis.find_critical_points(scn.path)
    k_n = scn.gvf.k_n if scn.gvf is not None else 1.0
    points = [analysis.classify_critical_point(scn.path, scn.errmap, k_n, loc)
              for loc in found.locations]
    e_c = analysis.critical_error_threshold(scn.path, scn.errmap, found.points)

    lines = [f"scenario = {scn.name}", f"count = {len(points)}",
             f"unclassifiable = {len(found.unclassifiable)}",
             f"e_c = {_fmt(e_c)}", ""]
    for k, cp in enumerate(points):
        lines += [
            f"[critical_point.{k}]",
            f"x = {_fmt(cp.location[0])}",
            f"y = {_fmt(cp.location[1])}",
            f"e = {_fmt(cp.e_value)}",
            f"hessian_eigs = {_fmt(cp.hessian_eigs[0])} {_fmt(cp.hessian_eigs[1])}",
            f"classification = {cp.classification.value}",
            f"trace_j = {_fmt(cp.trace_j)}",
            f"det_j = {_fmt(cp.det_j)}",
            "",
        ]
    for k, loc in enumerate(found.unclassifiable):
        lines += [f"[unclassifiable.{k}]", f"x = {_fmt(loc[0])}",
                  f"y = {_fmt(loc[1])}", ""]
    text = "\n".join(lines)
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.write(text)
    return points


def run_self_checks(verbose=True):
    """Derivative, field-identity and gradient-bound checks on the built-in paths."""
    from .paths import CassiniPath, EllipsePath, IdentityMap, LinePath

    rng = np.random.default_rng(20260808)
    paths = {
        "ellipse": EllipsePath(x0=600, y0=350, R=400, p=1.0, q=0.5, k_s=1e-5),
        "cassini": CassiniPath(x0=600, y0=350, p=330.0, q=300.0, k_s=1e-10),
        "line": LinePath(0.0, 1.0, 0.0),
    }
    ok = True

    def report(name, passed, detail):
        nonlocal ok
        ok &= passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    for name, path in paths.items():
        worst = max(check_derivatives(path, p)
                    for p in PADDED_WORKSPACE.sample(rng, 200))
        report(f"derivatives[{name}]", worst < 1e-4, f"max rel err {worst:.3g}")

    idm = IdentityMap()
    for name, path in paths.items():
        pts = PADDED_WORKSPACE.sample(rng, 2000)
        fs = gvf.field_arrays(path, idm, 3.0, pts)
        r = fs["regular"]
        n2 = fs["n_norm"][r] ** 2
        vtn = np.sum(fs["v"][r] * fs["n"][r], axis=-1)
        lhs = np.abs(vtn + 3.0 * fs["e"][r] * n2) / np.maximum(n2, 1e-300)
        v2 = fs["v_norm"][r] ** 2
        rhs = np.abs(v2 - (1 + 9 * fs["e"][r] ** 2) * n2) / np.maximum(v2, 1e-300)
        mnorm = np.abs(np.hypot(fs["m_d"][r, 0], fs["m_d"][r, 1]) - 1.0)
        worst = max(lhs.max(), rhs.max(), mnorm.max())
        report(f"field identities[{name}]", worst < 1e-10, f"max rel err {worst:.3g}")
        seen, bound = fs["n_norm"].max(), path.grad_sup()
        report(f"gradient bound[{name}]", seen <= bound * (1.0 + 1e-12),
               f"max |grad phi| {seen:.6g} <= {bound:.6g}")
    return ok


def _load_config(arg):
    """Load a scenario file, or a bundled config named without a directory."""
    if os.path.dirname(arg) or os.path.exists(arg):
        return load_scenario(arg)
    try:
        return bundled_scenario(arg if arg.endswith(".cfg") else f"{arg}.cfg")
    except FileNotFoundError:
        raise ConfigError(f"no scenario file or bundled config named {arg!r}") from None


def _add_config_arg(sp):
    sp.add_argument("config", help="scenario config file or bundled config name")
    sp.add_argument("-o", "--out", default=None, help="output directory")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gvfpath",
        description="Guiding-vector-field path following: scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "field", "critical", "basin", "compare"):
        _add_config_arg(sub.add_parser(name))
    sub.add_parser("check")

    args = parser.parse_args(argv)
    if args.command == "check":
        return 0 if run_self_checks() else 1

    try:
        scn = _load_config(args.config)
        out = Path(args.out) if args.out else Path("out") / scn.name
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "simulate":
            for s in run_scenario(scn, out):
                print(f"{s.label}: {s.kind.value} at t = {s.t_final:g} s, "
                      f"final |e| = {s.final_abs_e:.3g}")
        elif args.command == "field":
            if scn.field_grid is None:
                raise ConfigError("scenario has no [field_grid] section")
            k_n, eps = ((scn.gvf.k_n, scn.gvf.degeneracy_eps) if scn.gvf is not None
                        else (1.0, gvf.DEGENERACY_EPS))
            n_flagged = export_field_grid(
                scn.path, scn.errmap, k_n, scn.field_grid.region,
                scn.field_grid.nx, scn.field_grid.ny, out / "field_grid.csv",
                degeneracy_eps=eps)
            print(f"wrote {scn.field_grid.nx * scn.field_grid.ny} rows "
                  f"({n_flagged} degenerate) to {out / 'field_grid.csv'}")
        elif args.command == "critical":
            points = write_critical_report(scn, out / "critical_points.txt")
            print(f"found {len(points)} critical point(s); "
                  f"report in {out / 'critical_points.txt'}")
        elif args.command == "basin":
            rep = basin_sweep(scn, out / "basin.csv")
            fr = ", ".join(f"{k}: {v:.4f}" for k, v in rep.fractions.items())
            print(f"{rep.total} runs -> {fr}")
        elif args.command == "compare":
            for r in compare_controllers(scn, out):
                print(f"{r.controller}: overshoot {r.max_overshoot:.2f} Px, "
                      f"settling {r.settling_time:.2f} s, "
                      f"steady mean |d| {r.steady_mean_dist:.3f} Px")
    except (ConfigError, PathError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
