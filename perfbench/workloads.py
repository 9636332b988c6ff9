"""The four benchmark workloads: seeded inputs, one timed round, output checks.

Each workload class does its set-up in `__init__` (scenario loading, seeded
inputs, path caches, critical points) and runs the timed calls in
`run_round`.  Outside the timed region, `tally` counts what a round did from
its outputs, and `check` compares the last round's outputs with the independent
oracles in `oracle.py` and with the properties the paper guarantees.
`check` returns the names of the operations whose checks failed.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

import gvfpath.cli as cli
from gvfpath import analysis, scenario, sim
from gvfpath.util import PADDED_WORKSPACE, WORKSPACE, Region

import oracle

EXPERIMENTS = ("ellipse_experiment", "cassini_experiment")
# Seeded jitter of the paper's initial poses (Px, rad): large enough to make
# every seed a different input, small enough to keep each run's length.
POSE_JITTER_PX = 2.0
POSE_JITTER_RAD = 0.02
# The comparison start lies 38.4 Px from the path, inside the NGL circle of
# radius 40; a smaller jitter keeps the NGL guidance feasible from t = 0.
COMPARE_JITTER_PX = 0.5


class RoundResult:
    """What one round produced: its operations, runs, integrator steps."""

    def __init__(self, ops, runs, steps, memo=b""):
        self.ops = ops
        self.runs = runs
        self.steps = steps
        self.memo = memo  # in-memory outputs, folded into the round digest
        self.bytes = 0    # size of the files the round wrote


def _jitter(rng, pose, px=POSE_JITTER_PX):
    return sim.Pose(pose.x + rng.uniform(-px, px), pose.y + rng.uniform(-px, px),
                    pose.alpha + rng.uniform(-POSE_JITTER_RAD, POSE_JITTER_RAD))


def _warm(path):
    """Fill the path's boundary-sample cache, as a first query would."""
    path.distance_many(np.zeros((1, 2)))


def _shifted(box, nx, ny, rng):
    """The region moved by a seeded fraction (+-1/2) of one lattice cell."""
    dx = box.width / (nx - 1) * rng.uniform(-0.5, 0.5)
    dy = box.height / (ny - 1) * rng.uniform(-0.5, 0.5)
    return Region(box.xmin + dx, box.xmax + dx, box.ymin + dy, box.ymax + dy)


def _steps(t_final, dt):
    """Loop iterations of runs ending at t_final: one per row, t = 0 included."""
    return int(np.sum(np.rint(np.asarray(t_final) / dt).astype(np.int64) + 1))


def _read_rows(csv_file):
    with open(csv_file, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_columns(csv_file):
    data = np.loadtxt(csv_file, delimiter=",", skiprows=1, ndmin=2)
    with open(csv_file, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    return {k: data[:, i] for i, k in enumerate(names)}


def _count_data_rows(csv_file):
    with open(csv_file, "rb") as fh:
        return fh.read().count(b"\n") - 1


def _config(root, name):
    return oracle.read_config(Path(root) / "src" / "gvfpath" / "configs"
                              / f"{name}.cfg")


def _match_points(found, expected, tol):
    """True when the two point sets agree one-to-one within tol."""
    found = np.asarray(found, dtype=float).reshape(-1, 2)
    if len(found) != len(expected):
        return False
    used = set()
    for p in expected:
        d = np.hypot(found[:, 0] - p[0], found[:, 1] - p[1])
        k = int(np.argmin(d))
        if d[k] > tol or k in used:
            return False
        used.add(k)
    return True


class Experiment:
    """simulate + field + critical on both bundled experiment scenarios."""

    def __init__(self, root, seed):
        self.root = root
        rng = np.random.default_rng(seed)
        self.scns = []
        for name in EXPERIMENTS:
            scn = scenario.bundled_scenario(f"{name}.cfg")
            poses = tuple((label, _jitter(rng, p)) for label, p in scn.poses)
            scn = dataclasses.replace(scn, poses=poses)
            _warm(scn.path)
            self.scns.append(scn)

    def run_round(self, out):
        for scn in self.scns:
            d = out / scn.name
            cli.run_scenario(scn, d)
            fg = scn.field_grid
            cli.export_field_grid(scn.path, scn.errmap, scn.gvf.k_n, fg.region,
                                  fg.nx, fg.ny, d / "field_grid.csv")
            cli.write_critical_report(scn, d / "critical_points.txt")

    def tally(self, out):
        ops, runs, steps = [], 0, 0
        for scn in self.scns:
            for label, _ in scn.poses:
                ops.append(f"{scn.name}/{label}")
                runs += 1
                steps += _count_data_rows(out / scn.name / f"{scn.name}_{label}.csv")
            ops += [f"{scn.name}/field_grid", f"{scn.name}/critical_points"]
        return RoundResult(ops, runs, steps)

    def check(self, out):
        failed = []
        for scn in self.scns:
            cp = _config(self.root, scn.name)
            curve = oracle.Curve(cp)
            d = out / scn.name
            tol_e, tol_d = cp.getfloat("stop", "tol_e"), cp.getfloat("stop", "tol_d")
            k_delta = cp.getfloat("controller.gvf", "k_delta")
            summary = {r["label"]: r for r in _read_rows(d / "summary.csv")}
            for label, _ in scn.poses:
                c = _read_columns(d / f"{scn.name}_{label}.csv")
                end = np.array([[c["x"][-1], c["y"][-1]]])
                delta = c["delta"]
                ok = np.isfinite(delta)
                envelope = abs(delta[0]) * np.exp(-k_delta * c["t"]) + 1e-2
                good = (summary[label]["termination"] == "converged_to_path"
                        and abs(c["e"][-1]) < tol_e
                        and curve.distance(end)[0] < tol_d
                        and bool(np.all(np.abs(delta[ok]) <= envelope[ok])))
                if not good:
                    failed.append(f"{scn.name}/{label}")
            if not self._field_ok(cp, curve, d / "field_grid.csv"):
                failed.append(f"{scn.name}/field_grid")
            if not self._critical_ok(curve, d / "critical_points.txt"):
                failed.append(f"{scn.name}/critical_points")
        return failed

    @staticmethod
    def _field_ok(cp, curve, csv_file):
        nx, ny = cp.getint("field_grid", "nx"), cp.getint("field_grid", "ny")
        box = oracle.region(cp, "field_grid")
        k_n = cp.getfloat("controller.gvf", "k_n")
        eps = cp.getfloat("controller.gvf", "degeneracy_eps")
        c = _read_columns(csv_file)
        pts = oracle.grid(box, nx, ny)
        if len(c["x"]) != len(pts):
            return False
        if not np.allclose(np.column_stack([c["x"], c["y"]]), pts,
                           rtol=0.0, atol=1e-9):
            return False
        m_d, e, n_norm = curve.field_direction(k_n, pts)
        crit = curve.critical_points()
        half_diag = 0.5 * math.hypot((box[1] - box[0]) / (nx - 1),
                                     (box[3] - box[2]) / (ny - 1))
        d_crit = np.min(np.hypot(pts[:, 0, None] - crit[:, 0],
                                 pts[:, 1, None] - crit[:, 1]), axis=1)
        flagged = (n_norm <= eps) | (d_crit <= half_diag)
        reg = c["regular"] == 1.0
        md_prog = np.column_stack([c["m_d_x"], c["m_d_y"]])
        return bool(
            np.array_equal(reg, ~flagged)
            and np.all(np.isnan(md_prog[~reg]))
            and np.allclose(md_prog[reg], m_d[reg], rtol=0.0, atol=1e-9)
            and np.allclose(c["e"], e, rtol=0.0, atol=1e-12 * np.max(np.abs(e))))

    @staticmethod
    def _critical_ok(curve, report_file):
        rep = configparser.ConfigParser()
        rep.read_string("[report]\n" + report_file.read_text(encoding="utf-8"))
        pts = [(rep.getfloat(s, "x"), rep.getfloat(s, "y"))
               for s in rep.sections() if s.startswith("critical_point.")]
        return (rep.getint("report", "count") == len(pts)
                and rep.getint("report", "unclassifiable") == 0
                and _match_points(pts, curve.critical_points(), 1e-6))


class Basin:
    """cli.basin_sweep on both bundled paths over a seeded start lattice."""

    NX, NY, HEADINGS = 10, 6, 4

    def __init__(self, root, seed):
        self.root = root
        rng = np.random.default_rng(seed)
        self.scns = []
        for name in EXPERIMENTS:
            scn = scenario.bundled_scenario(f"{name}.cfg")
            spec = scenario.BasinSpec(
                nx=self.NX, ny=self.NY, headings=self.HEADINGS,
                t_max=scn.basin.t_max,
                region=_shifted(scn.basin.region, self.NX, self.NY, rng))
            scn = dataclasses.replace(scn, basin=spec)
            _warm(scn.path)
            self.scns.append(scn)
        self.reports = {}

    def run_round(self, out):
        for scn in self.scns:
            self.reports[scn.name] = cli.basin_sweep(scn, out / f"{scn.name}_basin.csv")

    def tally(self, out):
        ops, runs, steps = [], 0, 0
        for scn in self.scns:
            rep = self.reports[scn.name]
            ops += [f"{scn.name}/{i}" for i in range(rep.total)]
            ops.append(f"{scn.name}/basin.csv")
            runs += rep.total
            steps += _steps(rep.t_final, scn.dt)
        return RoundResult(ops, runs, steps)

    def check(self, out):
        failed = []
        for scn in self.scns:
            cp = _config(self.root, scn.name)
            curve = oracle.Curve(cp)
            tol_c = cp.getfloat("stop", "tol_c")
            t_dwell = cp.getfloat("stop", "t_dwell")
            rows = _read_rows(out / f"{scn.name}_basin.csv")
            labels = [r["label"] for r in rows]
            t_final = np.array([float(r["t_final"]) for r in rows])
            starts = np.array([[float(r["x"]), float(r["y"]), float(r["alpha"])]
                               for r in rows]).reshape(-1, 3)
            for i, (lab, t) in enumerate(zip(labels, t_final)):
                if lab == "converged_to_path":
                    good = t >= t_dwell
                else:
                    good = lab == "reached_critical_set"
                if not good:
                    failed.append(f"{scn.name}/{i}")
            share = labels.count("reached_critical_set") / max(len(labels), 1)
            expected = self._start_set(scn.basin.region, curve, tol_c)
            file_ok = _same_starts(starts, expected)
            if curve.kind == "cassini":
                file_ok &= share < 0.01
            if not file_ok:
                failed.append(f"{scn.name}/basin.csv")
        return failed

    def _start_set(self, region, curve, tol_c):
        box = (region.xmin, region.xmax, region.ymin, region.ymax)
        pts = oracle.grid(box, self.NX, self.NY)
        heads = [k * 2.0 * math.pi / self.HEADINGS for k in range(self.HEADINGS)]
        heads = [h - 2.0 * math.pi if h > math.pi else h for h in heads]
        crit = curve.critical_points()
        d = np.min(np.hypot(pts[:, 0, None] - crit[:, 0],
                            pts[:, 1, None] - crit[:, 1]), axis=1)
        pts = pts[d > tol_c]
        return np.array([(x, y, h) for h in heads for x, y in pts]).reshape(-1, 3)


def _same_starts(a, b):
    if a.shape != b.shape:
        return False
    ka = a[np.lexsort((a[:, 2], a[:, 1], a[:, 0]))]
    kb = b[np.lexsort((b[:, 2], b[:, 1], b[:, 0]))]
    dang = np.abs(np.angle(np.exp(1j * (ka[:, 2] - kb[:, 2]))))
    return bool(np.allclose(ka[:, :2], kb[:, :2], rtol=0.0, atol=1e-9)
                and np.all(dang < 1e-9))


class Compare:
    """cli.compare_controllers: GVF, LOS and NGL from one seeded pose."""

    # The bundled comparison runs 50 s; the benchmark keeps the first T_MAX
    # seconds, and takes the steady state over the last STEADY_WINDOW.
    T_MAX = 8.0
    STEADY_WINDOW = 4.0
    NAME = "comparison_experiment"

    def __init__(self, root, seed):
        self.root = root
        rng = np.random.default_rng(seed)
        scn = scenario.bundled_scenario(f"{self.NAME}.cfg")
        poses = tuple((label, _jitter(rng, p, COMPARE_JITTER_PX))
                      for label, p in scn.poses[:1])
        self.scn = dataclasses.replace(
            scn, poses=poses, t_max=self.T_MAX,
            compare=dataclasses.replace(scn.compare,
                                        steady_window=self.STEADY_WINDOW))
        _warm(self.scn.path)

    def run_round(self, out):
        cli.compare_controllers(self.scn, out)

    def tally(self, out):
        names = self.scn.compare.controllers
        steps = sum(_count_data_rows(out / f"compare_{n}.csv") for n in names)
        ops = [f"compare/{n}" for n in names] + ["compare/comparison.csv"]
        return RoundResult(ops, len(names), steps)

    def check(self, out):
        failed = []
        curve = oracle.Curve(_config(self.root, self.NAME))
        spacing = curve.program_spacing()
        table = {r["controller"]: r for r in _read_rows(out / "comparison.csv")}
        for name in self.scn.compare.controllers:
            c = _read_columns(out / f"compare_{name}.csv")
            ref = curve.distance(np.column_stack([c["x"], c["y"]]))
            good = (table[name]["termination"] != "guidance_infeasible"
                    and bool(np.all(np.abs(c["dist_path"] - ref) <= spacing)))
            if not good:
                failed.append(f"compare/{name}")
        over = {k: float(r["max_overshoot"]) for k, r in table.items()}
        steady = {k: float(r["steady_mean_dist"]) for k, r in table.items()}
        if not (over["gvf"] < over["los"] and over["gvf"] < over["ngl"]
                and steady["ngl"] > steady["gvf"]):
            failed.append("compare/comparison.csv")
        return failed


class Trace:
    """sim.trace_batch: normalized integral curves from a seeded lattice."""

    NX, NY = 10, 6
    SAMPLE = 4  # traces per path re-run with a Lyapunov monitor after timing

    def __init__(self, root, seed):
        self.root = root
        rng = np.random.default_rng(seed)
        box = _shifted(WORKSPACE, self.NX, self.NY, rng)
        self.cases = []
        for name in EXPERIMENTS:
            scn = scenario.bundled_scenario(f"{name}.cfg")
            found = analysis.find_critical_points(scn.path, region=PADDED_WORKSPACE)
            crit = np.array(list(found.locations) + list(found.unclassifiable),
                            dtype=float).reshape(-1, 2)
            pts = box.grid(self.NX, self.NY)
            d = np.min(np.hypot(pts[:, 0, None] - crit[:, 0],
                                pts[:, 1, None] - crit[:, 1]), axis=1)
            _warm(scn.path)
            self.cases.append((scn, crit, pts[d > scn.stop.tol_c]))
        self.results = []

    def _trace(self, scn, crit, starts, record=None):
        return sim.trace_batch(scn.path, scn.errmap, scn.gvf.k_n, starts,
                               sim.TraceMode.NORMALIZED, scn.dt, scn.t_max,
                               u_r=scn.u_r, stop=scn.stop, critical_points=crit,
                               record=record)

    def run_round(self, out):
        self.results = [self._trace(scn, crit, starts)
                        for scn, crit, starts in self.cases]

    def tally(self, out):
        ops, steps, memo = [], 0, []
        for (scn, _, starts), (labels, t_final) in zip(self.cases, self.results):
            ops += [f"{scn.name}/{i}" for i in range(len(starts))]
            steps += _steps(t_final, scn.dt)
            memo.append(",".join(lab.value for lab in labels).encode())
            memo.append(np.asarray(t_final).tobytes())
        return RoundResult(ops, len(ops), steps, memo=b"|".join(memo))

    def check(self, out):
        failed = []
        allowed = {sim.TraceLabel.PATH, sim.TraceLabel.CRITICAL}
        for (scn, crit, starts), (labels, _) in zip(self.cases, self.results):
            for i, lab in enumerate(labels):
                if lab not in allowed:
                    failed.append(f"{scn.name}/{i}")
            pick = np.linspace(0, len(starts) - 1, self.SAMPLE).astype(int)
            mono = _MonotoneV(len(pick))
            self._trace(scn, crit, starts[pick], record=mono)
            for j in np.flatnonzero(mono.excess > 0.0):
                failed.append(f"{scn.name}/{pick[j]}")
        return sorted(set(failed))


class _MonotoneV:
    """Largest per-step increase of V = e^2 / 2 along each trace."""

    def __init__(self, n):
        self.prev = np.full(n, np.inf)
        self.excess = np.full(n, -np.inf)

    def __call__(self, t, ids, pts, e):
        v = 0.5 * e * e
        prev = self.prev[ids]
        self.excess[ids] = np.maximum(self.excess[ids],
                                      v - prev - 1e-9 * (1.0 + np.abs(prev)))
        self.prev[ids] = v


WORKLOADS = {"experiment": Experiment, "basin": Basin, "compare": Compare,
             "trace": Trace}
