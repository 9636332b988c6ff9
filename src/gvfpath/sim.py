"""Closed-loop unicycle simulation and integral-curve tracing.

The closed loop integrates

    x' = u_r cos(alpha),  y' = u_r sin(alpha),  alpha' = omega

with fixed-step RK4 and the turn command held constant over each step
(zero-order hold).  Because alpha is then linear in time inside a step, the
position update reduces to a Simpson rule over the stage headings, which is
exactly the classical RK4 for this system.  Integral curves of the raw and
normalized guiding field are integrated with classical RK4 as well.

Every run, whatever drives it, goes through one batched time-step loop,
`_run`.  A per-caller *command* (guiding-field steering, an LOS/NGL
baseline, or the field itself for integral curves) evaluates the active rows
and returns their tracking error, singular and infeasible masks, diagnostics
and RK4 advance.  The loop keeps the termination ledger: each step it
records the rows, then ends every row whose event fires, with the precedence

    infeasible > critical set > left domain > converged > timeout

where the critical event also covers the command's singular rows (a
vanishing gradient).  The critical set is path.critical_set, searched once
per path, and the domain is the path's working region, path.region.  Each
command bounds its rows' speed: a unicycle and a normalized trace move at
most u_r dt per step, a raw trace has no bound.
So the critical-set and domain tests run only on steps when some row could
fail one, and the outcome is the same as testing every step; singular rows
are ended on every step.  Ended rows are dropped before the advance, so a
non-regular row is never stepped.  All of a scenario's initial poses run as
one batch, each run's rows recorded into one shared buffer; `simulate` is
that batch with one pose, and its Trajectory is bit-identical to the same
pose's in any batch, since every step is elementwise per row.  A batch may
mix controllers that share one forward speed: the command steers the active
rows of each controller together, as one slice, and a controller that owns
every active row gets them unsliced.  The GVF / LOS / NGL comparison runs
as one such batch.

Every dynamical outcome is an event, not an exception: runs end with
GuidanceInfeasible, ReachedCriticalSet, LeftDomain, ConvergedToPath or
Timeout.  Convergence requires |e| < tol_e and the distance to the path
below tol_d sustained for a dwell window (with t_dwell = 0, the first step
inside both tolerances).  Distances used inside the loop are those of
`path.distance_many`: the nearest of 4096 boundary samples on parametric
paths (resolution about half a sample spacing; use `path.distance` for
refined point queries), the exact foot point on polynomials.  The dwell test
needs only whether that distance is below tol_d: on a parametric path, unless
the closed loop records distances (a recorded trace does not),
`path.within_boundary` decides it exactly from each row's nearest-sample
hint and runs the full search only where the hint gives no witness.  A run
that ends while witnessed gets its full distance.
Non-finite starts are invalid input and raise ValueError.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import analysis
from . import controllers as ctl
from . import field as gvf
from .paths import PathError
from .util import require_positive, wrap_angle

_TINY = 1e-300


class TerminationKind(str, enum.Enum):
    """How a run ended.  Members are strs equal to their values, so arrays of
    them sort (np.unique) by value."""

    CONVERGED = "converged_to_path"
    CRITICAL = "reached_critical_set"
    TIMEOUT = "timeout"
    LEFT_DOMAIN = "left_domain"
    INFEASIBLE = "guidance_infeasible"


class TraceMode(enum.Enum):
    RAW = "raw"
    NORMALIZED = "normalized"


class TraceLabel(str, enum.Enum):
    """How an integral curve ended; a str enum like TerminationKind."""

    PATH = "path"
    CRITICAL = "critical"
    ESCAPED = "escaped"
    TIMEOUT = "timeout"


# Ledger codes are indices into these tables, in precedence order:
# infeasible, critical, left domain, converged, timeout.  Traces are never
# infeasible.
_KINDS = np.array([TerminationKind.INFEASIBLE, TerminationKind.CRITICAL,
                   TerminationKind.LEFT_DOMAIN, TerminationKind.CONVERGED,
                   TerminationKind.TIMEOUT], dtype=object)
_LABELS = np.array([None, TraceLabel.CRITICAL, TraceLabel.ESCAPED,
                    TraceLabel.PATH, TraceLabel.TIMEOUT], dtype=object)


@dataclass(frozen=True)
class Pose:
    """Unicycle state; alpha is stored wrapped to (-pi, pi]."""

    x: float
    y: float
    alpha: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.alpha)):
            raise ValueError(f"pose ({self.x}, {self.y}, {self.alpha}) is not finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))

    @property
    def xy(self):
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class StopPolicy:
    """Termination thresholds; t_dwell = inf disables the convergence stop."""

    tol_e: float = 1e-2
    tol_d: float = 2.0
    t_dwell: float = 5.0
    tol_c: float = 1.0

    def __post_init__(self):
        require_positive(tol_e=self.tol_e, tol_d=self.tol_d, tol_c=self.tol_c)
        if not self.t_dwell >= 0.0:
            raise ValueError(f"t_dwell must be >= 0, got {self.t_dwell!r}")


@dataclass
class TerminationEvent:
    kind: TerminationKind
    t_final: float
    detail: str = ""


@dataclass
class Trajectory:
    """Column-array time series of one run plus the termination event."""

    dt: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    e: np.ndarray
    delta: np.ndarray
    omega_d: np.ndarray
    omega: np.ndarray
    dist: np.ndarray
    termination: TerminationEvent

    def __len__(self):
        return len(self.t)


def _rk4_step(x, y, alpha, u_r, omega, dt):
    """One RK4 step with omega held constant (Simpson over stage headings)."""
    a_mid = alpha + 0.5 * dt * omega
    a_end = alpha + dt * omega
    x1 = x + dt * u_r / 6.0 * (np.cos(alpha) + 4.0 * np.cos(a_mid) + np.cos(a_end))
    y1 = y + dt * u_r / 6.0 * (np.sin(alpha) + 4.0 * np.sin(a_mid) + np.sin(a_end))
    return x1, y1, a_end


class _Command(NamedTuple):
    """What drives _run.

    step(state, ids) returns (e, singular, infeasible, diag, advance) for
    the active rows, ids being their run indices, and advance(keep) gives
    the next state of the rows kept.  speed bounds how fast any row moves in
    the plane (inf: no bound).  records_dist says whether a recorder reads
    every row's dist.
    """

    step: Callable
    speed: float
    records_dist: bool


def _run(command, path, state, dt, t_max, stop, crit, record=None):
    """The batched time-step loop and its termination ledger.

    state is (B, k) with the position in its first two columns, crit is the
    critical set (m, 2) and command a _Command.  record(t, ids, data), if
    given, sees diag, e and dist, and if the command records distances every
    row's dist is searched in full.  Otherwise only rows with |e| < tol_e
    need dist, and on a parametric path the witness decides their dwell test.

    No row moves more than reach = speed * dt per step, so the critical-set
    and domain tests run only on steps when some row could fail one: each
    run of them is followed by as many steps without them (at least none)
    as reach fits, less one, into the smallest room over the rows, the room
    being a row's distance to tol_c of a critical point or to an edge of
    path.region.  Singular rows are ended on every step.

    Returns the ledger code (an index into _KINDS), t_final, state, e and
    dist of every run at its termination, dist from the full search
    wherever |e| was below tol_e at the end.
    """
    require_positive(dt=dt, t_max=t_max)
    bad = np.flatnonzero(~np.isfinite(state).all(axis=1))
    if len(bad):
        raise ValueError(f"non-finite start(s) at row(s) {bad.tolist()}")
    n_runs = len(state)
    code = np.zeros(n_runs, dtype=int)
    t_fin = np.zeros(n_runs)
    fin = np.zeros_like(state)
    fin_e = np.zeros(n_runs)
    fin_d = np.zeros(n_runs)
    if n_runs == 0:
        return code, t_fin, fin, fin_e, fin_d

    ids = np.arange(n_runs)
    dwell = np.zeros(n_runs)
    full = record is not None and command.records_dist
    # One nearest-sample hint per row for the witness, compacted with ids.
    witness = not full and path.has_parametric
    hint = np.zeros(n_runs, dtype=int)
    region = path.region
    # The slack covers rounding in a step's length and in the room.
    reach = command.speed * dt * (1.0 + 1e-6)
    due = 0
    # dwell is 0 or a sum of dt: at least one step inside both tolerances is
    # needed to converge, also with t_dwell = 0.
    t_conv = max(stop.t_dwell, dt)
    n_steps = int(math.ceil(t_max / dt - 1e-9))
    for step in range(n_steps + 1):
        t = step * dt
        e, singular, infeasible, diag, advance = command.step(state, ids)

        near = np.abs(e) < stop.tol_e
        dist = np.full(len(state), np.nan)
        if witness:
            inside = np.zeros(len(state), dtype=bool)
            if near.any():
                inside[near], dist[near], hint[near] = path.within_boundary(
                    state[near, :2], hint[near], stop.tol_d)
        else:
            cand = near | full
            if cand.any():
                dist[cand] = path.distance_many(state[cand, :2])
            inside = dist < stop.tol_d
        if record is not None:
            record(t, ids, {**diag, "e": e, "dist": dist})

        if step < due:
            critical, left = singular, np.zeros(len(state), dtype=bool)
        else:
            x, y = state[:, 0], state[:, 1]
            cd = analysis.critical_distance(state[:, :2], crit)
            critical = singular | (cd < stop.tol_c)
            left = ~region.contains(state)
            room = min(float(cd.min()) - stop.tol_c,
                       float(x.min()) - region.xmin, region.xmax - float(x.max()),
                       float(y.min()) - region.ymin, region.ymax - float(y.max()))
            ahead = room * (1.0 - 1e-9) / reach
            due = step + (int(min(ahead, n_steps)) if ahead >= 1.0 else 1)
        dwell = np.where(near & inside, dwell + dt, 0.0)
        converged = dwell >= t_conv
        last = step == n_steps
        done = infeasible | critical | left | converged | last
        keep = slice(None)
        if done.any():
            ii = ids[done]
            if witness:
                # Witnessed rows that end get their distance for fin_d.
                wit = done & near & np.isnan(dist)
                if wit.any():
                    dist[wit] = path.nearest_boundary(state[wit, :2])[0]
            # The first event that fired, in precedence order.
            code[ii] = np.argmax(np.stack([infeasible, critical, left, converged,
                                           np.full(len(done), last)])[:, done], axis=0)
            t_fin[ii] = t
            fin[ii], fin_e[ii], fin_d[ii] = state[done], e[done], dist[done]
            keep = ~done
            if not keep.any():
                break
            ids, dwell, hint = ids[keep], dwell[keep], hint[keep]
        state = advance(keep)
    return code, t_fin, fin, fin_e, fin_d


_DIAG_KEYS = ("delta", "omega_d", "omega")


def _unicycle_command(steers, group, u_r, dt):
    """_Command for (x, y, alpha) rows, run i turned by steers[group[i]] at
    forward speed u_r, which bounds each step's displacement by u_r dt: the
    Simpson rule weighs three unit headings by (1 + 4 + 1) / 6.

    Each steer(ids, x, y, alpha) returns (e, singular, infeasible, diag) for
    the runs ids, with the turn rate in diag["omega"], which the RK4 advance
    holds over the step.  group must be sorted, so that each steer's active
    rows are one slice; a steer that owns them all gets them unsliced and
    hands on its whole diag, else diag holds only delta, omega_d and omega.
    """

    def step(state, ids):
        x, y, alpha = state.T
        g = group[ids]
        if g[0] == g[-1]:
            e, singular, infeasible, diag = steers[g[0]](ids, x, y, alpha)
        else:
            cuts = np.searchsorted(g, np.arange(len(steers) + 1)).tolist()
            parts = [steer(ids[a:b], x[a:b], y[a:b], alpha[a:b])
                     for steer, a, b in zip(steers, cuts, cuts[1:]) if a < b]
            *cols, diags = zip(*parts)
            e, singular, infeasible = map(np.concatenate, cols)
            diag = {key: np.concatenate([d[key] for d in diags]) for key in _DIAG_KEYS}
        omega = diag["omega"]

        def advance(keep):
            return np.array(_rk4_step(x[keep], y[keep], alpha[keep],
                                      u_r, omega[keep], dt)).T

        return (e, singular, infeasible,
                {"x": x, "y": y, "alpha": alpha, **diag}, advance)

    return _Command(step, u_r, True)


def _steer(path, errmap, controller, u_r, detail):
    """The steer of one controller and the forward speed of its runs.  A
    baseline steer writes each infeasible row's message into detail under
    the row's run id."""
    if isinstance(controller, gvf.GvfParams):
        if u_r is not None and u_r != controller.u_r:
            raise ValueError("u_r is carried by GvfParams; do not pass both")
        return _gvf_steer(path, errmap, controller), controller.u_r
    if isinstance(controller, ctl.LosParams):
        sample = partial(ctl.los_sample, path, controller, u_r=u_r)
    elif isinstance(controller, ctl.NglParams):
        sample = partial(ctl.ngl_sample, path, controller)
    else:
        raise TypeError(f"unsupported controller {controller!r}")
    if u_r is None or u_r <= 0.0:
        raise ValueError("baseline controllers need a positive u_r")
    if not path.has_parametric:
        raise PathError("baseline controllers require a parametric path")
    return _baseline_steer(path, errmap, sample, detail), u_r


def _gvf_steer(path, errmap, params):
    """Guiding-field steering; rows where the gradient vanishes are singular."""

    def steer(ids, x, y, alpha):
        st = gvf.steering_arrays(path, errmap, params, x, y, alpha)
        return st["e"], ~st["regular"], np.zeros(len(x), dtype=bool), st

    return steer


def _baseline_steer(path, errmap, sample, detail):
    """LOS or NGL steering, one guidance query sample(pose) per row.

    Rows without guidance are infeasible and carry NaN delta/omega_d/omega;
    each such row's error message goes into detail under its run id.
    """

    def steer(ids, x, y, alpha):
        terms, infeasible = [], np.zeros(len(x), dtype=bool)
        for i, xya in enumerate(zip(x.tolist(), y.tolist(), alpha.tolist())):
            try:
                s = sample(Pose(*xya))
            except (ctl.GuidanceInfeasibleError, ctl.AmbiguousProjectionError) as exc:
                detail[int(ids[i])] = str(exc)
                infeasible[i] = True
                terms.append((math.nan,) * 3)
            else:
                terms.append((s.heading_error, s.feedforward, s.omega))
        e = errmap.psi(path.jet_xy(x, y, 0)[0])
        diag = dict(zip(_DIAG_KEYS, np.array(terms).T))
        return e, np.zeros_like(infeasible), infeasible, diag

    return steer


@dataclass
class BatchResult:
    """Per-run outcome of a batched closed-loop sweep."""

    kind: np.ndarray      # TerminationKind per run (object array)
    t_final: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    e: np.ndarray
    dist: np.ndarray      # nearest-boundary-sample distance at termination


def _rows(starts, k):
    """starts as a (B, k) float array, from B rows (B, k) or one row (k,)."""
    starts = np.asarray(starts, dtype=float)
    if starts.shape == (k,):
        return starts[None]
    if starts.ndim != 2 or starts.shape[1] != k:
        raise ValueError(f"starts of shape {starts.shape} are not (B, {k}) or ({k},)")
    return starts


def simulate_gvf_batch(path, errmap, params, poses0, dt, t_max,
                       stop=StopPolicy(), record=None):
    """Integrate the guiding-field closed loop for a batch of initial poses.

    poses0: array (B, 3) of (x, y, alpha), or one pose (3,).  `record`, if
    given, is called once per step as record(t, ids, data) where ids are
    original run indices of the still-active runs and data holds the per-run
    arrays x, y, alpha, dist and those of field.steering_arrays (e, delta,
    omega_d, omega, regular, ...).
    """
    if not isinstance(params, gvf.GvfParams):
        raise TypeError(f"unsupported controller {params!r}")
    poses0 = _rows(poses0, 3)
    command = _unicycle_command([_gvf_steer(path, errmap, params)],
                                np.zeros(len(poses0), dtype=int), params.u_r, dt)
    code, t_final, fin, e, dist = _run(command, path, poses0, dt, t_max, stop,
                                       path.critical_set.points, record)
    return BatchResult(kind=_KINDS[code], t_final=t_final, x=fin[:, 0],
                       y=fin[:, 1], alpha=fin[:, 2], e=e, dist=dist)


_ROW_KEYS = ("x", "y", "alpha", "e", "delta", "omega_d", "omega", "dist")
# Steps the row recorder holds before its buffer first doubles.
_ROWS_INITIAL = 1024


class _RowRecorder:
    """Every run's rows in one (steps, columns, runs) buffer.

    Runs only ever drop out of a batch, so each run's rows are its first
    n[i] steps: step k of every active run goes to buf[k].  The buffer
    doubles when full.
    """

    def __init__(self, n_runs):
        self.t = np.empty(_ROWS_INITIAL)
        self.buf = np.empty((_ROWS_INITIAL, len(_ROW_KEYS), n_runs))
        self.n = np.zeros(n_runs, dtype=int)
        self.steps = 0

    def __call__(self, t, ids, data):
        k = self.steps
        if k == len(self.t):
            self.t = np.concatenate([self.t, np.empty_like(self.t)])
            self.buf = np.concatenate([self.buf, np.empty_like(self.buf)])
        self.t[k] = t
        self.buf[k][:, ids] = [data[c] for c in _ROW_KEYS]
        self.n[ids] = k + 1
        self.steps = k + 1

    def columns(self, i):
        n = self.n[i]
        return {"t": self.t[:n].copy(),
                **{c: self.buf[:n, j, i].copy() for j, c in enumerate(_ROW_KEYS)}}


def _simulate_runs(path, errmap, controllers, poses, dt, t_max, stop=StopPolicy(),
                   u_r=None):
    """Integrate the closed loop from each Pose in one batch; one Trajectory
    per pose, each equal to that pose's run on its own.

    controllers holds one controller per pose: GvfParams (u_r taken from
    it) or LosParams / NglParams (pass the forward speed via u_r).  The
    batch may mix them; the runs of one controller are steered together.
    """
    if len(controllers) != len(poses):
        raise ValueError(f"{len(controllers)} controllers for {len(poses)} poses")
    index = {c: i for i, c in enumerate(dict.fromkeys(controllers))}
    detail = {}
    made = [_steer(path, errmap, c, u_r, detail) for c in index]
    speeds = {speed for _, speed in made}
    if len(speeds) > 1:
        raise ValueError(f"the runs of one batch share one forward speed, "
                         f"not {sorted(speeds)}")
    speed = next(iter(speeds), None)  # None only for an empty batch
    # The batch runs sorted by controller, so that the active rows of each
    # controller are one slice; run j of the batch is pose order[j].
    group = np.array([index[c] for c in controllers], dtype=int)
    order = np.argsort(group, kind="stable")
    state = np.array([[p.x, p.y, p.alpha] for p in poses]).reshape(-1, 3)[order]
    rec = _RowRecorder(len(state))
    command = _unicycle_command([steer for steer, _ in made], group[order], speed, dt)
    code, t_final, *_ = _run(command, path, state, dt, t_max, stop,
                             path.critical_set.points, rec)
    details = {
        TerminationKind.CONVERGED: "|e| and path distance within tolerance "
                                   f"for {stop.t_dwell} s",
        TerminationKind.CRITICAL: "entered the critical-set neighborhood",
        TerminationKind.TIMEOUT: "t_max reached",
        TerminationKind.LEFT_DOMAIN: "left the working region",
    }
    trajs = [None] * len(order)
    for j, kind in enumerate(_KINDS[code]):
        # Infeasible runs carry their own guidance error message.
        event = TerminationEvent(kind, float(t_final[j]),
                                 detail.get(j) or details[kind])
        trajs[order[j]] = Trajectory(dt=dt, termination=event, **rec.columns(j))
    return trajs


def simulate(path, errmap, controller, pose0, dt, t_max, stop=StopPolicy(), u_r=None):
    """Integrate one closed-loop run and return its Trajectory.

    controller is GvfParams (u_r taken from it) or LosParams / NglParams
    (pass the forward speed via u_r).  Dynamical outcomes terminate the run
    with an event; only invalid configuration raises.  The recorded alpha is
    the integrated heading, not wrapped.
    """
    return _simulate_runs(path, errmap, [controller], [pose0], dt, t_max, stop, u_r)[0]


# ---------------------------------------------------------------------------
# Integral curves of the raw and normalized fields


def _trace_command(path, errmap, k_n, mode, u_r, dt):
    """_Command for classical RK4 on the raw field v, which has no speed
    bound, or on the normalized field u_r m_d, whose every stage moves at
    most at speed u_r.  Its recorder reads no distances."""
    require_positive(k_n=k_n, u_r=u_r)
    if mode is TraceMode.RAW:
        speed = math.inf

        def velocity(vx, vy):
            return vx, vy
    elif mode is TraceMode.NORMALIZED:
        speed = u_r

        def velocity(vx, vy):
            # u_r v / |v| rather than u_r * m_d: m_d is NaN where the gradient
            # falls below eps, and a later RK4 stage may land there.
            nv = np.maximum(np.hypot(vx, vy), _TINY)
            return u_r * vx / nv, u_r * vy / nv
    else:
        raise ValueError(f"mode must be a TraceMode, got {mode!r}")
    h = 0.5 * dt

    def stage(x, y):
        return velocity(*gvf._field_xy(path, errmap, k_n, x, y)[2:])

    def step(pts, ids):
        x, y = pts.T
        # The first stage also gives e and the regular mask.
        (ph, gx, gy), e, vx, vy = gvf._field_xy(path, errmap, k_n, x, y)
        regular = gvf._grad_norm(ph, gx, gy) > gvf.DEGENERACY_EPS
        k1x, k1y = velocity(vx, vy)

        def advance(keep):
            px, py, q1x, q1y = x[keep], y[keep], k1x[keep], k1y[keep]
            q2x, q2y = stage(px + h * q1x, py + h * q1y)
            q3x, q3y = stage(px + h * q2x, py + h * q2y)
            q4x, q4y = stage(px + dt * q3x, py + dt * q3y)
            return np.array(
                (px + (dt / 6.0) * (q1x + 2.0 * q2x + 2.0 * q3x + q4x),
                 py + (dt / 6.0) * (q1y + 2.0 * q2y + 2.0 * q3y + q4y))).T

        return e, ~regular, np.zeros(len(pts), dtype=bool), {"pts": pts}, advance

    return _Command(step, speed, False)


def trace_batch(path, errmap, k_n, starts, mode, dt, t_max, u_r=1.0,
                stop=StopPolicy(), critical_points=None, record=None):
    """Trace integral curves of the raw field (xi' = v) or the normalized
    field (r' = u_r m_d) from a batch of starts; returns (labels, t_final)
    per run.

    starts: array (B, 2), or one start (2,).  critical_points (m, 2), kept
    for the perfbench trace workload, replaces path.critical_set if given.
    `record`, if given, is called once per step as record(t, ids, pts, e).
    """
    starts = _rows(starts, 2)
    command = _trace_command(path, errmap, k_n, mode, u_r, dt)
    crit = path.critical_set.points if critical_points is None else critical_points
    rec = None if record is None else (
        lambda t, ids, data: record(t, ids, data["pts"], data["e"]))
    code, t_final, *_ = _run(command, path, starts, dt, t_max, stop, crit, rec)
    return _LABELS[code], t_final
