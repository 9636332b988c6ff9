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
non-regular row is never stepped.  A batch has one command, so one
controller; `_run` returns one BatchResult for it.  All of a scenario's
initial poses that share a controller run as one batch, each run's rows
recorded into one shared buffer; `simulate` is that batch with one pose,
and its Trajectory is bit-identical to the same pose's in any batch, since
every step is elementwise per row.

Every dynamical outcome is an event, not an exception: runs end with
GuidanceInfeasible, ReachedCriticalSet, LeftDomain, ConvergedToPath or
Timeout.  Convergence requires |e| < tol_e and the distance to the path
below tol_d sustained for a dwell window (with t_dwell = 0, the first step
inside both tolerances).  Distances used inside the loop are those of
`path.distance_many`: the nearest of 4096 boundary samples on parametric
paths (resolution about half a sample spacing; use `path.distance` for
refined point queries), the exact foot point on polynomials.  The dwell test
needs only whether that distance is below tol_d: on a parametric path,
`path.within_boundary` decides it exactly from each row's nearest-sample
hint and runs the full search only where the hint gives no witness.

A sample closer than tol_d stays closer until the row has moved the room
left, so a witness at distance d certifies its row inside for as many steps
as the speed bound fits into tol_d - d.  The witness is asked again only on
steps when some row with |e| < tol_e is past its deadline, and then for all
such rows, so that their deadlines stay in step; a raw trace, with no speed
bound, gets no deadline and asks on every step.  Other paths search the
rows with |e| < tol_e on every step.  A run that ends with |e| < tol_e gets
its full distance.  A recorded closed loop's distance column is searched
once per run, after the batch, in blocks.

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
    the plane (inf: no bound).
    """

    step: Callable
    speed: float


@dataclass(frozen=True)
class BatchResult:
    """Per-run outcome of one _run batch: the ledger code (an index into
    _KINDS), t_final, the final state (B, k), e, and dist, from the full
    search (that of path.distance_many) wherever |e| was below tol_e at the
    end and NaN elsewhere."""

    code: np.ndarray
    t_final: np.ndarray
    state: np.ndarray
    e: np.ndarray
    dist: np.ndarray

    @property
    def kind(self):
        """TerminationKind per run (object array)."""
        return _KINDS[self.code]


def _run(command, path, state, dt, t_max, stop, crit, record=None):
    """The batched time-step loop and its termination ledger.

    state is (B, k) with the position in its first two columns, crit is the
    critical set (m, 2) and command a _Command.  record(t, ids, data), if
    given, sees diag and e.  Only rows with |e| < tol_e need the distance
    test, which on a parametric path the witness decides.

    No row moves more than reach = speed * dt per step, so the critical-set
    and domain tests run only on steps when some row could fail one: each
    run of them is followed by as many steps without them (at least none)
    as reach fits, less one, into the smallest room over the rows, the room
    being a row's distance to tol_c of a critical point or to an edge of
    path.region.  Singular rows are ended on every step.  In the same way a
    witness at distance d < tol_d certifies its row inside through step
    `until`, as many steps on as reach fits into tol_d - d.

    Returns the BatchResult of every run at its termination.
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
    fin_d = np.full(n_runs, np.nan)
    res = BatchResult(code, t_fin, fin, fin_e, fin_d)
    if n_runs == 0:
        return res

    ids = np.arange(n_runs)
    dwell = np.zeros(n_runs)
    witness = path.has_parametric
    # Per row, compacted with ids: the witness's nearest-sample hint and the
    # last step through which the witness certifies the row inside.
    hint = np.zeros(n_runs, dtype=int)
    until = np.full(n_runs, -1.0)
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
        if record is not None:
            record(t, ids, {**diag, "e": e})

        near = np.abs(e) < stop.tol_e
        if witness:
            # Asked on all rows with |e| < tol_e, so their deadlines line up.
            if (until[near] < step).any():
                dw, hint[near] = path.within_boundary(state[near, :2], hint[near],
                                                      stop.tol_d)
                ahead = np.floor((stop.tol_d - dw) * (1.0 - 1e-9) / reach)
                until[near] = np.where(dw < stop.tol_d, step + ahead, -1.0)
            inside = until >= step
        else:
            inside = np.zeros(len(state), dtype=bool)
            if near.any():
                inside[near] = path.distance_many(state[near, :2]) < stop.tol_d

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
            # The first event that fired, in precedence order.
            code[ii] = np.argmax(np.stack([infeasible, critical, left, converged,
                                           np.full(len(done), last)])[:, done], axis=0)
            t_fin[ii] = t
            fin[ii], fin_e[ii] = state[done], e[done]
            end = done & near
            if end.any():
                pts = state[end, :2]
                fin_d[ids[end]] = (path.nearest_boundary(pts)[0] if witness
                                   else path.distance_many(pts))
            keep = ~done
            if not keep.any():
                break
            ids, dwell, hint, until = ids[keep], dwell[keep], hint[keep], until[keep]
        state = advance(keep)
    return res


def _unicycle_command(steer, u_r, dt):
    """_Command for (x, y, alpha) rows turned by steer at forward speed u_r,
    which bounds each step's displacement by u_r dt: the Simpson rule weighs
    three unit headings by (1 + 4 + 1) / 6.

    steer(ids, x, y, alpha) returns (e, singular, infeasible, diag) for the
    active runs ids, with the turn rate in diag["omega"], which the RK4
    advance holds over the step.
    """

    def step(state, ids):
        x, y, alpha = state.T
        e, singular, infeasible, diag = steer(ids, x, y, alpha)
        omega = diag["omega"]

        def advance(keep):
            return np.array(_rk4_step(x[keep], y[keep], alpha[keep],
                                      u_r, omega[keep], dt)).T

        return (e, singular, infeasible,
                {"x": x, "y": y, "alpha": alpha, **diag}, advance)

    return _Command(step, u_r)


def _steer(path, errmap, controller, u_r):
    """The steer of one controller, the forward speed of its runs, and the
    dict in which a baseline steer files each infeasible row's message
    under the row's run id (empty for GVF)."""
    if isinstance(controller, gvf.GvfParams):
        if u_r is not None and u_r != controller.u_r:
            raise ValueError("u_r is carried by GvfParams; do not pass both")
        return _gvf_steer(path, errmap, controller), controller.u_r, {}
    if isinstance(controller, ctl.LosParams):
        sample = partial(ctl.los_sample, path, controller, u_r=u_r)
    elif isinstance(controller, ctl.NglParams):
        sample = partial(ctl.ngl_sample, path, controller)
    else:
        raise TypeError(f"unsupported controller {controller!r}")
    if u_r is None or not 0.0 < u_r < math.inf:
        raise ValueError(f"baseline controllers need a positive u_r, and a "
                         f"finite one, got {u_r!r}")
    if not path.has_parametric:
        raise PathError("baseline controllers require a parametric path")
    detail = {}
    return _baseline_steer(path, errmap, sample, detail), u_r, detail


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
        diag = dict(zip(("delta", "omega_d", "omega"), np.array(terms).T))
        return e, np.zeros_like(infeasible), infeasible, diag

    return steer


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
    """Integrate the guiding-field closed loop for a batch of initial poses;
    returns the batch's BatchResult.

    poses0: array (B, 3) of (x, y, alpha), or one pose (3,).  `record`, if
    given, is called once per step as record(t, ids, data) where ids are
    original run indices of the still-active runs and data holds the per-run
    arrays x, y, alpha and those of field.steering_arrays (e, delta,
    omega_d, omega, regular, ...).  A run's dist is NaN unless it ends with
    |e| below stop.tol_e.
    """
    if not isinstance(params, gvf.GvfParams):
        raise TypeError(f"unsupported controller {params!r}")
    command = _unicycle_command(_gvf_steer(path, errmap, params), params.u_r, dt)
    return _run(command, path, _rows(poses0, 3), dt, t_max, stop,
                path.critical_set.points, record)


_ROW_KEYS = ("x", "y", "alpha", "e", "delta", "omega_d", "omega")
# Steps the row recorder holds before its buffer first doubles.
_ROWS_INITIAL = 1024
# Rows per distance query over a recorded run.  The search holds about 3 kB
# of scratch per row; at 128 rows a recorded batch's memory peaks no higher
# than with a search per step.
_DIST_BLOCK = 128


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
    """Integrate the closed loop from each Pose; one Trajectory per pose,
    each equal to that pose's run on its own.

    controllers holds one controller per pose: GvfParams (u_r taken from
    it) or LosParams / NglParams (pass the forward speed via u_r).  Every
    controller is checked before any run; then the poses of each distinct
    controller run as one batch.  Each run's dist column is
    path.distance_many of its recorded points, searched after its batch,
    _DIST_BLOCK rows at a time.
    """
    if len(controllers) != len(poses):
        raise ValueError(f"{len(controllers)} controllers for {len(poses)} poses")
    runs = {}
    for i, c in enumerate(controllers):
        runs.setdefault(c, []).append(i)
    made = [(_steer(path, errmap, c, u_r), which) for c, which in runs.items()]
    details = {
        TerminationKind.CONVERGED: "|e| and path distance within tolerance "
                                   f"for {stop.t_dwell} s",
        TerminationKind.CRITICAL: "entered the critical-set neighborhood",
        TerminationKind.TIMEOUT: "t_max reached",
        TerminationKind.LEFT_DOMAIN: "left the working region",
    }
    trajs = [None] * len(poses)
    for (steer, speed, detail), which in made:
        state = np.array([[poses[i].x, poses[i].y, poses[i].alpha] for i in which])
        rec = _RowRecorder(len(state))
        res = _run(_unicycle_command(steer, speed, dt), path, state, dt, t_max,
                   stop, path.critical_set.points, rec)
        for j, (i, kind) in enumerate(zip(which, res.kind)):
            # Infeasible runs carry their own guidance error message.
            event = TerminationEvent(kind, float(res.t_final[j]),
                                     detail.get(j) or details[kind])
            cols = rec.columns(j)
            xy = np.column_stack((cols["x"], cols["y"]))
            cols["dist"] = np.concatenate([path.distance_many(xy[a:a + _DIST_BLOCK])
                                           for a in range(0, len(xy), _DIST_BLOCK)])
            trajs[i] = Trajectory(dt=dt, termination=event, **cols)
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
    most at speed u_r."""
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

    return _Command(step, speed)


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
    res = _run(command, path, starts, dt, t_max, stop, crit, rec)
    return _LABELS[res.code], res.t_final
