"""Path projection and the LOS / NGL baseline steering laws.

The guiding-field law omega = omega_d - k_delta * delta lives in
`field.steering_arrays`.  The baselines need a parametric form of the path
(they are defined for the built-ins only):

* LOS steers at the bearing of the point a lookahead distance ahead along the
  tangent at the projection, with curvature feedforward:
  omega = c(P) u_r - k_los * wrap(alpha - alpha_los).
* NGL steers at the bearing of the intersection of the robot-centered circle
  of radius R with the path that lies ahead in the traversal direction:
  omega = -k_r * wrap(alpha - alpha_r).  "Ahead" is measured in s from the
  robot's nearest boundary sample, not from a projection, so NGL never
  raises AmbiguousProjectionError; only LOS projects.

Both baselines find their candidates (the projection's local minima, the
circle's crossings) with a numpy scan of the cached boundary samples, then
refine each candidate by the path's on-curve Newton on Python floats.  A
query has one to three candidates, and on arrays that short numpy's fixed
cost per call, not the arithmetic, would be the whole cost of the Newton
steps; the float steps give the same bits as the array steps.

Angle differences are wrapped to (-pi, pi] before multiplying by gains.
Curvature is signed for the chosen traversal direction (negative when the
built-in closed paths are followed forward, i.e. clockwise).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .paths import BOUNDARY_SAMPLES, COARSE_STRIDE, PROJECTION_SEEDS
from .util import require_positive, wrap_angle


class Direction(enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


class AmbiguousProjectionError(RuntimeError):
    """Two projection candidates are equidistant; the projection is undefined."""


class GuidanceInfeasibleError(RuntimeError):
    """The guidance construction has no solution at the current pose."""


@dataclass(frozen=True)
class LosParams:
    lookahead: float
    k_los: float
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        require_positive(lookahead=self.lookahead, k_los=self.k_los)


@dataclass(frozen=True)
class NglParams:
    radius: float
    k_r: float
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        require_positive(radius=self.radius, k_r=self.k_r)


@dataclass
class Projection:
    """Closest point on the path with traversal-signed curvature and tangent."""

    point: np.ndarray
    s: float
    distance: float
    curvature: float
    tangent: np.ndarray


# Two refined minima closer than this in distance make the projection
# ambiguous (the classic case: the center of an ellipse).
PROJECTION_TIE_TOL = 1e-6
# Relative rounding slack of the circle scan's pruning test.
CIRCLE_SCAN_SLACK = 1e-9


def _signed_curvature(gx, gy, hxx, hxy, hyy):
    """Curvature of the level set through a point with gradient (gx, gy) and
    Hessian entries hxx, hxy, hyy, signed for forward traversal.

    For a curve traversed with velocity tau = E grad(phi) the signed
    curvature is -tau^T H tau / |grad|^3 (exact; -1 on the unit circle).
    """
    tx, ty = gy, -gx
    num = tx * (hxx * tx + hxy * ty) + ty * (hxy * tx + hyy * ty)
    nn = math.hypot(gx, gy)
    return -num / nn**3


def project_to_path(path, point, direction=Direction.FORWARD):
    """Global projection of a point onto a parametric path.

    Seeds a global search with 1024 boundary samples, refines every local
    minimum of the seed distances to its foot point by Newton on the implicit
    curve, and raises AmbiguousProjectionError when the two best distinct
    minima tie within 1e-6 in distance.
    """
    if not path.has_parametric:
        raise ValueError("projection requires a path with a parametric form")
    p = np.asarray(point, dtype=float)
    # The seed parameters k/1024 index every 4th cached boundary sample.
    seeds = slice(0, BOUNDARY_SAMPLES, BOUNDARY_SAMPLES // PROJECTION_SEEDS)
    x, y = path._boundary_xy
    d_seed = np.hypot(x[seeds] - p[0], y[seeds] - p[1])

    # Each seed's neighbours: wrapped on closed paths, +inf past an open end.
    ends = (d_seed[-1:], d_seed[:1]) if path.closed else ((math.inf,), (math.inf,))
    pad = np.concatenate((ends[0], d_seed, ends[1]))
    is_min = (d_seed <= pad[:-2]) & (d_seed <= pad[2:])

    q, s, d = path._foot_points(p, path._boundary_pts[seeds][is_min])
    best = np.argmin(d)
    d_best, s_best = d[best], s[best]
    # The runner-up is the best minimum at a different parameter value.
    ds = np.abs(s - s_best)
    if path.closed:
        ds = np.minimum(ds, 1.0 - ds)
    d_next = np.min(d[ds >= 1e-6], initial=math.inf)
    if d_next - d_best < PROJECTION_TIE_TOL:
        raise AmbiguousProjectionError(
            f"projection of ({p[0]}, {p[1]}) is ambiguous: distances "
            f"{d_best:.9g} and {d_next:.9g}"
        )

    proj = q[best]
    _, gx, gy, hxx, hxy, hyy = path.jet_xy(*proj.tolist(), 2)
    nn = math.hypot(gx, gy)
    tangent = np.array([gy, -gx]) / nn
    curv = _signed_curvature(gx, gy, hxx, hxy, hyy)
    if direction is Direction.REVERSE:
        tangent = -tangent
        curv = -curv
    return Projection(point=proj, s=float(s_best), distance=float(d_best),
                      curvature=float(curv), tangent=tangent)


@dataclass
class BaselineSample:
    """Per-step diagnostics of a baseline law."""

    omega: float
    bearing: float        # alpha_los or alpha_r
    heading_error: float  # wrap(alpha - bearing)
    feedforward: float    # c(P) * u_r for LOS, 0 for NGL
    target: np.ndarray    # the aimed-at point
    target_s: float       # its parametric coordinate (projection's for LOS)


def los_sample(path, params, pose, u_r):
    proj = project_to_path(path, (pose.x, pose.y), params.direction)
    target = proj.point + params.lookahead * proj.tangent
    alpha_los = math.atan2(target[1] - pose.y, target[0] - pose.x)
    herr = wrap_angle(pose.alpha - alpha_los)
    ffwd = proj.curvature * u_r
    return BaselineSample(omega=ffwd - params.k_los * herr, bearing=alpha_los,
                          heading_error=herr, feedforward=ffwd,
                          target=target, target_s=proj.s)


def _circle_intersections(path, center, radius):
    """Points q where |q - center| = radius on the path, and their s.

    A sign-change scan of f = |sample - center| - radius over the 4096 cached
    boundary samples brackets each crossing; Newton on phi(q) = 0 with the
    circle condition |q - center|^2 = radius^2 then refines each of them,
    started at the chord crossing of its bracket, or at its first sample
    where f is 0 there.

    The scan is pruned to coarse cells.  The distance to the center is
    1-Lipschitz along the sample polyline, so within a cell of polyline
    length L every sample's f lies within L of the f of the cell's first
    (coarse) sample.  A cell whose coarse |f| exceeds L, with a slack for
    rounding, has no zero and no sign change, and is skipped; the other
    cells are scanned sample by sample with the same arithmetic, so the
    brackets, in order, are those of the full scan.
    """
    px, py = map(float, center)
    x, y = path._boundary_xy
    coarse = slice(0, BOUNDARY_SAMPLES, COARSE_STRIDE)
    lengths = path._cell_lengths
    fc = np.abs(np.hypot(x[coarse] - px, y[coarse] - py) - radius)
    cells = np.flatnonzero(fc <= lengths + CIRCLE_SCAN_SLACK * (fc + lengths + radius))
    # Samples 32c ... 32c+32 of each scanned cell; the sample after the last
    # is sample 0 again on closed paths, NaN on open ones.
    j = (COARSE_STRIDE * cells)[:, None] + np.arange(COARSE_STRIDE + 1)
    f = np.hypot(x[j] - px, y[j] - py) - radius
    fa, fb = f[:, :-1], f[:, 1:]
    hit = (fa == 0.0) | (fa * fb < 0.0)
    fa, fb = fa[hit], fb[hit]
    k = j[:, :-1][hit]
    pts = path._boundary_pts
    a, b = pts[k], pts[(k + 1) % BOUNDARY_SAMPLES]
    # A zero at sample a starts there: also when the next sample is a zero
    # too, or lies past the last sample of an open path (fb is NaN).
    t = np.divide(fa, fa - fb, out=np.zeros_like(fa), where=fa != 0.0)

    def side(qx, qy, jet):
        dx, dy = qx - px, qy - py
        return dx * dx + dy * dy - radius * radius, 2.0 * dx, 2.0 * dy

    q = path._newton_rows(a + t[:, None] * (b - a), side)
    return q, path._curve_s(q)


def ngl_sample(path, params, pose):
    if not path.has_parametric:
        raise ValueError("the NGL baseline requires a path with a parametric form")
    center = np.array([pose.x, pose.y])
    hits, hit_s = _circle_intersections(path, center, params.radius)
    if not len(hits):
        raise GuidanceInfeasibleError(
            f"circle of radius {params.radius} around ({pose.x}, {pose.y}) "
            "does not intersect the path"
        )
    # A crossing can switch sides against the exact foot point only if it lies
    # within one sample of it, that is, with the robot about `radius` off the path.
    ref = path.nearest_boundary(center)[1] / BOUNDARY_SAMPLES
    ahead = hit_s - ref if params.direction is Direction.FORWARD else ref - hit_s
    if path.closed:
        ahead %= 1.0
    if not np.any(ahead > 0.0):
        raise GuidanceInfeasibleError(
            "no circle-path intersection lies ahead in the traversal direction"
        )
    i = np.argmin(np.where(ahead > 0.0, ahead, math.inf))
    target, s_target = hits[i], hit_s[i]
    alpha_r = math.atan2(target[1] - pose.y, target[0] - pose.x)
    herr = wrap_angle(pose.alpha - alpha_r)
    return BaselineSample(omega=-params.k_r * herr, bearing=alpha_r,
                          heading_error=herr, feedforward=0.0,
                          target=target, target_s=float(s_target))
