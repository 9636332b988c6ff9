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

Angle differences are wrapped to (-pi, pi] before multiplying by gains.
Curvature is signed for the chosen traversal direction (negative when the
built-in closed paths are followed forward, i.e. clockwise).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .paths import BOUNDARY_SAMPLES
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


PROJECTION_SEEDS = 1024
# Two refined minima closer than this in distance make the projection
# ambiguous (the classic case: the center of an ellipse).
PROJECTION_TIE_TOL = 1e-6


def _signed_curvature(path, point):
    """Curvature of the level set through `point`, signed for forward traversal.

    For a curve traversed with velocity tau = E grad(phi) the signed
    curvature is -tau^T H tau / |grad|^3 (exact; -1 on the unit circle).
    """
    g = path.grad(point)
    h = path.hess(point)
    tx, ty = g[1], -g[0]
    num = tx * (h[0, 0] * tx + h[0, 1] * ty) + ty * (h[1, 0] * tx + h[1, 1] * ty)
    nn = math.hypot(g[0], g[1])
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
    seed_pts = path._boundary_pts[:: BOUNDARY_SAMPLES // PROJECTION_SEEDS]
    d_seed = np.hypot(*(seed_pts - p).T)

    if path.closed:
        left, right = np.roll(d_seed, 1), np.roll(d_seed, -1)
    else:
        left, right = np.r_[np.inf, d_seed[:-1]], np.r_[d_seed[1:], np.inf]
    is_min = (d_seed <= left) & (d_seed <= right)

    q, s, d = path._foot_points(p, seed_pts[is_min])
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
    g = path.grad(proj)
    nn = math.hypot(g[0], g[1])
    tangent = np.array([g[1], -g[0]]) / nn
    curv = _signed_curvature(path, proj)
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

    A sign-change scan of |sample - center| - radius over the 4096 cached
    boundary samples brackets each crossing; Newton on phi(q) = 0 with the
    circle condition |q - center|^2 = radius^2 then refines all of them at
    once, started at the chord crossing of each bracket.
    """
    pts = path._boundary_pts
    f = np.hypot(*(pts - center).T) - radius
    fa, fb = (f, np.roll(f, -1)) if path.closed else (f[:-1], f[1:])
    k = np.flatnonzero((fa == 0.0) | (fa * fb < 0.0))
    a, b = pts[k], pts[(k + 1) % len(pts)]
    t = fa[k] / (fa[k] - fb[k])
    cx, cy = center

    def side(q, g):
        dx, dy = q[:, 0] - cx, q[:, 1] - cy
        return dx * dx + dy * dy - radius * radius, 2.0 * dx, 2.0 * dy

    q = path._newton_on_curve(a + t[:, None] * (b - a), side)
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
