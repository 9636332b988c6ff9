"""Implicit planar paths, their derivatives, and tracking-error maps.

A desired path is the zero level set of a twice continuously differentiable
scalar field phi(x, y).  Every built-in path carries closed-form gradient and
Hessian (the steering law needs the Hessian exactly) plus a parametric form
s in [0, 1) -> point on the zero set, traversed in the same direction the
guiding field circulates (clockwise for the closed built-ins).  Central
finite differences are provided only as a verification oracle.

Each path class writes its formulas once, in `jet_xy(x, y, order)`: phi
at order 0, plus the gradient (gx, gy) at order 1, plus the Hessian entries
(hxx, hxy, hyy) at order 2, with shared subexpressions computed once.  The
formulas use only + - * / and the path's own parameters, so x and y may be
Python floats or arrays of one shape, with the same bits either way.
`jet(pts, order)` is the view of it on points (..., 2), `phi`, `grad` and
`hess` are views of that, and callers that need several of these quantities
make one call at the order they need.  The on-curve Newton, `_newton_xy`,
likewise serves one point on floats or many as arrays.

The tracking error is e = psi(phi) for a strictly increasing psi with
psi(0) = 0; three families are provided (identity, arctan of a signed power,
and a bounded rational signed power), each with a known finite supremum of
psi'(psi^{-1}(u)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import analysis
from .util import PADDED_WORKSPACE, TWO_PI, Region, require_positive

# Distance queries sample the parametric form this densely; point queries
# then take NEWTON_ITERS Newton steps on the implicit curve from a sample.
BOUNDARY_SAMPLES = 4096
COARSE_STRIDE = 32
# The global projection seeds its search with this many boundary samples.
PROJECTION_SEEDS = 1024
# The dwell witness checks this many samples on each side of a row's hint.
WITNESS_HALF_WIDTH = 4
NEWTON_ITERS = 4
# Raster resolution used to locate the zero contour of paths that have no
# parametric form; distance queries refine the nearest contour point.
CONTOUR_GRID = 512
# Point-sample pairs per block of a contour distance query.
CONTOUR_BLOCK = 1 << 18


class PathError(ValueError):
    """Invalid path parameters."""


class ContourNotFoundError(RuntimeError):
    """The zero contour does not intersect the configured working region."""


def _require_params(kind, finite, positive):
    """Raise PathError naming the first parameter that is not finite, or of
    the positive ones, not finite and > 0 (NaN fails both tests)."""
    for name, v in finite.items():
        if not math.isfinite(v):
            raise PathError(f"{kind}: {name} must be finite, got {v!r}")
    try:
        require_positive(**positive)
    except ValueError as exc:
        raise PathError(f"{kind}: {exc}") from None


def _pts(p):
    pts = np.asarray(p, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError(f"expected point(s) of shape (..., 2), got {pts.shape}")
    return pts


def _sq_dist(px, py, qx, qy):
    """(px - qx)^2 + (py - qy)^2, broadcast, as dx*dx + dy*dy in place."""
    dx = px - qx
    dx *= dx
    dy = py - qy
    dy *= dy
    dx += dy
    return dx


class ImplicitPath:
    """Base class: vectorized phi/grad/hess plus distance machinery.

    Subclasses are frozen dataclasses; all derived data (boundary samples,
    critical set) is cached, so instances are immutable and thread-safe.
    region is the working region: a field of the line and polynomial paths,
    the padded workspace for the others.  Each subclass writes its formulas
    once, in jet_xy; jet, phi, grad and hess are views of it.
    """

    closed = False
    region = PADDED_WORKSPACE

    @property
    def has_parametric(self):
        return hasattr(self, "point")

    def jet_xy(self, x, y, order):
        """(phi,) at order 0, (phi, gx, gy) at order 1 and (phi, gx, gy,
        hxx, hxy, hyy) at order 2, at the points (x, y): two floats, or two
        arrays of one shape.

        phi has the shape of x; a derivative that is constant over the plane
        may be a float, which broadcasts against it.
        """
        raise NotImplementedError

    def jet(self, pts, order):
        """jet_xy at the points pts (..., 2)."""
        pts = _pts(pts)
        return self.jet_xy(pts[..., 0], pts[..., 1], order)

    def phi(self, pts):
        return self.jet(pts, 0)[0]

    def grad(self, pts):
        """The gradient as an array (..., 2)."""
        ph, gx, gy = self.jet(pts, 1)
        g = np.empty(np.shape(ph) + (2,))
        g[..., 0] = gx
        g[..., 1] = gy
        return g

    def hess(self, pts):
        """The Hessian as an array (..., 2, 2)."""
        ph, _, _, hxx, hxy, hyy = self.jet(pts, 2)
        h = np.empty(np.shape(ph) + (2, 2))
        h[..., 0, 0] = hxx
        h[..., 0, 1] = hxy
        h[..., 1, 0] = hxy
        h[..., 1, 1] = hyy
        return h

    def grad_sup(self):
        """A bound on |grad phi| over the working region: here its largest
        corner value, the supremum when the gradient is affine (|grad phi|
        is then convex); other paths override it."""
        _, gx, gy = self.jet(self.region.grid(2, 2), 1)
        return float(np.max(np.hypot(gx, gy)))

    @cached_property
    def critical_set(self):
        """analysis.find_critical_points(self), searched once per path."""
        return analysis.find_critical_points(self)

    # -- distance to the zero set ------------------------------------------

    @cached_property
    def _boundary_pts(self):
        s = np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
        return self.point(s)

    @cached_property
    def _boundary_xy(self):
        """Contiguous x and y of the boundary samples and one more: sample 0
        again on closed paths, NaN on open ones, so that samples j and j + 1
        are neighbours on the path for every j < BOUNDARY_SAMPLES.  The
        coarse samples, the projection seeds and the circle scan read their
        coordinates from these two arrays."""
        pts = self._boundary_pts
        after = pts[:1] if self.closed else np.full((1, 2), np.nan)
        x, y = np.ascontiguousarray(np.concatenate((pts, after)).T)
        return x, y

    @cached_property
    def _cell_lengths(self):
        """Polyline length of each coarse cell: samples 32k ... 32k+32 (the
        last cell of an open path ends at its last sample)."""
        x, y = self._boundary_xy
        seg = np.hypot(np.diff(x), np.diff(y))
        if not self.closed:
            seg[-1] = 0.0
        return seg.reshape(-1, COARSE_STRIDE).sum(axis=1)

    @cached_property
    def _boundary_windows(self):
        """(cx, cy, wx, wy, pad): the coarse samples' x and y, and each coarse
        cell's candidate window over the padded sample index pad.

        pad[j] is sample j - COARSE_STRIDE, wrapped on closed paths and
        clipped on open ones, so row k of wx/wy holds the samples
        32k-32 ... 32k+64 in that order, one contiguous row of a sliding
        window.
        """
        x, y = self._boundary_xy
        pad = np.arange(-COARSE_STRIDE, BOUNDARY_SAMPLES + 2 * COARSE_STRIDE)
        if self.closed:
            pad = np.mod(pad, BOUNDARY_SAMPLES)
        else:
            pad = np.clip(pad, 0, BOUNDARY_SAMPLES - 1)
        xy = np.stack((x[pad], y[pad]))
        wx, wy = sliding_window_view(xy, 3 * COARSE_STRIDE + 1,
                                     axis=-1)[:, ::COARSE_STRIDE]
        coarse = slice(0, BOUNDARY_SAMPLES, COARSE_STRIDE)
        return x[coarse], y[coarse], wx, wy, pad

    def nearest_boundary(self, pts):
        """Distance and sample index of the nearest boundary sample.

        Two-stage search: coarse argmin over every 32nd sample, then exact
        argmin over the 97 samples of the +-1 coarse cells around it, which
        the cached window table holds as one row per coarse cell.  Ties go
        to the earlier candidate in that row.  Accurate to the sample
        spacing; vectorized over leading axes of pts.
        """
        pts = _pts(pts)
        cx, cy, wx, wy, pad = self._boundary_windows
        px, py = pts[..., 0, None], pts[..., 1, None]
        kc = _sq_dist(px, py, cx, cy).argmin(axis=-1)
        d2 = _sq_dist(px, py, wx[kc], wy[kc])
        j = d2.argmin(axis=-1)
        return np.sqrt(d2.min(axis=-1)), pad[kc * COARSE_STRIDE + j]

    def within_boundary(self, pts, hint, tol):
        """Whether nearest_boundary's distance is below tol at the points
        (m, 2), decided exactly with the help of sample-index hints (m,).

        The witness checks the samples within WITNESS_HALF_WIDTH of each hint
        (wrapped on closed paths, clipped on open ones) with
        nearest_boundary's arithmetic: if the nearest of them lies below tol,
        so does the nearest sample, which is what nearest_boundary finds
        unless another stretch of the path passes within about a coarse cell
        of the point.  Rows without such a witness run the full search.
        Returns (dist, hint): dist is the witness's distance on the witnessed
        rows and nearest_boundary's on the others, so it lies below tol
        exactly where nearest_boundary's does, and hint is the index of the
        sample at that distance.
        """
        n = BOUNDARY_SAMPLES
        k = hint[:, None] + np.arange(-WITNESS_HALF_WIDTH, WITNESS_HALF_WIDTH + 1)
        k = k % n if self.closed else np.clip(k, 0, n - 1)
        x, y = self._boundary_xy
        d2 = _sq_dist(pts[:, 0, None], pts[:, 1, None], x[k], y[k])
        j = d2.argmin(axis=1)
        rows = np.arange(len(k))
        dist, hint = np.sqrt(d2[rows, j]), k[rows, j]
        miss = ~(dist < tol)
        if miss.any():
            dist[miss], hint[miss] = self.nearest_boundary(pts[miss])
        return dist, hint

    def _newton_xy(self, qx, qy, side, order=1):
        """NEWTON_ITERS 2x2 Newton steps on phi = 0 and side = 0 from
        (qx, qy): two floats, or two arrays of one shape, one start each.

        jet is self.jet_xy(qx, qy, order); side(qx, qy, jet) returns the
        residual r and its gradient (r_x, r_y).  A start with a singular
        Jacobian stays put: its inverse determinant is 0 (1 / det
        elsewhere, bit for bit), with no division by zero.
        """
        for _ in range(NEWTON_ITERS):
            jet = self.jet_xy(qx, qy, order)
            f, gx, gy = jet[:3]
            r, rx, ry = side(qx, qy, jet)
            det = gx * ry - gy * rx
            sing = det == 0.0
            inv = (1.0 - sing) / (det + sing)
            qx = qx - (ry * f - gy * r) * inv
            qy = qy - (gx * r - rx * f) * inv
        return qx, qy

    def _newton_rows(self, q0, side, order=1):
        """_newton_xy on floats from each row of q0 (m, 2), stacked (m, 2).

        The baselines refine one to a few starts per query, where a float
        step costs a small fraction of a numpy call on a short array."""
        return np.array([self._newton_xy(x, y, side, order)
                         for x, y in q0.tolist()]).reshape(-1, 2)

    def _curve_s(self, q):
        """Parameter s of points q (m, 2) on the curve: the nearest boundary
        sample k plus q's offset along the chord from sample k-1 to k+1,
        wrapped into [0, 1) on closed paths, clamped to [0, 1] on open ones.
        """
        n = BOUNDARY_SAMPLES
        _, k = self.nearest_boundary(q)
        lo, hi = k - 1, k + 1
        if self.closed:
            lo, hi = lo % n, hi % n
            span = 2.0
        else:
            lo, hi = np.maximum(lo, 0), np.minimum(hi, n - 1)
            span = hi - lo
        x, y = self._boundary_xy
        cx, cy = x[hi] - x[lo], y[hi] - y[lo]
        t = ((q[:, 0] - x[k]) * cx + (q[:, 1] - y[k]) * cy) / (cx * cx + cy * cy)
        s = (k + span * t) / n
        return s % 1.0 if self.closed else np.clip(s, 0.0, 1.0)

    @staticmethod
    def _foot_side(px, py):
        """The foot-point condition (q - p) x grad phi(q) = 0 as a side for
        _newton_xy at order 2; p = (px, py) is one point as floats, or one
        per start as arrays."""

        def side(qx, qy, jet):
            _, gx, gy, hxx, hxy, hyy = jet
            dx, dy = qx - px, qy - py
            return (dx * gy - dy * gx,
                    gy + dx * hxy - dy * hxx,
                    dx * hyy - gx - dy * hxy)

        return side

    def _foot_points(self, p, q0):
        """(q, s, |p - q|) for the foot points q of p that Newton reaches from
        q0 (m, 2) under the foot-point condition; on open paths a foot point
        past the chord's end becomes that end.
        """
        px, py = p.tolist()
        q = self._newton_rows(q0, self._foot_side(px, py), order=2)
        s = self._curve_s(q)
        if not self.closed:
            end = (s == 0.0) | (s == 1.0)
            if end.any():
                q[end] = self.point(s[end])
        return q, s, np.hypot(q[:, 0] - px, q[:, 1] - py)

    def distance_many(self, pts):
        """Distances from many points.

        Parametric paths answer with the nearest of the 4096 boundary samples
        (error at most about half a sample spacing), with no per-point
        refinement.  Other paths take the nearest point of the rasterized
        zero contour and refine it to the foot point by Newton, so their
        distances are exact to rounding.
        """
        pts = _pts(pts)
        if self.has_parametric:
            return self.nearest_boundary(pts)[0]
        contour = self._contour_pts
        cx, cy = np.ascontiguousarray(contour.T)
        flat = pts.reshape(-1, 2)
        near = np.empty(len(flat), dtype=int)
        chunk = max(1, CONTOUR_BLOCK // max(len(contour), 1))
        for i in range(0, len(flat), chunk):
            block = flat[i:i + chunk]
            d2 = _sq_dist(block[:, 0, None], block[:, 1, None], cx, cy)
            near[i:i + chunk] = d2.argmin(axis=1)
        px, py = flat[:, 0], flat[:, 1]
        qx, qy = self._newton_xy(*contour[near].T, self._foot_side(px, py), order=2)
        d = np.hypot(qx - px, qy - py)
        return d.reshape(pts.shape[:-1])

    def distance(self, point):
        """Euclidean distance from one point to the path.

        Parametric paths: the distance to the foot point found by Newton
        from the nearest boundary sample.  Otherwise distance_many, which
        starts Newton from the nearest point of the rasterized zero contour.
        """
        p = _pts(point)
        if self.has_parametric:
            _, k = self.nearest_boundary(p)
            return float(self._foot_points(p, self._boundary_pts[k][None])[2][0])
        return float(self.distance_many(p))

    @cached_property
    def _contour_pts(self):
        region = self.region
        xs = np.linspace(region.xmin, region.xmax, CONTOUR_GRID)
        ys = np.linspace(region.ymin, region.ymax, CONTOUR_GRID)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        nodes = np.stack([gx, gy], axis=-1)
        ph = self.phi(nodes)
        segs = []
        for a, b, fa, fb in (
            (nodes[:-1, :, :], nodes[1:, :, :], ph[:-1, :], ph[1:, :]),
            (nodes[:, :-1, :], nodes[:, 1:, :], ph[:, :-1], ph[:, 1:]),
        ):
            cross = (fa == 0.0) | (fa * fb < 0.0)
            if np.any(cross):
                segs.append((a[cross], b[cross], fa[cross], fb[cross]))
        pts = []
        if np.any(ph == 0.0):
            pts.append(nodes[ph == 0.0])
        for a, b, fa, fb in segs:
            lo, hi = a.copy(), b.copy()
            flo = fa.copy()
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                fm = self.phi(mid)
                left = flo * fm <= 0.0
                hi[left] = mid[left]
                lo[~left] = mid[~left]
                flo[~left] = fm[~left]
            pts.append(0.5 * (lo + hi))
        if not pts:
            raise ContourNotFoundError(
                f"no zero contour of {type(self).__name__} inside {region}"
            )
        return np.concatenate(pts, axis=0)


@dataclass(frozen=True)
class LinePath(ImplicitPath):
    """phi = a*x + b*y + c.  The parametric form is the chord clipped to the
    working region, traversed along the tangent (b, -a)."""

    a: float
    b: float
    c: float
    region: Region = PADDED_WORKSPACE

    closed = False

    def __post_init__(self):
        _require_params("line", dict(a=self.a, b=self.b, c=self.c), {})
        if self.a == 0.0 and self.b == 0.0:
            raise PathError("line requires (a, b) != (0, 0)")

    def jet_xy(self, x, y, order):
        out = (self.a * x + self.b * y + self.c,)
        if order >= 1:
            out += (self.a, self.b)
        if order >= 2:
            out += (0.0, 0.0, 0.0)
        return out

    @cached_property
    def _chord(self):
        nn = math.hypot(self.a, self.b)
        that = np.array([self.b, -self.a]) / nn
        cx, cy = self.region.center
        phi_c = self.a * cx + self.b * cy + self.c
        foot = np.array([cx, cy]) - (phi_c / nn**2) * np.array([self.a, self.b])
        # Clip foot + t*that against the region slabs.
        t0, t1 = -math.inf, math.inf
        for k, (lo, hi) in enumerate(
            ((self.region.xmin, self.region.xmax), (self.region.ymin, self.region.ymax))
        ):
            if abs(that[k]) < 1e-15:
                if not (lo <= foot[k] <= hi):
                    raise PathError("line does not intersect the working region")
                continue
            ta, tb = (lo - foot[k]) / that[k], (hi - foot[k]) / that[k]
            t0, t1 = max(t0, min(ta, tb)), min(t1, max(ta, tb))
        if not t0 < t1:
            raise PathError("line does not intersect the working region")
        return foot, that, t0, t1

    def point(self, s):
        foot, that, t0, t1 = self._chord
        s = np.asarray(s, dtype=float)
        t = t0 + (t1 - t0) * s
        return foot + t[..., None] * that


@dataclass(frozen=True)
class CirclePath(ImplicitPath):
    """phi = k_s * ((x-x0)^2 + (y-y0)^2 - radius^2)."""

    x0: float
    y0: float
    radius: float
    k_s: float = 1.0

    closed = True

    def __post_init__(self):
        _require_params("circle", dict(x0=self.x0, y0=self.y0),
                        dict(radius=self.radius, k_s=self.k_s))

    def jet_xy(self, x, y, order):
        dx, dy = x - self.x0, y - self.y0
        out = (self.k_s * (dx * dx + dy * dy - self.radius**2),)
        if order >= 1:
            out += (2.0 * self.k_s * dx, 2.0 * self.k_s * dy)
        if order >= 2:
            out += (2.0 * self.k_s, 0.0, 2.0 * self.k_s)
        return out

    def point(self, s):
        ang = TWO_PI * np.asarray(s, dtype=float)
        return np.stack(
            [self.x0 + self.radius * np.cos(ang), self.y0 - self.radius * np.sin(ang)],
            axis=-1,
        )


@dataclass(frozen=True)
class EllipsePath(ImplicitPath):
    """phi = k_s * ((x-x0)^2/p^2 + (y-y0)^2/q^2 - R^2).

    The zero set is the ellipse with semiaxes p*R and q*R centered at
    (x0, y0).
    """

    x0: float
    y0: float
    R: float
    p: float
    q: float
    k_s: float

    closed = True

    def __post_init__(self):
        _require_params("ellipse", dict(x0=self.x0, y0=self.y0),
                        dict(R=self.R, p=self.p, q=self.q, k_s=self.k_s))

    def jet_xy(self, x, y, order):
        dx, dy = x - self.x0, y - self.y0
        out = (self.k_s * (dx * dx / self.p**2 + dy * dy / self.q**2 - self.R**2),)
        if order >= 1:
            out += (2.0 * self.k_s * dx / self.p**2, 2.0 * self.k_s * dy / self.q**2)
        if order >= 2:
            out += (2.0 * self.k_s / self.p**2, 0.0, 2.0 * self.k_s / self.q**2)
        return out

    def point(self, s):
        ang = TWO_PI * np.asarray(s, dtype=float)
        out = np.empty(ang.shape + (2,))
        out[..., 0] = self.x0 + self.p * self.R * np.cos(ang)
        out[..., 1] = self.y0 - self.q * self.R * np.sin(ang)
        return out


@dataclass(frozen=True)
class CassiniPath(ImplicitPath):
    """Cassini oval: phi = k_s * ((dx^2+dy^2)^2 - 2 q^2 (dx^2-dy^2) - p^4 + q^4).

    Locus points sit at (x0 +- q, y0).  Only the single-loop regime p > q is
    supported; there the polar radius r(theta)^2 = q^2 cos 2theta +
    sqrt(p^4 - q^4 sin^2 2theta) parametrizes the whole zero set.
    """

    x0: float
    y0: float
    p: float
    q: float
    k_s: float

    closed = True

    def __post_init__(self):
        _require_params("cassini", dict(x0=self.x0, y0=self.y0),
                        dict(p=self.p, q=self.q, k_s=self.k_s))
        if self.p <= self.q:
            raise PathError("cassini supported only in the single-loop regime p > q")

    def jet_xy(self, x, y, order):
        dx, dy = x - self.x0, y - self.y0
        dx2, dy2 = dx * dx, dy * dy
        rho2 = dx2 + dy2
        q2 = self.q**2
        out = (self.k_s * (rho2 * rho2 - 2.0 * q2 * (dx2 - dy2) - self.p**4 + self.q**4),)
        if order >= 1:
            minus, plus = rho2 - q2, rho2 + q2
            out += (4.0 * self.k_s * dx * minus, 4.0 * self.k_s * dy * plus)
        if order >= 2:
            out += (4.0 * self.k_s * (minus + 2.0 * dx2), 8.0 * self.k_s * dx * dy,
                    4.0 * self.k_s * (plus + 2.0 * dy2))
        return out

    def grad_sup(self):
        """A bound on |grad phi| over the working region, from |dx| <= X,
        |dy| <= Y and dx^2 + dy^2 <= r2 = X^2 + Y^2 there."""
        r = self.region
        X = max(abs(r.xmin - self.x0), abs(r.xmax - self.x0))
        Y = max(abs(r.ymin - self.y0), abs(r.ymax - self.y0))
        r2, q2 = X * X + Y * Y, self.q**2
        return 4.0 * self.k_s * math.hypot(X * max(r2 - q2, q2), Y * (r2 + q2))

    def point(self, s):
        th = -TWO_PI * np.asarray(s, dtype=float)
        c2 = np.cos(2.0 * th)
        s2 = np.sin(2.0 * th)
        r = np.sqrt(self.q**2 * c2 + np.sqrt(self.p**4 - self.q**4 * s2 * s2))
        return np.stack([self.x0 + r * np.cos(th), self.y0 + r * np.sin(th)], axis=-1)


# Polynomial terms ((i, j, c), ...): c * x^i * y^j each.
Terms = tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class PolynomialPath(ImplicitPath):
    """phi = sum c * x^i * y^j over terms ((i, j, c), ...).

    Gradient and Hessian coefficient tables are built once at construction by
    term-wise differentiation, so all derivatives are exact.  No parametric
    form; distance queries start from the rasterized zero contour.
    """

    terms: Terms
    region: Region = PADDED_WORKSPACE

    closed = False

    def __post_init__(self):
        if not self.terms:
            raise PathError("polynomial requires at least one term")
        norm = []
        for t in self.terms:
            i, j, c = int(t[0]), int(t[1]), float(t[2])
            if i < 0 or j < 0:
                raise PathError(f"negative exponent in term {t}")
            _require_params("polynomial", {f"terms {t}": c}, {})
            norm.append((i, j, c))
        object.__setattr__(self, "terms", tuple(norm))

    @staticmethod
    def _diff(terms, axis):
        out = []
        for i, j, c in terms:
            if axis == 0 and i > 0:
                out.append((i - 1, j, c * i))
            elif axis == 1 and j > 0:
                out.append((i, j - 1, c * j))
        return tuple(out)

    @cached_property
    def _tables(self):
        """Term tables of phi, gx, gy, hxx, hxy and hyy, in jet order."""
        dx = self._diff(self.terms, 0)
        dy = self._diff(self.terms, 1)
        return (self.terms, dx, dy, self._diff(dx, 0), self._diff(dx, 1),
                self._diff(dy, 1))

    def jet_xy(self, x, y, order):
        # Each power of x and y is computed once and shared by the tables.
        # On floats x**i is C pow, which may round unlike np.power on arrays;
        # the polynomial is evaluated on arrays only.
        xp, yp = {}, {}
        out = []
        for terms in self._tables[:(1, 3, 6)[order]]:
            acc = np.zeros(np.shape(x))
            for i, j, c in terms:
                if i not in xp:
                    xp[i] = x**i
                if j not in yp:
                    yp[j] = y**j
                acc += c * xp[i] * yp[j]
            out.append(acc)
        return tuple(out)

    def grad_sup(self):
        """A bound on |grad phi| over the working region: each gradient
        term c x^i y^j is at most |c| X^i Y^j there, with |x| <= X, |y| <= Y."""
        r = self.region
        X = max(abs(r.xmin), abs(r.xmax))
        Y = max(abs(r.ymin), abs(r.ymax))
        gx, gy = (sum(abs(c) * X**i * Y**j for i, j, c in terms)
                  for terms in self._tables[1:3])
        return math.hypot(gx, gy)


PATH_KINDS = {"line": LinePath, "circle": CirclePath, "ellipse": EllipsePath,
              "cassini": CassiniPath, "polynomial": PolynomialPath}


def check_derivatives(path, point, h=None):
    """Max relative discrepancy of analytic grad/Hessian vs central differences.

    h defaults to 1e-4 * (1 + |coordinate|) per axis, balancing truncation
    against roundoff at Px scales.  Returns
    max |analytic - fd| / (1 + |analytic|) over all five components.
    """
    p = _pts(point).astype(float)
    if h is None:
        hx, hy = 1e-4 * (1.0 + abs(p[0])), 1e-4 * (1.0 + abs(p[1]))
    else:
        if h <= 0.0:
            raise ValueError("step h must be positive")
        hx = hy = float(h)
    ex, ey = np.array([hx, 0.0]), np.array([0.0, hy])

    f = lambda q: float(path.phi(q))
    g_fd = np.array(
        [(f(p + ex) - f(p - ex)) / (2 * hx), (f(p + ey) - f(p - ey)) / (2 * hy)]
    )
    hxx = (f(p + ex) - 2 * f(p) + f(p - ex)) / hx**2
    hyy = (f(p + ey) - 2 * f(p) + f(p - ey)) / hy**2
    hxy = (f(p + ex + ey) - f(p + ex - ey) - f(p - ex + ey) + f(p - ex - ey)) / (
        4 * hx * hy
    )
    h_fd = np.array([[hxx, hxy], [hxy, hyy]])

    _, gx, gy, axx, axy, ayy = path.jet(p, 2)
    g = np.array([gx, gy], dtype=float)
    hh = np.array([[axx, axy], [axy, ayy]], dtype=float)
    err_g = np.abs(g - g_fd) / (1.0 + np.abs(g))
    err_h = np.abs(hh - h_fd) / (1.0 + np.abs(hh))
    return float(max(err_g.max(), err_h.max()))


# ---------------------------------------------------------------------------
# Tracking-error maps


class ErrorMap:
    """Strictly increasing psi with psi(0) = 0 mapping phi to the error e."""

    def psi(self, s):
        raise NotImplementedError

    def psi_prime(self, s):
        raise NotImplementedError

    def psi_prime_sup(self):
        """sup over u of psi'(psi^{-1}(u)) = sup over s of psi'(s); finite."""
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(ErrorMap):
    """psi(s) = s."""

    def psi(self, s):
        return np.asarray(s, dtype=float) + 0.0

    def psi_prime(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def psi_prime_sup(self):
        return 1.0


def _check_power(p):
    if not 1.0 <= p < math.inf:
        raise ValueError(f"power must be finite and >= 1, got {p!r}")


@dataclass(frozen=True)
class ArctanPower(ErrorMap):
    """psi(s) = arctan(|s|^p sgn s), bounded error in (-pi/2, pi/2)."""

    p: float = 1.0

    def __post_init__(self):
        _check_power(self.p)

    def psi(self, s):
        s = np.asarray(s, dtype=float)
        return np.arctan(np.abs(s) ** self.p * np.sign(s))

    def psi_prime(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        return self.p * s ** (self.p - 1.0) / (1.0 + s ** (2.0 * self.p))

    def psi_prime_sup(self):
        if self.p == 1.0:
            return 1.0
        r = (self.p - 1.0) / (self.p + 1.0)
        return 0.5 * (self.p + 1.0) * r ** ((self.p - 1.0) / (2.0 * self.p))


@dataclass(frozen=True)
class RationalSignPower(ErrorMap):
    """psi(s) = |s|^p sgn s / (1 + |s|^p), bounded error in (-1, 1)."""

    p: float = 1.0

    def __post_init__(self):
        _check_power(self.p)

    def psi(self, s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s) ** self.p
        return a * np.sign(s) / (1.0 + a)

    def psi_prime(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        return self.p * s ** (self.p - 1.0) / (1.0 + s**self.p) ** 2

    def psi_prime_sup(self):
        if self.p == 1.0:
            return 1.0
        r = (self.p - 1.0) / (self.p + 1.0)
        return (self.p + 1.0) ** 2 / (4.0 * self.p) * r ** ((self.p - 1.0) / self.p)


ERROR_MAPS = {"identity": IdentityMap, "arctan_power": ArctanPower,
              "rational_sign_power": RationalSignPower}
