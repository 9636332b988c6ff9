"""Implicit planar paths, their derivatives, and tracking-error maps.

A desired path is the zero level set of a twice continuously differentiable
scalar field phi(x, y).  Every built-in path carries closed-form gradient and
Hessian (the steering law needs the Hessian exactly) plus a parametric form
s in [0, 1) -> point on the zero set, traversed in the same direction the
guiding field circulates (clockwise for the closed built-ins).  Central
finite differences are provided only as a verification oracle.

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

from .util import PADDED_WORKSPACE, TWO_PI, Region, require_positive

# Distance queries sample the parametric form this densely; point queries
# then take NEWTON_ITERS Newton steps on the implicit curve from a sample.
BOUNDARY_SAMPLES = 4096
COARSE_STRIDE = 32
NEWTON_ITERS = 4
# Raster resolution used to locate the zero contour of paths that have no
# parametric form; the resulting distances are accurate to about one cell.
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

    Subclasses are frozen dataclasses; all derived data is cached, so
    instances are immutable and safe to share across threads.
    """

    closed = False

    @property
    def has_parametric(self):
        return hasattr(self, "point")

    # -- distance to the zero set ------------------------------------------

    @cached_property
    def _boundary_pts(self):
        s = np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
        return self.point(s)

    @cached_property
    def _boundary_windows(self):
        """(cx, cy, wx, wy, pad): the coarse samples' x and y, and each coarse
        cell's candidate window over the padded sample index pad.

        pad[j] is sample j - COARSE_STRIDE, wrapped on closed paths and
        clipped on open ones, so row k of wx/wy holds the samples
        32k-32 ... 32k+64 in that order, one contiguous row of a sliding
        window.
        """
        pts = self._boundary_pts
        pad = np.arange(-COARSE_STRIDE, BOUNDARY_SAMPLES + 2 * COARSE_STRIDE)
        if self.closed:
            pad = np.mod(pad, BOUNDARY_SAMPLES)
        else:
            pad = np.clip(pad, 0, BOUNDARY_SAMPLES - 1)
        xy = np.ascontiguousarray(pts[pad].T)
        wx, wy = sliding_window_view(xy, 3 * COARSE_STRIDE + 1,
                                     axis=-1)[:, ::COARSE_STRIDE]
        cx, cy = np.ascontiguousarray(pts[::COARSE_STRIDE].T)
        return cx, cy, wx, wy, pad

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

    def _newton_on_curve(self, q, side):
        """NEWTON_ITERS 2x2 Newton steps on phi(q) = 0 and side(q, grad phi) = 0.

        side returns the residual r and its gradient row (r_x, r_y) for the
        (m, 2) points q; a row with a singular Jacobian stays put.
        """
        q = np.array(q, dtype=float)
        for _ in range(NEWTON_ITERS):
            f = self.phi(q)
            g = self.grad(q)
            r, rx, ry = side(q, g)
            gx, gy = g[:, 0], g[:, 1]
            det = gx * ry - gy * rx
            inv = np.divide(1.0, det, out=np.zeros_like(det), where=det != 0.0)
            q[:, 0] -= (ry * f - gy * r) * inv
            q[:, 1] -= (gx * r - rx * f) * inv
        return q

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
        pts = self._boundary_pts
        chord = pts[hi] - pts[lo]
        t = np.sum((q - pts[k]) * chord, axis=-1) / np.sum(chord * chord, axis=-1)
        s = (k + span * t) / n
        return s % 1.0 if self.closed else np.clip(s, 0.0, 1.0)

    def _foot_points(self, p, q0):
        """(q, s, |p - q|) for the foot points q of p that Newton reaches from
        q0 (m, 2) under (q - p) x grad phi(q) = 0; on open paths a foot point
        past the chord's end becomes that end.
        """
        px, py = p

        def side(q, g):
            h = self.hess(q)
            dx, dy = q[:, 0] - px, q[:, 1] - py
            gx, gy = g[:, 0], g[:, 1]
            return (dx * gy - dy * gx,
                    gy + dx * h[:, 1, 0] - dy * h[:, 0, 0],
                    dx * h[:, 1, 1] - gx - dy * h[:, 0, 1])

        q = self._newton_on_curve(q0, side)
        s = self._curve_s(q)
        if not self.closed:
            end = (s == 0.0) | (s == 1.0)
            if end.any():
                q[end] = self.point(s[end])
        return q, s, np.hypot(q[:, 0] - px, q[:, 1] - py)

    def distance_many(self, pts):
        """Distances from many points, at boundary-sampling resolution.

        Parametric paths answer with the nearest of the 4096 boundary samples
        (error at most about half a sample spacing); other paths fall back to
        the rasterized contour.  Loop-friendly: no per-point refinement.
        """
        pts = _pts(pts)
        if self.has_parametric:
            return self.nearest_boundary(pts)[0]
        contour = self._contour_pts
        cx, cy = np.ascontiguousarray(contour.T)
        out = np.empty(pts.shape[:-1])
        flat = pts.reshape(-1, 2)
        res = out.reshape(-1)
        chunk = max(1, CONTOUR_BLOCK // max(len(contour), 1))
        for i in range(0, len(flat), chunk):
            block = flat[i:i + chunk]
            d2 = _sq_dist(block[:, 0, None], block[:, 1, None], cx, cy)
            res[i:i + chunk] = np.sqrt(d2.min(axis=1))
        return out

    def distance(self, point):
        """Euclidean distance from one point to the path.

        Parametric paths: the distance to the foot point found by Newton
        from the nearest boundary sample.  Otherwise the rasterized zero
        contour is used, accurate to roughly one raster cell.
        """
        p = _pts(point)
        if self.has_parametric:
            _, k = self.nearest_boundary(p)
            return float(self._foot_points(p, self._boundary_pts[k][None])[2][0])
        return float(self.distance_many(p))

    @cached_property
    def _contour_pts(self):
        region = getattr(self, "region", PADDED_WORKSPACE)
        xs = np.linspace(region.xmin, region.xmax, CONTOUR_GRID)
        ys = np.linspace(region.ymin, region.ymax, CONTOUR_GRID)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        nodes = np.stack([gx, gy], axis=-1)
        ph = self.phi(nodes)
        segs = []
        for a, b in (
            (nodes[:-1, :, :], nodes[1:, :, :]),
            (nodes[:, :-1, :], nodes[:, 1:, :]),
        ):
            fa = self.phi(a)
            fb = self.phi(b)
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

    def phi(self, p):
        p = _pts(p)
        return self.a * p[..., 0] + self.b * p[..., 1] + self.c

    def grad(self, p):
        p = _pts(p)
        g = np.empty_like(p)
        g[..., 0] = self.a
        g[..., 1] = self.b
        return g

    def hess(self, p):
        p = _pts(p)
        return np.zeros(p.shape[:-1] + (2, 2))

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

    def phi(self, p):
        p = _pts(p)
        dx, dy = p[..., 0] - self.x0, p[..., 1] - self.y0
        return self.k_s * (dx * dx + dy * dy - self.radius**2)

    def grad(self, p):
        p = _pts(p)
        g = np.empty_like(p)
        g[..., 0] = 2.0 * self.k_s * (p[..., 0] - self.x0)
        g[..., 1] = 2.0 * self.k_s * (p[..., 1] - self.y0)
        return g

    def hess(self, p):
        p = _pts(p)
        h = np.zeros(p.shape[:-1] + (2, 2))
        h[..., 0, 0] = 2.0 * self.k_s
        h[..., 1, 1] = 2.0 * self.k_s
        return h

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

    def phi(self, pt):
        pt = _pts(pt)
        dx, dy = pt[..., 0] - self.x0, pt[..., 1] - self.y0
        return self.k_s * (dx * dx / self.p**2 + dy * dy / self.q**2 - self.R**2)

    def grad(self, pt):
        pt = _pts(pt)
        g = np.empty_like(pt)
        g[..., 0] = 2.0 * self.k_s * (pt[..., 0] - self.x0) / self.p**2
        g[..., 1] = 2.0 * self.k_s * (pt[..., 1] - self.y0) / self.q**2
        return g

    def hess(self, pt):
        pt = _pts(pt)
        h = np.zeros(pt.shape[:-1] + (2, 2))
        h[..., 0, 0] = 2.0 * self.k_s / self.p**2
        h[..., 1, 1] = 2.0 * self.k_s / self.q**2
        return h

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

    def phi(self, pt):
        pt = _pts(pt)
        dx, dy = pt[..., 0] - self.x0, pt[..., 1] - self.y0
        rho2 = dx * dx + dy * dy
        return self.k_s * (
            rho2 * rho2 - 2.0 * self.q**2 * (dx * dx - dy * dy) - self.p**4 + self.q**4
        )

    def grad(self, pt):
        pt = _pts(pt)
        dx, dy = pt[..., 0] - self.x0, pt[..., 1] - self.y0
        rho2 = dx * dx + dy * dy
        g = np.empty_like(pt)
        g[..., 0] = 4.0 * self.k_s * dx * (rho2 - self.q**2)
        g[..., 1] = 4.0 * self.k_s * dy * (rho2 + self.q**2)
        return g

    def hess(self, pt):
        pt = _pts(pt)
        dx, dy = pt[..., 0] - self.x0, pt[..., 1] - self.y0
        rho2 = dx * dx + dy * dy
        h = np.empty(pt.shape[:-1] + (2, 2))
        h[..., 0, 0] = 4.0 * self.k_s * (rho2 - self.q**2 + 2.0 * dx * dx)
        h[..., 1, 1] = 4.0 * self.k_s * (rho2 + self.q**2 + 2.0 * dy * dy)
        h[..., 0, 1] = 8.0 * self.k_s * dx * dy
        h[..., 1, 0] = h[..., 0, 1]
        return h

    def point(self, s):
        th = -TWO_PI * np.asarray(s, dtype=float)
        c2 = np.cos(2.0 * th)
        s2 = np.sin(2.0 * th)
        r = np.sqrt(self.q**2 * c2 + np.sqrt(self.p**4 - self.q**4 * s2 * s2))
        return np.stack([self.x0 + r * np.cos(th), self.y0 + r * np.sin(th)], axis=-1)


@dataclass(frozen=True)
class PolynomialPath(ImplicitPath):
    """phi = sum c * x^i * y^j over terms ((i, j, c), ...).

    Gradient and Hessian coefficient tables are built once at construction by
    term-wise differentiation, so all derivatives are exact.  No parametric
    form; distance queries fall back to the rasterized zero contour.
    """

    terms: tuple
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
        dx = self._diff(self.terms, 0)
        dy = self._diff(self.terms, 1)
        return {
            "phi": self.terms,
            "dx": dx,
            "dy": dy,
            "dxx": self._diff(dx, 0),
            "dxy": self._diff(dx, 1),
            "dyy": self._diff(dy, 1),
        }

    @staticmethod
    def _eval_table(terms, x, y):
        acc = np.zeros(np.broadcast(x, y).shape)
        for i, j, c in terms:
            acc += c * x**i * y**j
        return acc

    def phi(self, pt):
        pt = _pts(pt)
        return self._eval_table(self._tables["phi"], pt[..., 0], pt[..., 1])

    def grad(self, pt):
        pt = _pts(pt)
        x, y = pt[..., 0], pt[..., 1]
        return np.stack(
            [self._eval_table(self._tables["dx"], x, y),
             self._eval_table(self._tables["dy"], x, y)],
            axis=-1,
        )

    def hess(self, pt):
        pt = _pts(pt)
        x, y = pt[..., 0], pt[..., 1]
        hxx = self._eval_table(self._tables["dxx"], x, y)
        hxy = self._eval_table(self._tables["dxy"], x, y)
        hyy = self._eval_table(self._tables["dyy"], x, y)
        h = np.empty(pt.shape[:-1] + (2, 2))
        h[..., 0, 0] = hxx
        h[..., 0, 1] = hxy
        h[..., 1, 0] = hxy
        h[..., 1, 1] = hyy
        return h


_KINDS = {
    "line": (LinePath, ("a", "b", "c")),
    "circle": (CirclePath, ("x0", "y0", "radius", "k_s")),
    "ellipse": (EllipsePath, ("x0", "y0", "R", "p", "q", "k_s")),
    "cassini": (CassiniPath, ("x0", "y0", "p", "q", "k_s")),
    "polynomial": (PolynomialPath, ("terms",)),
}


def make_path(kind, params):
    """Construct a path from a kind name and a parameter mapping."""
    key = str(kind).lower()
    if key not in _KINDS:
        raise PathError(f"unknown path kind {kind!r}; choose from {sorted(_KINDS)}")
    cls, names = _KINDS[key]
    unknown = set(params) - set(names) - {"region"}
    if unknown:
        raise PathError(f"unknown parameter(s) {sorted(unknown)} for {key}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise PathError(f"bad parameters for {key}: {exc}") from None


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

    g = path.grad(p)
    hh = path.hess(p)
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


_ERROR_MAPS = {
    "identity": IdentityMap,
    "arctan_power": ArctanPower,
    "rational_sign_power": RationalSignPower,
}


def make_error_map(kind, p=None):
    key = str(kind).lower()
    if key not in _ERROR_MAPS:
        raise ValueError(
            f"unknown error map {kind!r}; choose from {sorted(_ERROR_MAPS)}"
        )
    if key == "identity":
        if p is not None:
            raise ValueError("identity error map takes no power")
        return IdentityMap()
    return _ERROR_MAPS[key](p=1.0 if p is None else float(p))
