"""Shared numeric helpers: angle wrapping, working regions, scalar
bisection, parameter checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def require_positive(**values):
    """Raise ValueError naming the first value that is not finite and > 0.

    The test is `not 0 < v < inf`, so NaN fails it too.
    """
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def wrap_angle(a):
    """Wrap an angle (scalar or array) to (-pi, pi]; +pi maps to +pi.

    Values already inside the interval pass through bitwise unchanged, so
    wrapping is idempotent.
    """
    arr = np.asarray(a, dtype=float)
    out = np.where(
        (arr > math.pi) | (arr <= -math.pi),
        math.pi - np.remainder(math.pi - arr, TWO_PI),
        arr,
    )
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Region:
    """Axis-aligned working box, in the same length units as the paths (Px)."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError(f"degenerate region {self}")

    @property
    def center(self):
        return 0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax)

    @property
    def width(self):
        return self.xmax - self.xmin

    @property
    def height(self):
        return self.ymax - self.ymin

    def padded(self, factor=2.0):
        """Region grown about its center by the given factor per axis."""
        cx, cy = self.center
        hw, hh = 0.5 * factor * self.width, 0.5 * factor * self.height
        return Region(cx - hw, cx + hw, cy - hh, cy + hh)

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (x >= self.xmin) & (x <= self.xmax) & (y >= self.ymin) & (y <= self.ymax)

    def sample(self, rng, n):
        """n uniform points in the region, shape (n, 2)."""
        x = rng.uniform(self.xmin, self.xmax, size=n)
        y = rng.uniform(self.ymin, self.ymax, size=n)
        return np.stack([x, y], axis=-1)

    def grid(self, nx, ny):
        """nx*ny nodes spanning the region inclusively, shape (nx*ny, 2)."""
        xs = np.linspace(self.xmin, self.xmax, nx)
        ys = np.linspace(self.ymin, self.ymax, ny)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=-1)


# The experiments live on a 1280x720 Px camera image; working box is that
# image padded by a factor of two about its center.
WORKSPACE = Region(0.0, 1280.0, 0.0, 720.0)
PADDED_WORKSPACE = WORKSPACE.padded(2.0)

BISECT_ITERS = 60


def bisect_root(f, a, b):
    """Bisection root of f on [a, b] assuming a sign change; returns midpoint."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("no sign change on bracket")
    for _ in range(BISECT_ITERS):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
