"""Independent reference values for the benchmark's correctness checks.

Nothing here imports gvfpath.  Path parameters are read straight from the
bundled scenario files with configparser, and every quantity is recomputed
from the analytic form of the curve:

* the distance to the curve, as the minimum over a dense sampling of its
  parametric form;
* the critical points (zeros of grad phi): the ellipse centre, and for the
  Cassini oval the two loci (x0 +- q, y0) and the centre;
* the guiding direction m_d = v / |v| with v = tau - k_n e n, n = grad phi,
  tau = (n_y, -n_x) and e = phi (identity error map).
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np

# Dense sampling of the parametric form used as the distance reference; the
# chord between neighbours is below 0.04 Px on the bundled curves.
DENSE_SAMPLES = 1 << 16
# Sampling density of the program's own boundary cache; one chord of it is
# the tolerance of the dist_path column.
PROGRAM_SAMPLES = 4096


def read_config(cfg_file):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(Path(cfg_file).read_text(encoding="utf-8"))
    return cp


def region(cp, section):
    xmin, xmax, ymin, ymax = (float(v) for v in cp.get(section, "region").split())
    return xmin, xmax, ymin, ymax


def grid(box, nx, ny):
    """nx*ny lattice nodes spanning box inclusively, x-major order."""
    xmin, xmax, ymin, ymax = box
    xs = xmin + (xmax - xmin) * np.arange(nx) / (nx - 1)
    ys = ymin + (ymax - ymin) * np.arange(ny) / (ny - 1)
    return np.array([(x, y) for x in xs for y in ys], dtype=float)


class Curve:
    """Ellipse or Cassini oval given by the [path] section of a config."""

    def __init__(self, cp):
        sec = cp["path"]
        self.kind = sec["kind"].strip()
        if self.kind not in ("ellipse", "cassini"):
            raise ValueError(f"no oracle for path kind {self.kind!r}")
        self.x0, self.y0 = float(sec["x0"]), float(sec["y0"])
        self.p, self.q = float(sec["p"]), float(sec["q"])
        self.k_s = float(sec["k_s"])
        self.R = float(sec["R"]) if self.kind == "ellipse" else None
        self._dense = None

    def point(self, theta):
        th = np.asarray(theta, dtype=float)
        if self.kind == "ellipse":
            x = self.x0 + self.p * self.R * np.cos(th)
            y = self.y0 + self.q * self.R * np.sin(th)
        else:
            s2 = np.sin(2.0 * th)
            r = np.sqrt(self.q**2 * np.cos(2.0 * th)
                        + np.sqrt(self.p**4 - self.q**4 * s2 * s2))
            x = self.x0 + r * np.cos(th)
            y = self.y0 + r * np.sin(th)
        return np.stack([x, y], axis=-1)

    def samples(self, n):
        return self.point(2.0 * math.pi * np.arange(n) / n)

    def phi_grad(self, pts):
        dx = pts[:, 0] - self.x0
        dy = pts[:, 1] - self.y0
        k = self.k_s
        if self.kind == "ellipse":
            a2, b2 = self.p**2, self.q**2
            phi = k * (dx * dx / a2 + dy * dy / b2 - self.R**2)
            g = np.stack([2.0 * k * dx / a2, 2.0 * k * dy / b2], axis=-1)
        else:
            q2 = self.q**2
            rho2 = dx * dx + dy * dy
            phi = k * (rho2 * rho2 - 2.0 * q2 * (dx * dx - dy * dy)
                       - self.p**4 + q2 * q2)
            g = np.stack([4.0 * k * dx * (rho2 - q2),
                          4.0 * k * dy * (rho2 + q2)], axis=-1)
        return phi, g

    def critical_points(self):
        if self.kind == "ellipse":
            return np.array([[self.x0, self.y0]])
        return np.array([[self.x0 - self.q, self.y0], [self.x0, self.y0],
                         [self.x0 + self.q, self.y0]])

    def distance(self, pts, chunk=32):
        """Distance from each point to the nearest dense sample of the curve."""
        if self._dense is None:
            self._dense = self.samples(DENSE_SAMPLES)
        dense = self._dense
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out = np.empty(len(pts))
        for i in range(0, len(pts), chunk):
            blk = pts[i:i + chunk]
            d2 = ((blk[:, None, 0] - dense[:, 0]) ** 2
                  + (blk[:, None, 1] - dense[:, 1]) ** 2)
            out[i:i + chunk] = np.sqrt(d2.min(axis=1))
        return out

    def program_spacing(self):
        """Largest chord between neighbouring samples of the program's cache."""
        s = self.samples(PROGRAM_SAMPLES)
        return float(np.max(np.hypot(*(np.roll(s, -1, axis=0) - s).T)))

    def field_direction(self, k_n, pts):
        """(m_d, e, |n|) at pts from the analytic gradient."""
        e, n = self.phi_grad(pts)
        tau = np.stack([n[:, 1], -n[:, 0]], axis=-1)
        v = tau - (k_n * e)[:, None] * n
        m_d = v / np.hypot(v[:, 0], v[:, 1])[:, None]
        return m_d, e, np.hypot(n[:, 0], n[:, 1])
