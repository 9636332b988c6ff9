"""Guiding vector field: construction, rotation rate, heading error.

The unnormalized field at a point is v = tau - k_n * e * n, where n is the
gradient of phi, tau = E n its clockwise-rotated tangent, and e the tracking
error.  Wherever n does not vanish the guiding direction is m_d = v / |v|.

The field's rotation rate along the robot's motion is obtained by the chain

    e_dot  = u_r * psi'(phi) * n . m(alpha)
    v_dot  = u_r * (E - k_n e I) H m(alpha) - k_n * e_dot * n
    md_dot = (I/|v| - v v^T/|v|^3) v_dot
    omega_d = -md_dot . E m_d

which satisfies md_dot = -omega_d E m_d; with analytic Hessians the chain is
exact, and the tests check it against finite differences of the bearing.

All public functions are pure; `field_arrays` / `steering_arrays` are the
vectorized kernels behind every field and steering value, so a single code
path produces every number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import require_positive, wrap_angle


# The field is degenerate where |grad phi| is at or below this.
DEGENERACY_EPS = 1e-9


@dataclass(frozen=True)
class GvfParams:
    """Gains and speed of the guiding-field steering law."""

    k_n: float
    k_delta: float
    u_r: float
    degeneracy_eps: float = DEGENERACY_EPS

    def __post_init__(self):
        require_positive(k_n=self.k_n, k_delta=self.k_delta, u_r=self.u_r,
                         degeneracy_eps=self.degeneracy_eps)


def _field_v(path, errmap, k_n, pts, order=1):
    """path.jet(pts, order), e, n, tau and the unnormalized field
    v = tau - k_n e n at pts."""
    jet = path.jet(pts, order)
    ph, gx, gy = jet[:3]
    e = errmap.psi(ph)
    n = np.empty(np.shape(ph) + (2,))
    n[..., 0] = gx
    n[..., 1] = gy
    tau = np.empty_like(n)
    tau[..., 0] = gy
    tau[..., 1] = -gx
    return jet, e, n, tau, tau - (k_n * e)[..., None] * n


def _direction(n, v, eps):
    """|n|, the regular mask |n| > eps, |v|, |v| where regular (1 elsewhere)
    and the guiding direction m_d = v / |v| (NaN rows where not regular)."""
    n_norm = np.hypot(n[..., 0], n[..., 1])
    regular = n_norm > eps
    v_norm = np.hypot(v[..., 0], v[..., 1])
    safe = np.where(regular, v_norm, 1.0)
    m_d = np.where(regular[..., None], v / safe[..., None], np.nan)
    return n_norm, regular, v_norm, safe, m_d


def field_arrays(path, errmap, k_n, pts, eps=DEGENERACY_EPS):
    """Vectorized field quantities at pts (..., 2).

    Returns dict with e, psi_prime, n, n_norm, tau, v, v_norm, m_d, regular;
    m_d rows are NaN where the field is degenerate.
    """
    pts = np.asarray(pts, dtype=float)
    (ph, _, _), e, n, tau, v = _field_v(path, errmap, k_n, pts)
    n_norm, regular, v_norm, _, m_d = _direction(n, v, eps)
    return {
        "phi": ph,
        "e": e,
        "psi_prime": errmap.psi_prime(ph),
        "n": n,
        "n_norm": n_norm,
        "tau": tau,
        "v": v,
        "v_norm": v_norm,
        "m_d": m_d,
        "regular": regular,
    }


def _heading_delta(ca, sa, mdx, mdy):
    """delta = atan2(-m.E m_d, m.m_d) for m = (ca, sa) and m_d = (mdx, mdy).

    The +0.0 turns a signed zero into +0 so exact antipodal alignment lands
    on +pi, never -pi.
    """
    sin_d = -(ca * mdy - sa * mdx) + 0.0
    cos_d = ca * mdx + sa * mdy
    return np.arctan2(sin_d, cos_d)


def steering_arrays(path, errmap, params, x, y, alpha):
    """Vectorized rotation rate, heading error and turn command.

    Returns dict with e, n_norm, m_d, delta, omega_d, omega, regular.  Rows
    flagged non-regular carry NaN in delta/omega_d and omega = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    pts = np.empty(np.broadcast(x, y).shape + (2,))
    pts[..., 0] = x
    pts[..., 1] = y
    (ph, nx, ny, hxx, hxy, hyy), e, n, _, v = _field_v(path, errmap, params.k_n,
                                                       pts, order=2)
    n_norm, regular, _, safe, m_d = _direction(n, v, params.degeneracy_eps)
    pp = errmap.psi_prime(ph)

    ca, sa = np.cos(alpha), np.sin(alpha)
    e_dot = params.u_r * pp * (nx * ca + ny * sa)
    hm_x = hxx * ca + hxy * sa
    hm_y = hxy * ca + hyy * sa
    ke = params.k_n * e
    vd_x = params.u_r * (hm_y - ke * hm_x) - params.k_n * e_dot * nx
    vd_y = params.u_r * (-hm_x - ke * hm_y) - params.k_n * e_dot * ny

    vx, vy = v[..., 0], v[..., 1]
    v_dot_vd = vx * vd_x + vy * vd_y
    safe3 = safe**3
    mdd_x = vd_x / safe - vx * v_dot_vd / safe3
    mdd_y = vd_y / safe - vy * v_dot_vd / safe3
    mdx, mdy = m_d[..., 0], m_d[..., 1]
    omega_d = -(mdd_x * mdy - mdd_y * mdx)

    delta = _heading_delta(ca, sa, mdx, mdy)
    omega = omega_d - params.k_delta * delta
    omega = np.where(regular, omega, 0.0)
    return {
        "e": e,
        "n_norm": n_norm,
        "m_d": m_d,
        "delta": delta,
        "omega_d": omega_d,
        "omega": omega,
        "regular": regular,
    }


def heading_error(m_d, alpha):
    """Directed angle delta in (-pi, pi] with m(alpha) = cos d m_d - sin d E m_d."""
    m_d = np.asarray(m_d, dtype=float)
    norm = math.hypot(m_d[0], m_d[1])
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"m_d must be a unit vector, |m_d| = {norm}")
    return float(_heading_delta(np.cos(alpha), np.sin(alpha), m_d[0], m_d[1]))


def compose_heading(m_d, delta):
    """Heading angle alpha such that heading_error(m_d, alpha) == delta."""
    m_d = np.asarray(m_d, dtype=float)
    cd, sd = np.cos(delta), np.sin(delta)
    mx = cd * m_d[..., 0] - sd * m_d[..., 1]
    my = cd * m_d[..., 1] + sd * m_d[..., 0]
    return wrap_angle(np.arctan2(my, mx))
