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
path produces every number.  Both work on x and y columns from one
`path.jet_xy` call, with the field formula in `_field_xy` alone, and build
(..., 2) arrays only for what they return.  Where every row is regular the
NaN masking is skipped: `np.where` with an all-True mask returns its first
operand, so the bits are the same.
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


def _field_xy(path, errmap, k_n, x, y, order=1):
    """path.jet_xy(x, y, order), e and the columns vx, vy of the
    unnormalized field v = tau - k_n e n at the points (x, y)."""
    jet = path.jet_xy(x, y, order)
    ph, nx, ny = jet[:3]
    e = errmap.psi(ph)
    ke = k_n * e
    return jet, e, ny - ke * nx, -nx - ke * ny


def _grad_norm(ph, nx, ny):
    """|n| in phi's shape: a line's gradient comes as two floats."""
    return np.hypot(nx, ny, out=np.empty(np.shape(ph)))


def _direction(ph, nx, ny, vx, vy, eps):
    """|n|, the regular mask |n| > eps, |v|, |v| where regular (1 elsewhere)
    and the columns of m_d = v / |v| (NaN where not regular)."""
    n_norm = _grad_norm(ph, nx, ny)
    regular = n_norm > eps
    v_norm = np.hypot(vx, vy)
    if regular.all():
        # np.where with an all-True mask returns its first operand.
        return n_norm, regular, v_norm, v_norm, vx / v_norm, vy / v_norm
    safe = np.where(regular, v_norm, 1.0)
    return (n_norm, regular, v_norm, safe, np.where(regular, vx / safe, np.nan),
            np.where(regular, vy / safe, np.nan))


def _pairs(shape, x, y):
    """A new (*shape, 2) array with columns x and y."""
    out = np.empty(shape + (2,))
    out[..., 0] = x
    out[..., 1] = y
    return out


def field_arrays(path, errmap, k_n, pts, eps=DEGENERACY_EPS):
    """Vectorized field quantities at pts (..., 2).

    Returns dict with e, psi_prime, n, n_norm, tau, v, v_norm, m_d, regular;
    m_d rows are NaN where the field is degenerate.
    """
    pts = np.asarray(pts, dtype=float)
    (ph, nx, ny), e, vx, vy = _field_xy(path, errmap, k_n, pts[..., 0], pts[..., 1])
    n_norm, regular, v_norm, _, mdx, mdy = _direction(ph, nx, ny, vx, vy, eps)
    shape = np.shape(ph)
    return {
        "phi": ph,
        "e": e,
        "psi_prime": errmap.psi_prime(ph),
        "n": _pairs(shape, nx, ny),
        "n_norm": n_norm,
        "tau": _pairs(shape, ny, -nx),
        "v": _pairs(shape, vx, vy),
        "v_norm": v_norm,
        "m_d": _pairs(shape, mdx, mdy),
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
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    (ph, nx, ny, hxx, hxy, hyy), e, vx, vy = _field_xy(path, errmap, params.k_n,
                                                       x, y, order=2)
    n_norm, regular, _, safe, mdx, mdy = _direction(ph, nx, ny, vx, vy,
                                                    params.degeneracy_eps)
    pp = errmap.psi_prime(ph)

    ca, sa = np.cos(alpha), np.sin(alpha)
    e_dot = params.u_r * pp * (nx * ca + ny * sa)
    hm_x = hxx * ca + hxy * sa
    hm_y = hxy * ca + hyy * sa
    ke = params.k_n * e
    vd_x = params.u_r * (hm_y - ke * hm_x) - params.k_n * e_dot * nx
    vd_y = params.u_r * (-hm_x - ke * hm_y) - params.k_n * e_dot * ny

    v_dot_vd = vx * vd_x + vy * vd_y
    safe3 = safe**3
    mdd_x = vd_x / safe - vx * v_dot_vd / safe3
    mdd_y = vd_y / safe - vy * v_dot_vd / safe3
    omega_d = -(mdd_x * mdy - mdd_y * mdx)

    delta = _heading_delta(ca, sa, mdx, mdy)
    omega = omega_d - params.k_delta * delta
    if not regular.all():
        omega = np.where(regular, omega, 0.0)
    return {
        "e": e,
        "n_norm": n_norm,
        "m_d": _pairs(np.shape(mdx), mdx, mdy),
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
