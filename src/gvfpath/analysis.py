"""Critical-point search and classification, invariant set, viability bounds.

Critical points are zeros of the gradient of phi.  At a critical point the
linearization of the raw field has Jacobian J = (E - k_n e I) H with

    tr J  = -k_n e tr H,      det J = (1 + k_n^2 e^2) det H,

so the sign pattern of the eigenvalues of e*H decides the fate of nearby
integral curves: e*H negative definite makes the point repulsive (no curve
converges to it), exactly one negative eigenvalue leaves a stable set of
zero measure, and anything else can potentially trap trajectories.

The invariant set for the closed loop is

    M = { (x, y, alpha) : n != 0, |delta| < arctan(k_n e_c), |e| < e_c }

with e_c the minimum of |e| over critical points (+inf when there are none).
Runs starting in M satisfy |e(t)| <= max(|e(0)|, |tan delta(0)| / k_n).

The viability report bounds the distance from a start to {|e| >= e_c} inside
the path's working region from below, by a Lipschitz constant of e there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import field as gvf

# The critical-point search seeds Newton from a GRID_N x GRID_N lattice and
# merges roots closer than MERGE_RADIUS (Px).
GRID_N = 64
NEWTON_GRAD_TOL = 1e-12
NEWTON_MAX_ITER = 60
MERGE_RADIUS = 1e-6
# A Hessian eigenvalue is treated as zero below either threshold: a fraction
# of the other eigenvalue, or an absolute floor (catches H ~ 0 entirely, as
# at the flat root of x^4 + y^4).
SINGULAR_EIG_RATIO = 1e-9
SINGULAR_EIG_FLOOR = 1e-12


class Classification(enum.Enum):
    REPULSIVE = "repulsive"
    SADDLE_ZERO_MEASURE = "saddle_zero_measure"
    POTENTIAL_TRAP = "potential_trap"


@dataclass
class CriticalPoint:
    location: np.ndarray
    e_value: float
    hessian_eigs: tuple
    classification: Classification
    trace_j: float
    det_j: float


@dataclass(frozen=True)
class CriticalPointSearch:
    """Converged gradient zeros: classifiable locations plus any roots where
    the Hessian is singular (reported, never dropped).

    A path shares one search with every caller, so it cannot be changed:
    each field is a tuple of read-only copies of the points given.
    """

    locations: tuple
    unclassifiable: tuple

    def __post_init__(self):
        for name in ("locations", "unclassifiable"):
            points = tuple(np.array(p, dtype=float) for p in getattr(self, name))
            for p in points:
                p.flags.writeable = False
            object.__setattr__(self, name, points)

    @property
    def points(self):
        """The whole critical set, locations then unclassifiable roots, as
        an (n, 2) array."""
        return np.array(self.locations + self.unclassifiable,
                        dtype=float).reshape(-1, 2)


def find_critical_points(path, region=None):
    """Newton search for gradient zeros from a grid of seeds.

    Seeds a 64 x 64 lattice over the region (default: the path's working
    region), iterates Newton steps with the Hessian as Jacobian, keeps roots
    with |grad| < 1e-12, merges duplicates within 1e-6 Px, and sorts
    lexicographically.
    """
    if region is None:
        region = path.region
    pts = region.grid(GRID_N, GRID_N).astype(float)

    for _ in range(NEWTON_MAX_ITER):
        _, gx, gy, hxx, hxy, hyy = path.jet(pts, 2)
        det = hxx * hyy - hxy * hxy
        ok = np.isfinite(det) & (np.abs(det) > 0.0) & np.isfinite(gx) & np.isfinite(gy)
        inv_det = np.where(ok, det, 1.0)
        dx = (hyy * gx - hxy * gy) / inv_det
        dy = (-hxy * gx + hxx * gy) / inv_det
        pts = pts - np.stack([np.where(ok, dx, 0.0), np.where(ok, dy, 0.0)], axis=-1)

    _, gx, gy = path.jet(pts, 1)
    good = np.isfinite(pts).all(axis=1)
    good &= np.hypot(gx, gy) < NEWTON_GRAD_TOL
    roots = pts[good]

    merged = []
    for p in roots:
        for q in merged:
            if np.hypot(p[0] - q[0], p[1] - q[1]) < MERGE_RADIUS:
                break
        else:
            merged.append(p)
    merged.sort(key=lambda p: (p[0], p[1]))

    locations, unclassifiable = [], []
    for p in merged:
        eigs = np.linalg.eigvalsh(path.hess(p))
        cutoff = max(SINGULAR_EIG_RATIO * abs(eigs).max(), SINGULAR_EIG_FLOOR)
        if abs(eigs).min() <= cutoff:
            unclassifiable.append(np.asarray(p))
        else:
            locations.append(np.asarray(p))
    return CriticalPointSearch(locations=locations, unclassifiable=unclassifiable)


def classify_critical_point(path, errmap, k_n, location):
    """Classification of a verified critical point from the signs of e*H."""
    loc = np.asarray(location, dtype=float)
    ph, gx, gy, hxx, hxy, hyy = path.jet(loc, 2)
    if np.hypot(gx, gy) >= 1e-9:
        raise ValueError(
            f"({loc[0]}, {loc[1]}) is not a critical point: |grad| = "
            f"{np.hypot(gx, gy):.3g}"
        )
    e = float(errmap.psi(ph))
    h = np.array([[hxx, hxy], [hxy, hyy]], dtype=float)
    eigs = np.linalg.eigvalsh(h)
    eh_eigs = np.sort(e * eigs)
    neg = int(np.sum(eh_eigs < 0.0))
    if neg == 2:
        cls = Classification.REPULSIVE
    elif neg == 1:
        cls = Classification.SADDLE_ZERO_MEASURE
    else:
        cls = Classification.POTENTIAL_TRAP

    tr_j = -k_n * e * float(np.trace(h))
    det_j = (1.0 + k_n**2 * e**2) * float(np.linalg.det(h))
    # Linearization sign identities behind the classification.
    if cls is Classification.REPULSIVE and not (tr_j > 0.0 and det_j > 0.0):
        raise RuntimeError(f"repulsive point violates tr J > 0, det J > 0 at {loc}")
    if cls is Classification.SADDLE_ZERO_MEASURE and not det_j < 0.0:
        raise RuntimeError(f"saddle point violates det J < 0 at {loc}")
    return CriticalPoint(
        location=loc,
        e_value=e,
        hessian_eigs=(float(eigs[0]), float(eigs[1])),
        classification=cls,
        trace_j=tr_j,
        det_j=det_j,
    )


def critical_distance(pts, critical_points):
    """Distance from each of the points (m, 2) to the nearest of the critical
    points (n, 2); +inf when there are none."""
    pts = np.asarray(pts, dtype=float)
    crit = np.asarray(critical_points, dtype=float).reshape(-1, 2)
    # (n, m) differences, so the min runs over n contiguous rows.
    dx, dy = pts[:, 0] - crit[:, :1], pts[:, 1] - crit[:, 1:]
    return np.sqrt(np.min(dx * dx + dy * dy, axis=0, initial=math.inf))


def critical_error_threshold(path, errmap, critical_points):
    """e_c = min |e| over the critical set; +inf when the set is empty."""
    pts = np.asarray(critical_points, dtype=float).reshape(-1, 2)
    return float(np.min(np.abs(errmap.psi(path.phi(pts))), initial=math.inf))


@dataclass
class ViabilityReport:
    d0_lower_bound: float
    rhs_viability_1: float
    rhs_viability_2: float
    guaranteed: bool


# Poses sampled inside M keep |e| and |delta| below this fraction of their
# bounds.  Sampling gives up after SAMPLE_EMPTY_ROUNDS rounds in a row that
# keep no pose, which at n = 1 is 65,536 draws.
SAMPLE_MARGIN = 0.98
SAMPLE_EMPTY_ROUNDS = 16384


def viability_check(path, errmap, pose0, e_c, params, lipschitz_c=None):
    """Finite-time capture test of the invariant set from an initial pose.

    d0 = (e_c - |e(pose0)|) / L is a lower bound on the distance from pose0,
    which must lie in the path's (convex) working region, to {|e| >= e_c}
    within that region, where e is L-Lipschitz: L is lipschitz_c when given,
    else errmap.psi_prime_sup() * path.grad_sup().  The capture bounds are

        rhs_1 = (u_r/k_delta) ln(|delta(0)| / arctan(k_n e_c))   (0 if already
                inside the heading band)
        rhs_2 = (u_r/k_delta) ln(pi / arctan(k_n e_c))

    and the convergence guarantee holds when d0 > rhs_1.
    """
    p0 = np.array([pose0.x, pose0.y])
    if not path.region.contains(p0):
        raise ValueError(f"pose0 lies outside the working region {path.region}")
    e0 = float(errmap.psi(path.phi(p0)))
    if not abs(e0) < e_c:
        raise ValueError(f"|e(pose0)| = {abs(e0):.6g} must be below e_c = {e_c:.6g}")

    if lipschitz_c is None:
        lipschitz_c = errmap.psi_prime_sup() * path.grad_sup()
    elif not lipschitz_c > 0.0:
        raise ValueError("lipschitz_c must be positive")
    d0 = (e_c - abs(e0)) / lipschitz_c

    st = gvf.steering_arrays(path, errmap, params, pose0.x, pose0.y, pose0.alpha)
    if not bool(st["regular"]):
        raise ValueError("pose0 sits at a degenerate point")
    delta0 = float(st["delta"])
    band = math.atan(params.k_n * e_c)
    ratio = abs(delta0) / band
    rhs1 = (params.u_r / params.k_delta) * math.log(ratio) if ratio > 1.0 else 0.0
    rhs2 = (params.u_r / params.k_delta) * math.log(math.pi / band)
    return ViabilityReport(
        d0_lower_bound=float(d0),
        rhs_viability_1=float(rhs1),
        rhs_viability_2=float(rhs2),
        guaranteed=bool(d0 > rhs1),
    )


def sample_invariant_set(path, errmap, k_n, e_c, n, rng):
    """n poses sampled strictly inside M, as an (n, 3) array.

    Positions are drawn uniformly over the path's working region subject to
    |e| < 0.98 e_c and regularity, 4n per round; headings are composed from
    a heading error drawn uniformly in (-0.98 band, 0.98 band).  e_c = inf
    (no critical points) is valid.  Raises ValueError when
    SAMPLE_EMPTY_ROUNDS rounds in a row keep no position, as when M covers
    almost none of the region.
    """
    if not e_c > 0.0:
        raise ValueError(f"e_c must be positive, got {e_c!r}")
    if not 0.0 < k_n < math.inf:
        raise ValueError(f"k_n must be finite and positive, got {k_n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")
    band = math.atan(k_n * e_c)
    out = np.empty((0, 3))
    empty = 0
    while len(out) < n:
        if empty == SAMPLE_EMPTY_ROUNDS:
            raise ValueError(f"no pose inside M (e_c = {e_c!r}, k_n = {k_n!r}) "
                             f"in {empty} rounds of {4 * n} draws")
        pts = path.region.sample(rng, 4 * n)
        fs = gvf.field_arrays(path, errmap, k_n, pts)
        keep = fs["regular"] & (np.abs(fs["e"]) < SAMPLE_MARGIN * e_c)
        pts, m_d = pts[keep], fs["m_d"][keep]
        empty = 0 if len(pts) else empty + 1
        delta = rng.uniform(-SAMPLE_MARGIN * band, SAMPLE_MARGIN * band,
                            size=len(pts))
        alpha = gvf.compose_heading(m_d, delta)
        out = np.vstack([out, np.column_stack([pts, alpha])])
    return out[:n]
