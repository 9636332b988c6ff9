import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvfpath import (
    ERROR_MAPS,
    PATH_KINDS,
    ArctanPower,
    CassiniPath,
    CirclePath,
    ContourNotFoundError,
    EllipsePath,
    IdentityMap,
    LinePath,
    PathError,
    PolynomialPath,
    RationalSignPower,
    Region,
    check_derivatives,
)
from gvfpath.paths import (BOUNDARY_SAMPLES, COARSE_STRIDE, CONTOUR_BLOCK,
                           WITNESS_HALF_WIDTH)
from gvfpath.util import PADDED_WORKSPACE

ALL_MAPS = [IdentityMap(), ArctanPower(1.0), ArctanPower(2.0),
            RationalSignPower(1.0), RationalSignPower(3.0)]


def test_make_path_experiment_ellipse(ellipse):
    built = PATH_KINDS["ellipse"](x0=600, y0=350, R=400, p=1.0, q=0.5, k_s=1e-5)
    assert built == ellipse


def test_make_path_rejects_bad_params():
    # Unknown kinds and keys are config errors: see INVALID in
    # test_scenario_cli.py.
    with pytest.raises(PathError):
        PATH_KINDS["ellipse"](x0=0, y0=0, R=-1.0, p=1.0, q=1.0, k_s=1.0)
    with pytest.raises(PathError):
        PATH_KINDS["cassini"](x0=0, y0=0, p=1.0, q=2.0, k_s=1.0)  # two loops
    with pytest.raises(PathError):
        PATH_KINDS["line"](a=0.0, b=0.0, c=1.0)
    with pytest.raises(PathError):
        PATH_KINDS["polynomial"](terms=())
    with pytest.raises(PathError):
        PATH_KINDS["polynomial"](terms=((-1, 0, 1.0),))


VALID_PARAMS = {
    "line": dict(a=0.0, b=1.0, c=-350.0),
    "circle": dict(x0=640.0, y0=360.0, radius=250.0, k_s=1.0),
    "ellipse": dict(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    "cassini": dict(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind, params in VALID_PARAMS.items() for name in params
] + [("polynomial", "terms")])
def test_make_path_rejects_non_finite_params(kind, name, value):
    if kind == "polynomial":
        params = dict(terms=((2, 0, 1.0), (0, 2, value), (0, 0, -1.0)))
    else:
        params = {**VALID_PARAMS[kind], name: value}
    with pytest.raises(PathError, match=rf"{kind}: .*{name}.* must be"):
        PATH_KINDS[kind](**params)


def test_eval_path_ellipse_points(ellipse):
    on = np.array([1000.0, 350.0])
    assert ellipse.phi(on) == pytest.approx(0.0, abs=1e-12)
    assert ellipse.grad(on) == pytest.approx([0.008, 0.0], abs=1e-15)

    center = np.array([600.0, 350.0])
    assert ellipse.phi(center) == pytest.approx(-1.6, abs=1e-12)
    assert np.hypot(*ellipse.grad(center)) == 0.0
    assert ellipse.hess(center) == pytest.approx(np.diag([2e-5, 8e-5]))


def test_eval_path_cassini_locus(cassini):
    locus = np.array([900.0, 350.0])
    assert np.hypot(*cassini.grad(locus)) == 0.0
    assert cassini.phi(locus) == pytest.approx(-1.185921, abs=1e-9)


def test_line_constant_derivatives(line_y0):
    p = np.array([3.0, 7.0])
    assert line_y0.phi(p) == 7.0
    assert line_y0.grad(p) == pytest.approx([0.0, 1.0])
    assert not line_y0.hess(p).any()


def test_hessian_symmetric_everywhere(ellipse, cassini, rng):
    pts = PADDED_WORKSPACE.sample(rng, 500)
    for path in (ellipse, cassini):
        h = path.hess(pts)
        assert np.array_equal(h[:, 0, 1], h[:, 1, 0])


@pytest.mark.parametrize("fixture", ["ellipse", "cassini", "line_y0", "unit_circle"])
def test_parametric_form_lies_on_zero_set(fixture, request):
    path = request.getfixturevalue(fixture)
    s = np.linspace(0.0, 1.0, 2048, endpoint=False)
    assert np.abs(path.phi(path.point(s))).max() < 1e-9


def test_eval_error_examples():
    assert (IdentityMap().psi(4.8), IdentityMap().psi_prime(4.8)) == (4.8, 1.0)
    assert ArctanPower(1.0).psi(1.0) == pytest.approx(math.pi / 4)
    assert ArctanPower(1.0).psi_prime(1.0) == pytest.approx(0.5)
    for errmap in ALL_MAPS:
        assert errmap.psi(0.0) == 0.0
        assert np.isfinite(errmap.psi_prime(0.0))


def test_error_map_power_validation():
    # A power on the identity map and an unknown map name are config
    # errors: see INVALID in test_scenario_cli.py.
    for cls in (ERROR_MAPS["arctan_power"], ERROR_MAPS["rational_sign_power"]):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                cls(p)


@pytest.mark.parametrize("errmap", ALL_MAPS, ids=lambda m: repr(m))
def test_psi_prime_supremum_matches_dense_scan(errmap):
    # Oracle: dense scan of psi' over a wide grid never beats the closed form,
    # and comes within 1e-6 of it somewhere.
    s = np.concatenate([np.linspace(-60, 60, 400001), [0.0]])
    vals = errmap.psi_prime(s)
    sup = errmap.psi_prime_sup()
    assert vals.max() <= sup * (1 + 1e-12)
    assert vals.max() > sup - 1e-6


@settings(max_examples=200)
@given(s1=st.floats(-50, 50), gap=st.floats(1e-6, 10))
@pytest.mark.parametrize("errmap", ALL_MAPS, ids=lambda m: repr(m))
def test_psi_strictly_increasing(errmap, s1, gap):
    assert errmap.psi(s1 + gap) > errmap.psi(s1)


# |phi| is kept above 1e-60: |phi|^p underflows to zero for p >= 2 below
# roughly 1e-154, where no float error map can stay sign-definite.
@settings(max_examples=200)
@given(phi=st.one_of(st.just(0.0),
                     st.floats(-1e4, 1e4).filter(lambda v: abs(v) > 1e-60)))
@pytest.mark.parametrize("errmap", ALL_MAPS, ids=lambda m: repr(m))
def test_error_vanishes_iff_phi_vanishes(errmap, phi):
    e = float(errmap.psi(phi))
    if phi == 0.0:
        assert e == 0.0
    else:
        assert e != 0.0 and math.copysign(1.0, e) == math.copysign(1.0, phi)


def test_distance_examples(ellipse, line_y0):
    assert ellipse.distance((1000.0, 350.0)) < 1e-6
    # Oracle for the center: dense sampling of the boundary.
    s = np.linspace(0.0, 1.0, 200000, endpoint=False)
    dense = np.min(np.hypot(*(ellipse.point(s) - np.array([600.0, 350.0])).T))
    d = ellipse.distance((600.0, 350.0))
    assert d == pytest.approx(dense, rel=1e-9)
    assert d == pytest.approx(200.0, abs=1e-6)  # the semiminor axis q*R
    assert line_y0.distance((3.0, 5.0)) == pytest.approx(5.0, abs=1e-9)


PARAMETRIC_PATHS = pytest.mark.parametrize("path", [
    EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
    CirclePath(640.0, 360.0, 250.0),
    LinePath(0.0, 1.0, -350.0),
    LinePath(1.0, 2.0, -1300.0),
], ids=["ellipse", "cassini", "circle", "line", "sloped_line"])


@PARAMETRIC_PATHS
def test_distance_many_matches_refined(path, rng):
    pts = PADDED_WORKSPACE.sample(rng, 300)
    coarse = path.distance_many(pts)
    refined = np.array([path.distance(p) for p in pts])
    # Sampled distance can overestimate by at most about half a sample
    # spacing; the bound is the largest gap between consecutive samples.
    samples = path._boundary_pts
    if path.closed:
        samples = np.vstack([samples, samples[:1]])
    spacing = np.hypot(*np.diff(samples, axis=0).T).max()
    assert np.all(coarse >= refined - 1e-9)
    assert np.all(coarse - refined < spacing)


def _nearest_boundary_reference(path, pts):
    """The two-stage search as first written: (B, 97, 2) gather and np.sum."""
    pts = np.asarray(pts, dtype=float)
    samples = path._boundary_pts
    d2c = np.sum((pts[..., None, :] - samples[::COARSE_STRIDE]) ** 2, axis=-1)
    kc = np.argmin(d2c, axis=-1)
    offs = np.arange(-COARSE_STRIDE, 2 * COARSE_STRIDE + 1)
    idx = kc[..., None] * COARSE_STRIDE + offs
    if path.closed:
        idx = np.mod(idx, BOUNDARY_SAMPLES)
    else:
        idx = np.clip(idx, 0, BOUNDARY_SAMPLES - 1)
    d2 = np.sum((pts[..., None, :] - samples[idx]) ** 2, axis=-1)
    j = np.argmin(d2, axis=-1)
    dist = np.sqrt(np.take_along_axis(d2, j[..., None], axis=-1)[..., 0])
    best = np.take_along_axis(idx, j[..., None], axis=-1)[..., 0]
    return dist, best


@PARAMETRIC_PATHS
def test_nearest_boundary_matches_reference(path):
    rng = np.random.default_rng(4)
    box = Region(-200.0, 1480.0, -200.0, 920.0)
    s = np.concatenate([rng.uniform(0.0, 1.0, 20000), [0.0, 1.0 - 1e-12]])
    batches = [
        box.sample(rng, 30000),
        path.point(s) + rng.normal(0.0, 2.0, (len(s), 2)),
        np.array([640.0, 360.0]),
        box.sample(rng, 12).reshape(3, 4, 2),
    ]
    for pts in batches:
        dist, best = path.nearest_boundary(pts)
        ref_dist, ref_best = _nearest_boundary_reference(path, pts)
        assert dist.shape == ref_dist.shape == pts.shape[:-1]
        assert best.shape == ref_best.shape == pts.shape[:-1]
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(best, ref_best)
    assert np.array_equal(path.distance_many(batches[0]),
                          _nearest_boundary_reference(path, batches[0])[0])


@pytest.mark.parametrize("path", [
    EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
    LinePath(1.0, 2.0, -1300.0),
], ids=["ellipse", "cassini", "sloped_line"])
def test_within_boundary_decides_like_the_full_search(path, monkeypatch):
    rng = np.random.default_rng(16)
    m = 4000
    # Points within 3 Px of the path; a quarter of them near s = 0 and 1,
    # the line's ends and the closed paths' wrap.
    s = np.concatenate([rng.uniform(0.0, 1.0, m - m // 4),
                        rng.uniform(-0.002, 0.002, m // 4) % 1.0])
    r, ang = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, m)), rng.uniform(0.0, 6.3, m)
    pts = path.point(s) + np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    dist, best = path.nearest_boundary(pts)
    search = type(path).nearest_boundary
    n = BOUNDARY_SAMPLES
    hints = {
        "exact": best,
        "stale": best + rng.integers(-6, 7, m),
        "wrapped": best + n * rng.choice([-1, 1], m),
        "random": rng.integers(0, n, m),
    }
    for name, hint in hints.items():
        if not path.closed:
            hint = np.clip(hint, 0, n - 1)
        for tol in (0.5, 2.0):
            searched = []
            monkeypatch.setattr(type(path), "nearest_boundary", lambda self, p: (
                searched.append(len(p)), search(self, p))[1])
            d, k = path.within_boundary(pts, hint.copy(), tol)
            monkeypatch.undo()
            inside = d < tol
            assert np.array_equal(inside, dist < tol), name
            assert np.array_equal(d[~inside], dist[~inside]), name
            assert np.array_equal(k[~inside], best[~inside]), name
            # Every row's distance is that of its new hint, no nearer than
            # the nearest sample; an inside row's hint is the full search's
            # or a witness within the window around the old hint.
            dx, dy = (pts - path._boundary_pts[k]).T
            assert np.array_equal(d, np.sqrt(dx * dx + dy * dy)), name
            assert np.all(d >= dist), name
            off = k - hint
            if path.closed:
                off = (off + n // 2) % n - n // 2
            found = (d == dist) & (k == best)
            assert np.all(found | (np.abs(off) <= WITNESS_HALF_WIDTH)), name
            # Exactly the rows without a sample below tol among the 4 on
            # either side of the hint are searched (stale hints lag up to 6).
            win = hint[:, None] + np.arange(-4, 5)
            win = win % n if path.closed else np.clip(win, 0, n - 1)
            w2 = ((path._boundary_pts[win] - pts[:, None]) ** 2).sum(axis=-1)
            assert sum(searched) == np.sum(~(np.sqrt(w2.min(axis=1)) < tol)), name
            if name == "exact":
                assert sum(searched) == np.sum(~inside)
                assert np.array_equal(d, dist)


POLY = PolynomialPath(terms=((2, 0, 1e-05), (1, 0, -0.012), (0, 2, 4e-05),
                             (0, 1, -0.028), (0, 0, 6.9), (1, 1, 1e-7),
                             (3, 0, 1e-9), (1, 2, -2e-10)))
ALL_KINDS = pytest.mark.parametrize("path", [
    LinePath(1.0, 2.0, -1300.0),
    CirclePath(640.0, 360.0, 250.0, k_s=1e-5),
    EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
    POLY,
], ids=["line", "circle", "ellipse", "cassini", "polynomial"])


@ALL_KINDS
def test_jet_orders_and_views_agree_bitwise(path):
    rng = np.random.default_rng(17)
    for pts in (PADDED_WORKSPACE.sample(rng, 50).reshape(5, 10, 2),
                PADDED_WORKSPACE.sample(rng, 1)[0]):
        shape = pts.shape[:-1]
        jets = [[np.broadcast_to(c, shape) for c in path.jet(pts, order)]
                for order in (0, 1, 2)]
        assert [len(j) for j in jets] == [1, 3, 6]
        for lo, hi in ((jets[0], jets[1]), (jets[1], jets[2])):
            assert all(np.array_equal(a, b) for a, b in zip(lo, hi))
        ph, gx, gy, hxx, hxy, hyy = jets[2]
        assert np.shape(path.phi(pts)) == shape
        assert np.array_equal(path.phi(pts), ph)
        assert np.array_equal(path.grad(pts), np.stack([gx, gy], axis=-1))
        assert np.array_equal(path.hess(pts), np.stack(
            [np.stack([hxx, hxy], axis=-1), np.stack([hxy, hyy], axis=-1)],
            axis=-2))


@pytest.mark.parametrize("path", [
    LinePath(1.0, 2.0, -1300.0),
    CirclePath(640.0, 360.0, 250.0, k_s=1e-5),
    EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
], ids=["line", "circle", "ellipse", "cassini"])
def test_jet_xy_on_floats_equals_jet_on_arrays(path):
    # The baselines evaluate jet_xy on Python floats; every other caller
    # uses arrays.  Random points and points exactly on boundary samples.
    rng = np.random.default_rng(23)
    pts = np.concatenate((PADDED_WORKSPACE.sample(rng, 500),
                          path._boundary_pts[rng.integers(BOUNDARY_SAMPLES, size=500)]))
    for order in (0, 1, 2):
        jet = [np.broadcast_to(c, len(pts)) for c in path.jet(pts, order)]
        for i, (x, y) in enumerate(pts.tolist()):
            one = path.jet_xy(x, y, order)
            assert all(type(c) is float for c in one)
            assert [c[i] for c in jet] == list(one)


@ALL_KINDS
def test_grad_sup_bounds_the_gradient_over_the_region(path):
    # Against the largest |grad phi| on a dense grid of the working region,
    # with a relative slack for rounding (the Cassini closed form can land
    # one ulp under the grid's maximum).  Only the polynomial's term-wise
    # bound is loose; the others are attained at a corner.
    _, gx, gy = path.jet(path.region.grid(801, 801), 1)
    grid_max = float(np.max(np.hypot(gx, gy)))
    assert path.grad_sup() >= grid_max * (1.0 - 1e-12)
    if not isinstance(path, PolynomialPath):
        assert path.grad_sup() <= grid_max * (1.0 + 1e-12)


def test_contour_distance_many_matches_reference():
    circle = PolynomialPath(terms=((2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0)),
                            region=Region(-2.0, 2.0, -2.0, 2.0))
    contour = circle._contour_pts
    pts = Region(-2.0, 2.0, -2.0, 2.0).sample(np.random.default_rng(5), 1000)
    # More than one block of the query.
    assert len(pts) > CONTOUR_BLOCK // len(contour)
    ref = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    d = circle.distance_many(pts)
    assert np.max(np.abs(d - ref)) < 1e-12
    assert np.array_equal(circle.distance_many(pts.reshape(10, 100, 2)),
                          d.reshape(10, 100))


def test_polynomial_path_contour_distance():
    circle = PolynomialPath(terms=((2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0)),
                            region=Region(-2.0, 2.0, -2.0, 2.0))
    assert circle.distance((2.0, 0.0)) == pytest.approx(1.0, abs=0.01)
    assert circle.distance((0.0, 0.0)) == pytest.approx(1.0, abs=0.01)


def test_polynomial_matches_circle_derivatives(unit_circle):
    poly = PolynomialPath(terms=((2, 0, 1.0), (0, 2, 1.0), (0, 0, -1.0)))
    pts = np.array([[0.3, -1.2], [2.0, 0.5], [-4.0, 3.0]])
    assert poly.phi(pts) == pytest.approx(unit_circle.phi(pts))
    assert poly.grad(pts) == pytest.approx(unit_circle.grad(pts))
    assert poly.hess(pts) == pytest.approx(unit_circle.hess(pts))


def test_contour_not_found():
    nowhere = PolynomialPath(terms=((2, 0, 1.0), (0, 2, 1.0), (0, 0, 1.0)),
                             region=Region(-2.0, 2.0, -2.0, 2.0))
    with pytest.raises(ContourNotFoundError):
        nowhere.distance((0.0, 0.0))


def test_contour_zero_on_grid_node():
    # The only zero sits exactly on a raster node; it still counts as contour.
    point_zero = PolynomialPath(terms=((2, 0, 1.0), (0, 2, 1.0)),
                                region=Region(0.0, 1.0, 0.0, 1.0))
    assert point_zero.distance((0.5, 0.0)) == pytest.approx(0.5, abs=1e-9)


def test_check_derivatives_examples(ellipse, cassini, line_y0):
    assert check_derivatives(ellipse, (472.0, 311.0), h=1e-4) < 1e-5
    assert check_derivatives(cassini, (106.0, 202.0), h=1e-3) < 1e-4
    assert check_derivatives(line_y0, (812.0, -13.0)) < 1e-12
    with pytest.raises(ValueError):
        check_derivatives(ellipse, (0.0, 0.0), h=-1.0)


# Unit-scale paths: at the bundled paths' scales phi's second derivatives
# are too small for the relative measure to see an error in them.
@pytest.fixture(scope="module")
def unit_polynomial():
    return PolynomialPath(terms=((2, 0, 1.0), (0, 2, 1.0), (1, 1, 0.5), (3, 0, 0.2),
                                 (1, 2, -0.3), (0, 0, -1.0)))


@pytest.fixture(scope="module")
def unit_ellipse():
    return EllipsePath(x0=0.1, y0=0.2, R=1.2, p=1.0, q=0.5, k_s=1.0)


@pytest.fixture(scope="module")
def unit_cassini():
    return CassiniPath(x0=0.0, y0=0.0, p=1.1, q=1.0, k_s=1.0)


# Each path is sampled over a region matched to its scale: the default step
# heuristic balances truncation and roundoff only when phi is O(1) there.
@pytest.mark.parametrize("fixture,box", [
    ("ellipse", PADDED_WORKSPACE),
    ("cassini", PADDED_WORKSPACE),
    ("line_y0", PADDED_WORKSPACE),
    ("unit_circle", Region(-3.0, 3.0, -3.0, 3.0)),
    ("unit_polynomial", Region(-3.0, 3.0, -3.0, 3.0)),
    ("unit_ellipse", Region(-3.0, 3.0, -3.0, 3.0)),
    ("unit_cassini", Region(-3.0, 3.0, -3.0, 3.0)),
])
def test_derivative_oracle_random_points(fixture, box, request, rng):
    path = request.getfixturevalue(fixture)
    worst = max(check_derivatives(path, p) for p in box.sample(rng, 200))
    assert worst < 1e-4


@pytest.mark.parametrize("kappa", [10.0, 50.0, 200.0])
def test_error_separated_from_zero_off_path(ellipse, cassini, identity, kappa, rng):
    # Far from the path the tracking error must be bounded away from zero.
    for path in (ellipse, cassini):
        pts = PADDED_WORKSPACE.sample(rng, 10000)
        far = path.distance_many(pts) >= kappa
        assert far.any()
        e = np.abs(identity.psi(path.phi(pts[far])))
        assert e.min() > 0.0


def _circle_side(cx, cy, radius):
    """The condition |q - center|^2 = radius^2, for one center (cx, cy) per
    start: floats, or arrays of one shape."""

    def side(qx, qy, jet):
        dx, dy = qx - cx, qy - cy
        return dx * dx + dy * dy - radius * radius, 2.0 * dx, 2.0 * dy

    return side


@pytest.mark.parametrize("path", [
    EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    LinePath(1.0, 2.0, -1300.0),
], ids=["ellipse", "sloped_line"])
def test_newton_singular_row_stays_put(path):
    # Each circle of radius 25 crosses the path at right angles at a sample,
    # and Newton starts 3 Px off the path next to that sample.
    b = path._boundary_pts[[300, 1200, 2500, 3900]]
    g = path.grad(b)
    g /= np.hypot(g[:, 0], g[:, 1])[:, None]
    centers = b + 25.0 * np.column_stack([g[:, 1], -g[:, 0]])
    q0 = b + 3.0 * g
    # At its own center the side's gradient vanishes: a singular Jacobian.
    centers[1] = q0[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = np.column_stack(path._newton_xy(*q0.T, _circle_side(*centers.T, 25.0)))
        # On floats, one start at a time: no ZeroDivisionError either.
        solo = [path._newton_xy(*q0[i].tolist(), _circle_side(*centers[i].tolist(), 25.0))
                for i in range(4)]
    assert np.array_equal(q[1], q0[1]) and solo[1] == tuple(q0[1].tolist())
    assert all(type(c) is float for c in solo[1])
    for i in (0, 2, 3):
        assert np.array_equal(q[i], solo[i])
        assert abs(path.phi(q[i])) < 1e-3 * abs(path.phi(q0[i]))
