import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvfpath import Region, wrap_angle


@settings(max_examples=300)
@given(a=st.floats(-1e6, 1e6))
def test_wrap_angle_range_and_idempotence(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w  # bitwise stable inside the interval
    # Same residue modulo 2 pi.
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-6)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-6)


def test_wrap_angle_boundary_convention():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_wrap_angle_vectorized():
    a = np.array([0.0, math.pi, -math.pi, 7.0])
    w = wrap_angle(a)
    assert w.shape == a.shape
    assert w[1] == math.pi and w[2] == math.pi
    assert w[3] == pytest.approx(7.0 - 2 * math.pi)


def test_wrap_angle_scalar_path_matches_array_path():
    pi = math.pi
    values = [pi, -pi, 0.0, -0.0, 3 * pi, -3 * pi, 1e300, -1e300,
              math.nextafter(pi, 4.0), math.nextafter(-pi, 0.0), 2 * pi, -2 * pi]
    rng = np.random.default_rng(20261020)
    values += list(rng.uniform(-10.0, 10.0, 3000)) + list(rng.uniform(-1e6, 1e6, 3000))
    want = wrap_angle(np.array(values))
    for v, w in zip(values, want):
        for scalar in (v, np.float64(v)):
            got = wrap_angle(scalar)
            assert type(got) is float
            assert np.float64(got).tobytes() == w.tobytes(), v  # sign of zero too


def test_wrap_angle_non_finite_keeps_array_path():
    assert math.isnan(wrap_angle(math.nan))
    for v in (math.inf, -math.inf):
        # numpy's remainder flags the invalid operation; Python's % would not.
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            wrap_angle(v)
        with np.errstate(invalid="ignore"):
            assert math.isnan(wrap_angle(v))


def test_region_geometry():
    r = Region(0.0, 10.0, -2.0, 2.0)
    assert r.center == (5.0, 0.0)
    assert r.padded(2.0) == Region(-5.0, 15.0, -4.0, 4.0)
    assert r.contains(np.array([5.0, 0.0]))
    assert not r.contains(np.array([11.0, 0.0]))
    grid = r.grid(3, 5)
    assert grid.shape == (15, 2)
    with pytest.raises(ValueError):
        Region(1.0, 1.0, 0.0, 2.0)


@pytest.mark.parametrize("bounds", [
    (0.0, math.inf, 0.0, 720.0), (-math.inf, 0.0, 0.0, 720.0),
    (0.0, 1280.0, 0.0, math.inf), (0.0, math.nan, 0.0, 720.0),
])
def test_region_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        Region(*bounds)
