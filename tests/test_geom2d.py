import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from navlim.geom2d import (
    Eigen2,
    eigen2,
    info_ellipse,
    r_cross,
    r_dir,
    rotation,
    unit_vector,
)

angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def test_unit_vector_axes():
    np.testing.assert_allclose(unit_vector(0.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(unit_vector(math.pi / 2), [0.0, 1.0], atol=1e-15)
    v = unit_vector(math.pi / 4)
    np.testing.assert_allclose(v, [0.7071067811865476] * 2, rtol=1e-12)


@given(angles)
def test_unit_vector_norm(phi):
    assert np.linalg.norm(unit_vector(phi)) == pytest.approx(1.0, abs=1e-14)


def test_r_dir_axes():
    np.testing.assert_allclose(r_dir(0.0), [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(r_dir(math.pi / 2), [[0, 0], [0, 1]], atol=1e-15)


@given(angles)
def test_r_dir_projector(phi):
    m = r_dir(phi)
    assert np.trace(m) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(m @ m, m, atol=1e-14)
    np.testing.assert_allclose(m + r_dir(phi + math.pi / 2), np.eye(2), atol=1e-14)


def test_r_cross_zero_angle():
    np.testing.assert_allclose(r_cross(0.0), [[0, 0.5], [0.5, 0]], atol=1e-15)


@given(angles)
def test_r_cross_structure(phi):
    m = r_cross(phi)
    # Explicit outer-product expansion.
    u = unit_vector(phi)
    v = unit_vector(phi + math.pi / 2)
    np.testing.assert_allclose(m, 0.5 * (np.outer(u, v) + np.outer(v, u)), atol=1e-14)
    assert np.trace(m) == pytest.approx(0.0, abs=1e-14)
    assert np.linalg.det(m) == pytest.approx(-0.25, abs=1e-13)
    w = np.linalg.eigvalsh(m)
    np.testing.assert_allclose(w, [-0.5, 0.5], atol=1e-13)


@given(angles)
def test_r_cross_eigenvectors_on_diagonals(phi):
    m = r_cross(phi)
    plus = unit_vector(phi + math.pi / 4)
    minus = unit_vector(phi - math.pi / 4)
    np.testing.assert_allclose(m @ plus, 0.5 * plus, atol=1e-13)
    np.testing.assert_allclose(m @ minus, -0.5 * minus, atol=1e-13)


def test_eigen2_identity_tie_convention():
    e = eigen2(np.eye(2))
    assert (e.lambda1, e.lambda2, e.angle1) == (1.0, 1.0, 0.0)


def test_eigen2_built_from_projectors():
    m = 2.0 * r_dir(math.pi / 3) + 1.0 * r_dir(math.pi / 3 + math.pi / 2)
    e = eigen2(m)
    assert e.lambda1 == pytest.approx(2.0, rel=1e-12)
    assert e.lambda2 == pytest.approx(1.0, rel=1e-12)
    assert math.sin(e.angle1 - math.pi / 3) == pytest.approx(0.0, abs=1e-12)


@given(
    st.floats(0.01, 100),
    st.floats(0.01, 100),
    angles,
)
def test_eigen2_roundtrip(l1, l2, theta):
    lo, hi = sorted((l1, l2))
    m = hi * r_dir(theta) + lo * r_dir(theta + math.pi / 2)
    e = eigen2(m)
    np.testing.assert_allclose(e.reconstruct(), m, rtol=1e-12, atol=1e-12 * hi)


def test_eigen2_roundtrip_random_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = rng.uniform(-5, 5, size=(2, 2))
        m = 0.5 * (m + m.T)
        e = eigen2(m)
        scale = max(1.0, np.abs(m).max())
        np.testing.assert_allclose(e.reconstruct(), m, atol=1e-12 * scale)


def test_info_ellipse_circle():
    e = info_ellipse(4.0 * np.eye(2))
    assert e.semi_major == pytest.approx(2.0)
    assert e.semi_minor == pytest.approx(2.0)


def test_info_ellipse_diagonal():
    e = info_ellipse(np.diag([9.0, 1.0]))
    assert (e.semi_major, e.semi_minor) == (3.0, 1.0)
    assert e.orientation == pytest.approx(0.0)


def test_info_ellipse_eigen_built():
    j = 5.0 * r_dir(math.pi / 6) + 2.0 * r_dir(math.pi / 6 + math.pi / 2)
    e = info_ellipse(j)
    assert e.semi_major == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert e.semi_minor == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert math.sin(e.orientation - math.pi / 6) == pytest.approx(0.0, abs=1e-12)


def test_info_ellipse_rejects_singular():
    with pytest.raises(ValueError, match="not positive definite"):
        info_ellipse(r_dir(0.3))
    with pytest.raises(ValueError, match="not positive definite"):
        info_ellipse(np.diag([1.0, -0.5]))


def test_rotation_matches_unit_vector():
    phi = 0.73
    np.testing.assert_allclose(rotation(phi)[:, 0], unit_vector(phi))
    np.testing.assert_allclose(rotation(phi)[:, 1], unit_vector(phi + math.pi / 2))


def test_eigen2_reconstruct_dataclass():
    e = Eigen2(3.0, 1.0, 0.4)
    back = eigen2(e.reconstruct())
    assert back.lambda1 == pytest.approx(3.0)
    assert back.lambda2 == pytest.approx(1.0)
    assert back.angle1 == pytest.approx(0.4)
