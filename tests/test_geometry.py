"""Property tests for frames, rotations, projection and back-projection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib.errors import NotARotation
from linecalib.geometry import (
    EPS_Z,
    Extrinsic,
    Intrinsics,
    Line2D,
    Line3D,
    Plane3D,
    angle_axis_to_matrix,
    backproject_line,
    euler_zyx,
    matrix_to_angle_axis,
    project_points,
    rotation_geodesic,
    rot_x,
    rot_y,
    rot_z,
)

MANY = settings(max_examples=1000, deadline=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
angle_axis = st.tuples(
    st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)
).map(np.array)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def random_rotation(rng):
    r = rng.normal(size=3)
    n = np.linalg.norm(r)
    if n > 1e-9:
        r = r / n * rng.uniform(0, math.pi)
    return angle_axis_to_matrix(r)


# ---------------------------------------------------------------------------
# rotation representation


@MANY
@given(angle_axis)
def test_angle_axis_to_matrix_is_rotation(r):
    R = angle_axis_to_matrix(r)
    assert abs(np.linalg.det(R) - 1.0) < 1e-9
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-9


@MANY
@given(angle_axis)
def test_rotation_round_trip(r):
    R = angle_axis_to_matrix(r)
    r2 = matrix_to_angle_axis(R)
    R2 = angle_axis_to_matrix(r2)
    assert np.abs(R - R2).max() < 1e-8
    # canonical magnitude
    assert np.linalg.norm(r2) <= math.pi + 1e-12


def _rotation_geodesic_oracle(R1, R2) -> float:
    """The relative angle as computed before rotation_geodesic reused
    matrix_to_angle_axis."""
    D = R1 @ R2.T
    w = np.array([D[2, 1] - D[1, 2], D[0, 2] - D[2, 0], D[1, 0] - D[0, 1]])
    sin_theta = np.linalg.norm(w) / 2.0
    cos_theta = (np.trace(D) - 1.0) / 2.0
    return math.atan2(sin_theta, cos_theta)


def _geodesic_checked(R1, R2) -> float:
    d = rotation_geodesic(R1, R2)
    oracle = _rotation_geodesic_oracle(R1, R2)
    tol = 4 * math.ulp(oracle)
    cos_theta = (np.trace(R1 @ R2.T) - 1.0) / 2.0
    if cos_theta > 1.0 or oracle < 1e-8:
        # matrix_to_angle_axis clips the cosine to 1 and reads an angle under
        # 1e-8 rad as |w| / 2, where the old formula divided by a cosine that
        # is 1 only up to the rounding in the trace
        tol += oracle * abs(1.0 - cos_theta)
    # below about 1e-154 rad the squares in |w| underflow to subnormals in
    # both formulas, which the 1e-160 rad of slack covers
    assert abs(d - oracle) <= tol + 1e-160
    return d


@MANY
@given(angle_axis, st.floats(-math.pi + 1e-6, math.pi))
def test_geodesic_symmetry_and_angle(r, theta):
    R1 = angle_axis_to_matrix(r)
    axis = np.array([0.48, -0.6, 0.64])
    R2 = R1 @ angle_axis_to_matrix(axis / np.linalg.norm(axis) * theta)
    d12 = _geodesic_checked(R1, R2)
    d21 = _geodesic_checked(R2, R1)
    assert abs(d12 - d21) < 1e-9
    assert abs(d12 - abs(theta)) < 1e-7


@MANY
@given(angle_axis)
def test_geodesic_zero_on_self(r):
    R = angle_axis_to_matrix(r)
    assert _geodesic_checked(R, R) < 1e-9


def test_geodesic_checks_both_inputs_not_their_product():
    R = rot_z(0.3)
    for bad in (np.diag([1.0, 1.0, -1.0]), 1.01 * np.eye(3), np.eye(2)):
        with pytest.raises(NotARotation):
            rotation_geodesic(bad, R)
        with pytest.raises(NotARotation):
            rotation_geodesic(R, bad)
    # each within the 1e-6 orthonormality tolerance, their product 1.8e-6 off
    near = R * (1 + 0.45e-6)
    assert _geodesic_checked(near, near) < 1e-9


def test_near_pi_round_trip():
    for axis in (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], np.ones(3) / math.sqrt(3)):
        for theta in (math.pi, math.pi - 1e-9, math.pi - 1e-12):
            R = angle_axis_to_matrix(axis * theta)
            r2 = matrix_to_angle_axis(R)
            assert np.abs(angle_axis_to_matrix(r2) - R).max() < 1e-7


def test_angle_axis_canonicalized_beyond_pi():
    r = np.array([0.0, 0.0, 1.5 * math.pi])
    e = Extrinsic(r, np.zeros(3))
    assert np.linalg.norm(e.r) <= math.pi + 1e-12
    assert np.abs(e.matrix() - angle_axis_to_matrix(r)).max() < 1e-9


def test_matrix_to_angle_axis_rejects_non_rotation():
    with pytest.raises(NotARotation):
        matrix_to_angle_axis(np.eye(3) * 2.0)
    with pytest.raises(NotARotation):
        matrix_to_angle_axis(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(NotARotation):
        matrix_to_angle_axis(np.eye(4))


# ---------------------------------------------------------------------------
# euler decomposition


@MANY
@given(
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
    st.floats(-math.pi, math.pi),
)
def test_euler_zyx_round_trip(roll, pitch, yaw):
    R = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)
    r2, p2, y2 = euler_zyx(R)
    R2 = rot_z(y2) @ rot_y(p2) @ rot_x(r2)
    assert np.abs(R - R2).max() < 1e-9


def test_euler_zyx_gimbal_lock():
    R = rot_y(math.pi / 2)
    roll, pitch, yaw = euler_zyx(R)
    assert roll == 0.0
    assert abs(pitch - math.pi / 2) < 1e-9


# ---------------------------------------------------------------------------
# projection

K = Intrinsics(fx=700.0, fy=700.0, cx=620.0, cy=180.0, width=1242, height=375)


@MANY
@given(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.1, 100.0)
)
def test_project_matches_pinhole(x, y, z):
    uv, valid = project_points(K, np.array([x, y, z]))
    assert valid[0]
    assert abs(uv[0, 0] - (K.fx * x / z + K.cx)) < 1e-9
    assert abs(uv[0, 1] - (K.fy * y / z + K.cy)) < 1e-9


def pinhole(k, p):
    """Scalar pinhole oracle: (u, v) of one camera-frame point, None when
    its depth is not above EPS_Z."""
    x, y, z = p
    if z <= EPS_Z:
        return None
    return np.array([k.fx * x / z + k.cx, k.fy * y / z + k.cy])


@MANY
@given(st.integers(0, 2**32 - 1))
def test_project_points_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(8, 3)) * np.array([2.0, 2.0, 5.0])
    uv, valid = project_points(K, pts)
    for i in range(len(pts)):
        ref = pinhole(K, pts[i])
        assert valid[i] == (ref is not None)
        if valid[i]:
            assert np.abs(uv[i] - ref).max() < 1e-9


def test_project_points_batch_bits_match_one_pose_at_a_time():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 50, 3)) * np.array([2.0, 2.0, 5.0])
    uv, valid = project_points(K, pts)
    assert uv.shape == (4, 50, 2) and valid.shape == (4, 50)
    for k in range(4):
        uv_k, valid_k = project_points(K, pts[k])
        assert np.array_equal(valid[k], valid_k)
        assert uv[k][valid_k].tobytes() == uv_k[valid_k].tobytes()


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(fx=-1.0, fy=700.0, cx=600.0, cy=180.0, width=1242, height=375)
    with pytest.raises(ValueError):
        Intrinsics(fx=math.nan, fy=700.0, cx=600.0, cy=180.0, width=1242, height=375)
    with pytest.raises(ValueError):
        Intrinsics(fx=700.0, fy=700.0, cx=2000.0, cy=180.0, width=1242, height=375)


# ---------------------------------------------------------------------------
# image lines and back-projection


@MANY
@given(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-500, 500),
    st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
)
def test_backproject_line_scale_invariant(a, b, c, scale):
    # skip coefficients so tiny that scaling them underflows to zero and
    # legitimately changes the canonical sign
    if math.hypot(a, b) < 1e-6 or (a != 0 and abs(a) < 1e-300) or (
        b != 0 and abs(b) < 1e-300
    ):
        return
    n1 = backproject_line(K, Line2D(a, b, c))
    n2 = backproject_line(K, Line2D(scale * a, scale * b, scale * c))
    # Line2D is sign-canonical, so scaling cannot even flip the normal
    assert np.abs(n1 - n2).max() < 1e-12
    assert abs(np.linalg.norm(n1) - 1.0) < 1e-12


@MANY
@given(
    st.floats(0, 1242), st.floats(0, 375), st.floats(0, 1242), st.floats(0, 375)
)
def test_backprojected_normal_orthogonal_to_rays(u0, v0, u1, v1):
    if math.hypot(u1 - u0, v1 - v0) < 1.0:
        return
    line = Line2D.through((u0, v0), (u1, v1))
    n = backproject_line(K, line)
    for u, v in ((u0, v0), (u1, v1)):
        ray = np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
        assert abs(n @ ray) < 1e-6 * np.linalg.norm(ray)


def test_line2d_normalized_and_sign_canonical():
    l = Line2D(-2.0, 0.0, 4.0)
    assert (l.a, l.b, l.c) == (1.0, 0.0, -2.0)
    assert l.rho == 2.0
    with pytest.raises(ValueError):
        Line2D(0.0, 0.0, 1.0)


@MANY
@given(vec3, st.tuples(finite, finite, finite).map(np.array))
def test_line3d_distance_zero_on_line(p, d):
    if np.linalg.norm(d) < 1e-6:
        return
    line = Line3D(p, d)
    on = p + 3.7 * line.direction
    assert line.distance(on)[0] < 1e-6 * max(1.0, np.abs(on).max())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_line3d_distance_bits_match_cross_norm(seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    pts = rng.normal(0, scale, (int(rng.integers(1, 500)), 3)) + rng.normal(0, 30, 3)
    line = Line3D(rng.normal(0, 30, 3), rng.normal(size=3))
    want = np.linalg.norm(np.cross(pts - line.point, line.direction), axis=-1)
    assert np.array_equal(line.distance(pts), want)
    assert np.array_equal(line.distance(pts[0]), want[:1])


def test_plane3d_normalizes():
    pl = Plane3D(np.array([0.0, 0.0, 2.0]), -4.0)
    assert np.abs(pl.normal - [0, 0, 1]).max() < 1e-12
    assert pl.d == -2.0
    assert abs(pl.signed_distance(np.array([[1.0, 1.0, 5.0]]))[0] - 3.0) < 1e-12
