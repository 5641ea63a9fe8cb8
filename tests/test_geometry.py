"""Property tests for frames, rotations, projection and back-projection."""
import math
import warnings

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
    project_planes,
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
    # below about 1e-154 rad the squares in the oracle's |w| underflow to
    # subnormals, which the 1e-160 rad of slack covers
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


@pytest.mark.parametrize("theta", [1.0537879e-159, 3e-200, 2.0 ** -1000, 1e-300])
def test_geodesic_keeps_its_precision_at_tiny_angles(theta):
    """Below about 1e-154 rad the squares in the norm of the angle-axis
    vector fall into the subnormals, which cost the angle its last bits
    (a relative error of 9e-7 at 1.05e-159 rad): it is taken at an exact
    power of two's scale there, within 2 ulp of math.hypot's."""
    r = np.array([0.48, -0.6, 0.64]) * theta
    want = math.hypot(*r)
    assert abs(rotation_geodesic(angle_axis_to_matrix(r), np.eye(3)) - want) <= 2 * math.ulp(want)
    assert abs(rotation_geodesic(np.eye(3), angle_axis_to_matrix(r)) - want) <= 2 * math.ulp(want)
    assert rotation_geodesic(np.eye(3), np.eye(3)) == 0.0


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


@pytest.mark.parametrize("r0", [(0.1, -0.2, 0.3), (0.0, 0.0, 1.5 * math.pi)])
def test_extrinsic_owns_read_only_r_t_and_matrix(r0):
    """A later write to the arrays handed in, here t as a row of a batch,
    does not move the pose, and r, t and the matrix refuse writes; the
    matrix is built once.  The second r0 is canonicalised, so r is a new
    array either way."""
    r, ts = np.array(r0), np.arange(6.0).reshape(2, 3)
    t = ts[1]
    e = Extrinsic(r, t)
    r_bytes, t_bytes, R_bytes = e.r.tobytes(), e.t.tobytes(), e.matrix().tobytes()
    r[1] = 1.5
    t[0] = 99.0
    assert (e.r.tobytes(), e.t.tobytes(), e.matrix().tobytes()) == (r_bytes, t_bytes, R_bytes)
    assert e.matrix() is e.matrix()
    assert e.matrix().tobytes() == angle_axis_to_matrix(e.r).tobytes()
    for array in (e.r, e.t, e.matrix()):
        with pytest.raises(ValueError):
            array[0] = 0.5


def test_lines_and_planes_own_read_only_arrays():
    """A later write to the arrays handed in does not move a line or a
    plane, and their arrays refuse writes."""
    p, d, n = np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    line, plane = Line3D(p, d), Plane3D(n, -1.5)
    p[0] = d[1] = n[0] = 100.0
    assert line.point.tolist() == [1.0, 2.0, 3.0]
    assert line.direction.tolist() == [1.0, 0.0, 0.0]
    assert plane.normal.tolist() == [0.0, 0.0, 1.0]
    for array in (line.point, line.direction, plane.normal):
        with pytest.raises(ValueError):
            array[0] = 0.5


@pytest.mark.parametrize("build", ["arrays", "from_array"])
def test_point_clouds_own_read_only_arrays(build):
    """A cloud built from its two arrays, or from one (N, 4) array, holds
    contiguous read-only copies of its own: a later write to what was
    handed in does not move it, and no view of it keeps that alive."""
    from linecalib.cloud_features import PointCloud

    xyz, intensity = np.arange(12.0).reshape(4, 3), np.arange(4.0)
    arr = np.column_stack([xyz, intensity])
    given = (xyz, intensity) if build == "arrays" else (arr,)
    cloud = PointCloud(xyz, intensity) if build == "arrays" else PointCloud.from_array(arr)
    xyz[0, 0] = intensity[0] = arr[0, 0] = arr[0, 3] = 999.0
    assert cloud.xyz.tolist() == np.arange(12.0).reshape(4, 3).tolist()
    assert cloud.intensity.tolist() == [0.0, 1.0, 2.0, 3.0]
    for array in (cloud.xyz, cloud.intensity):
        assert array.flags.c_contiguous
        assert not any(np.shares_memory(array, source) for source in given)
        with pytest.raises(ValueError):
            array[0] = 0.5


def test_matrix_to_angle_axis_rejects_non_rotation():
    with pytest.raises(NotARotation):
        matrix_to_angle_axis(np.eye(3) * 2.0)
    with pytest.raises(NotARotation):
        matrix_to_angle_axis(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(NotARotation):
        matrix_to_angle_axis(np.eye(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_non_finite_matrix_is_not_a_rotation(bad, entry):
    """A NaN or infinite entry fails the orthonormality check, not only a
    later step: with one inf on the diagonal the angle-axis map used to
    return [0, 0, 0]."""
    R = np.eye(3)
    R[entry] = bad
    for read in (
        matrix_to_angle_axis,
        euler_zyx,
        lambda M: rotation_geodesic(M, np.eye(3)),
        lambda M: rotation_geodesic(np.eye(3), M),
        lambda M: Extrinsic.from_matrix(M, np.zeros(3)),
    ):
        with pytest.raises(NotARotation):
            read(R)


@pytest.mark.parametrize("r, t, named", [
    ([1e308, 1e308, 0.0], [0.0, 0.0, 0.0], "r"),   # finite parts, squared norm overflows
    ([math.inf, 0.0, 0.0], [0.0, 0.0, 0.0], "r"),
    ([0.0, -math.inf, 0.0], [0.0, 0.0, 0.0], "r"),
    ([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], "r"),
    ([0.0, 0.0, 0.0], [0.0, math.inf, 0.0], "t"),
    ([0.0, 0.0, 0.0], [math.nan, 0.0, 0.0], "t"),
])
def test_extrinsic_without_a_finite_magnitude_is_refused(r, t, named):
    """r or t with a non-finite component or magnitude is a ValueError that
    names the field, raised before the angle is wrapped and with no
    warning: r = [1e308, 1e308, 0] used to fail in math.fmod with 'math
    domain error' after an overflow warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=rf"^{named}: \[.*\] has no finite magnitude$"):
            Extrinsic(np.array(r), np.array(t))
    assert not caught
    # an r whose squared norm stays just below the overflow wraps as before
    assert Extrinsic([1e154, 0.0, 0.0], [0.0, 0.0, 0.0]).r[0] == pytest.approx(
        math.remainder(1e154, 2 * math.pi), abs=1e-6)


# The rotation maps as written with np.linalg.norm, np.clip and np.eye: the
# library drops only their call overhead, so its bits must equal these.


def oracle_canonical_angle_axis(r):
    r = np.asarray(r, dtype=float).reshape(3)
    theta = np.linalg.norm(r)
    if theta <= np.pi:
        return r
    axis = r / theta
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    return axis * theta if theta >= 0 else -axis * -theta


def oracle_angle_axis_to_matrix(r):
    r = np.asarray(r, dtype=float).reshape(3)
    theta = np.linalg.norm(r)
    K = np.array([[0.0, -r[2], r[1]], [r[2], 0.0, -r[0]], [-r[1], r[0], 0.0]])
    if theta < 1e-8:
        return np.eye(3) + K + 0.5 * (K @ K)
    A = math.sin(theta) / theta
    B = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + A * K + B * (K @ K)


def oracle_matrix_to_angle_axis(R):
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    sin_theta = np.linalg.norm(w) / 2.0
    theta = math.atan2(sin_theta, cos_theta)
    if theta < 1e-8:
        return w / 2.0
    if math.pi - theta > 1e-6:
        return w * (theta / (2.0 * sin_theta))
    S = (R + np.eye(3)) / 2.0
    k = int(np.argmax(np.diag(S)))
    axis = S[:, k] / math.sqrt(max(S[k, k], 1e-300))
    axis = axis / np.linalg.norm(axis)
    if np.dot(axis, w) < 0:
        axis = -axis
    return axis * theta


unit_axis = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).map(
    np.array).filter(lambda a: np.linalg.norm(a) > 1e-3).map(lambda a: a / np.linalg.norm(a))
# every branch: angles below 1e-8 (the series), within 1e-6 of pi (the
# diagonal axis) and past pi (canonicalised), and the general case
rotation_angle = st.one_of(
    st.floats(0.0, 1e-8),
    st.floats(math.pi - 2e-6, math.pi + 2e-6),
    st.floats(0.0, 7.0),
)


@MANY
@given(unit_axis, rotation_angle, vec3)
def test_rotation_maps_keep_the_bits_of_norm_and_clip(axis, angle, t):
    r = axis * angle
    R = oracle_angle_axis_to_matrix(r)
    assert angle_axis_to_matrix(r).tobytes() == R.tobytes()
    assert matrix_to_angle_axis(R).tobytes() == oracle_matrix_to_angle_axis(R).tobytes()
    e = Extrinsic(r, t)
    r_c = oracle_canonical_angle_axis(r)
    assert e.r.tobytes() == r_c.tobytes()
    assert e.matrix().tobytes() == oracle_angle_axis_to_matrix(r_c).tobytes()
    moved = Extrinsic.from_matrix(R, t)
    assert moved.r.tobytes() == oracle_matrix_to_angle_axis(R).tobytes()


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


def test_project_planes_bits_match_project_points():
    """The plane form on (3, K, N) planes and the (K, N, 3) form give the
    same bits, for points behind the camera too; zs is the depth divided
    by, 1 where not valid."""
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(3, 40, 3)) * np.array([2.0, 2.0, 5.0])
    pts[0, :5, 2] = [EPS_Z, -EPS_Z, 0.0, -0.0, np.nextafter(EPS_Z, 1.0)]
    assert 0 < (pts[..., 2] <= EPS_Z).sum() < pts[..., 2].size
    uv, valid = project_points(K, pts)
    uv_p, valid_p, zs = project_planes(K, np.moveaxis(pts, -1, 0))
    assert uv_p.shape == (2, 3, 40) and valid_p.shape == zs.shape == (3, 40)
    assert np.moveaxis(uv_p, 0, -1).tobytes() == uv.tobytes()
    assert np.array_equal(valid_p, valid) and valid[0, :5].tolist() == [False] * 4 + [True]
    assert zs.tobytes() == np.where(valid, pts[..., 2], 1.0).tobytes()


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


def _array_dataclass_factories():
    """One builder per frozen dataclass with an np.ndarray field; each call
    builds a new instance from the same values."""
    from linecalib.cloud_features import (
        FeatureSetCloud,
        PointCloud,
        ScoredLine3D,
    )
    from linecalib.cost import CostEvaluator
    from linecalib.image_features import HeightMap, SemanticMask

    k = Intrinsics(fx=50.0, fy=50.0, cx=4.0, cy=3.0, width=8, height=6)
    pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]])
    line = lambda: Line3D(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    height = lambda: HeightMap.from_values(np.full((6, 8), 0.5))
    plane = lambda: Plane3D(np.array([0.0, 0.0, 1.0]), 1.5)
    return {
        "Extrinsic": lambda: Extrinsic(np.zeros(3), np.ones(3)),
        "CostEvaluator": lambda: CostEvaluator(((pts, height()), (pts, height())), k),
        "Line3D": line,
        "Plane3D": plane,
        "PointCloud": lambda: PointCloud(pts, np.ones(2)),
        "ScoredLine3D": lambda: ScoredLine3D(line(), np.arange(2)),
        "FeatureSetCloud": lambda: FeatureSetCloud(pts, pts, [line()], [line()], np.eye(3)),
        "SemanticMask": lambda: SemanticMask("lane", np.eye(6, 8, dtype=bool)),
        "HeightMap": height,
    }


@pytest.mark.parametrize("name", list(_array_dataclass_factories()))
def test_array_dataclasses_compare_by_identity(name):
    """A dataclass holding arrays cannot compare its fields by value, so
    it compares and hashes as an object: no ValueError from ==, no
    TypeError from hash()."""
    make = _array_dataclass_factories()[name]
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and {a, b} == {a, b} and len({a, b}) == 2
