"""Frames, rotations, projection and line back-projection.

Conventions: camera frame is X right / Y down / Z forward (pinhole),
LiDAR frame is X forward / Y left / Z up.  Rotations are exchanged as
angle-axis vectors (axis * angle, angle canonical in [0, pi]).
All functions are pure; all types are immutable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotARotation

# Points closer than this to the focal plane count as behind the camera.
EPS_Z = 1e-6

_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class Extrinsic:
    """Rigid transform LiDAR -> camera: p_C = R(r) @ p_L + t."""

    r: np.ndarray  # angle-axis, radians
    t: np.ndarray  # meters

    def __post_init__(self):
        object.__setattr__(self, "r", _canonical_angle_axis(np.asarray(self.r, dtype=float)))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3))
        if not (np.isfinite(self.r).all() and np.isfinite(self.t).all()):
            raise ValueError("non-finite extrinsic components")

    def matrix(self) -> np.ndarray:
        return angle_axis_to_matrix(self.r)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point or an (N, 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.matrix().T + self.t

    @staticmethod
    def identity() -> "Extrinsic":
        return Extrinsic(np.zeros(3), np.zeros(3))

    @staticmethod
    def from_matrix(R: np.ndarray, t: np.ndarray) -> "Extrinsic":
        return Extrinsic(matrix_to_angle_axis(R), t)


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point outside image")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class Line3D:
    """Infinite 3D line through `point` along unit `direction`."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float).reshape(3)
        d = np.asarray(self.direction, dtype=float).reshape(3)
        n = np.linalg.norm(d)
        if n < 1e-12:
            raise ValueError("zero line direction")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", d / n)

    def distance(self, points: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(points, dtype=float)) - self.point
        return _line_distance(np.moveaxis(q, -1, 0), self.direction)


def _line_distance(q, d) -> np.ndarray:
    """Distance |q x d| of offsets q from a line with unit direction d.

    q and d are component triples (q0, q1, q2), (d0, d1, d2) that
    broadcast, so one call can score many lines against many points.  The
    cross product is spelled out so the result is bit-identical to
    np.linalg.norm(np.cross(q, d), axis=-1); the |q|^2 - (q.d)^2 form is
    not, and would move inlier decisions that sit on the tolerance.
    """
    q0, q1, q2 = q
    d0, d1, d2 = d
    c0 = q1 * d2 - q2 * d1
    c1 = q2 * d0 - q0 * d2
    c2 = q0 * d1 - q1 * d0
    return np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


@dataclass(frozen=True)
class Line2D:
    """Image line a*u + b*v + c = 0, normalized so a^2 + b^2 = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = math.hypot(self.a, self.b)
        if n < 1e-12:
            raise ValueError("degenerate image line")
        a, b, c = self.a / n, self.b / n, self.c / n
        # canonical sign: first nonzero of (a, b) positive
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def rho(self) -> float:
        """Distance of the line from the pixel origin."""
        return abs(self.c)

    def coeffs(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def distance(self, u, v):
        return np.abs(self.a * np.asarray(u) + self.b * np.asarray(v) + self.c)

    @staticmethod
    def through(p0, p1) -> "Line2D":
        u0, v0 = p0
        u1, v1 = p1
        return Line2D(v1 - v0, u0 - u1, u1 * v0 - u0 * v1)


@dataclass(frozen=True)
class Plane3D:
    """Plane n . p + d = 0 with unit normal."""

    normal: np.ndarray
    d: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        nn = np.linalg.norm(n)
        if nn < 1e-12:
            raise ValueError("zero plane normal")
        object.__setattr__(self, "normal", n / nn)
        object.__setattr__(self, "d", float(self.d) / nn)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.normal + self.d


def _canonical_angle_axis(r: np.ndarray) -> np.ndarray:
    """Wrap an angle-axis vector so its magnitude lies in [0, pi]."""
    r = np.asarray(r, dtype=float).reshape(3)
    theta = np.linalg.norm(r)
    if theta <= np.pi:
        return r
    axis = r / theta
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    # negative residual angle: positive angle about the flipped axis
    return axis * theta if theta >= 0 else -axis * -theta


def angle_axis_to_matrix(r: np.ndarray) -> np.ndarray:
    """Rodrigues formula; the zero vector maps to the identity."""
    r = np.asarray(r, dtype=float).reshape(3)
    theta = np.linalg.norm(r)
    K = np.array(
        [[0.0, -r[2], r[1]], [r[2], 0.0, -r[0]], [-r[1], r[0], 0.0]]
    )
    if theta < 1e-8:
        # second-order series, exact enough at this magnitude
        return np.eye(3) + K + 0.5 * (K @ K)
    A = math.sin(theta) / theta
    B = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + A * K + B * (K @ K)


def _check_rotation(R: np.ndarray, tol: float = _ORTHO_TOL) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise NotARotation(f"expected 3x3 matrix, got {R.shape}")
    if np.abs(R @ R.T - np.eye(3)).max() > tol:
        raise NotARotation("matrix is not orthonormal")
    if np.linalg.det(R) < 0:
        raise NotARotation("matrix has negative determinant")
    return R


def matrix_to_angle_axis(R: np.ndarray) -> np.ndarray:
    """Inverse Rodrigues map with the angle canonical in [0, pi]."""
    return _angle_axis(_check_rotation(R))


def _angle_axis(R: np.ndarray) -> np.ndarray:
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    sin_theta = np.linalg.norm(w) / 2.0
    theta = math.atan2(sin_theta, cos_theta)
    if theta < 1e-8:
        return w / 2.0
    if math.pi - theta > 1e-6:
        return w * (theta / (2.0 * sin_theta))
    # near pi: axis from the dominant diagonal of (R + I) / 2
    S = (R + np.eye(3)) / 2.0
    k = int(np.argmax(np.diag(S)))
    axis = S[:, k] / math.sqrt(max(S[k, k], 1e-300))
    axis = axis / np.linalg.norm(axis)
    # fix the sign using the skew part when it is not exactly zero
    if np.dot(axis, w) < 0:
        axis = -axis
    return axis * theta


def project_points(k: Intrinsics, pts_c: np.ndarray):
    """Vectorized projection of camera-frame points (..., 3), such as
    (N, 3) for one pose or (K, N, 3) for K poses.

    Returns (uv, valid) where uv is (..., 2) and valid (...) marks points
    with depth > EPS_Z; uv rows for invalid points are undefined.  Each
    valid point's uv is bit-identical to projecting it alone.
    """
    pts_c = np.atleast_2d(np.asarray(pts_c, dtype=float))
    z = pts_c[..., 2]
    valid = z > EPS_Z
    zs = np.where(valid, z, 1.0)
    # u and v planes stay contiguous for the lookups that follow
    uv = np.empty((2,) + pts_c.shape[:-1])
    uv[0] = k.fx * pts_c[..., 0] / zs + k.cx
    uv[1] = k.fy * pts_c[..., 1] / zs + k.cy
    return np.moveaxis(uv, 0, -1), valid


def backproject_line(k: Intrinsics, line: Line2D) -> np.ndarray:
    """Unit normal of the plane through the camera center containing `line`.

    Any camera-frame point p projecting onto the line satisfies n . p = 0.
    """
    n = k.matrix().T @ line.coeffs()
    return n / np.linalg.norm(n)


def rotation_geodesic(R1: np.ndarray, R2: np.ndarray) -> float:
    """Angle of the relative rotation, in [0, pi]."""
    # the product of two checked inputs can drift past the tolerance
    D = _check_rotation(R1) @ _check_rotation(R2).T
    return float(np.linalg.norm(_angle_axis(D)))


def euler_zyx(R: np.ndarray):
    """Decompose R = Rot(Z, yaw) @ Rot(Y, pitch) @ Rot(X, roll).

    At gimbal lock (|pitch| = pi/2) roll is set to 0.
    """
    R = _check_rotation(R)
    sp = -R[2, 0]
    if abs(sp) >= 1.0 - 1e-9:
        pitch = math.copysign(math.pi / 2.0, sp)
        roll = 0.0
        yaw = math.atan2(-R[0, 1], R[1, 1])
        return roll, pitch, yaw
    pitch = math.asin(np.clip(sp, -1.0, 1.0))
    roll = math.atan2(R[2, 1], R[2, 2])
    yaw = math.atan2(R[1, 0], R[0, 0])
    return roll, pitch, yaw


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
