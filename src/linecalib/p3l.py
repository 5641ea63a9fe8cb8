"""Coarse pose from three line correspondences (two parallel lanes + one pole).

In the ground-parallel frame G the lane directions are (1, 0, 0) and the
pole direction is (0, 0, 1).  The rotation camera<-G is parameterized as
R = R' @ Rot(X, alpha) @ Rot(Z, beta) with the first column of R' equal
to the back-projected normal of the pole image line, which satisfies the
pole constraint identically and reduces the lane constraints to a
trigonometric system in (alpha, beta).  Translation then follows from a
3x3 linear system, one plane constraint per line.

The rotations need only the image triple and the ground-parallel frame,
so `solve_rotations` runs once for any number of cloud triples and
`solve_translations` finishes each triple; `solve_p3l` composes the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud_features import GroundParallelFrame
from .errors import DegenerateNormals, MisalignedLine, NoSolution
from .geometry import (
    Extrinsic,
    Intrinsics,
    Line2D,
    Line3D,
    backproject_line,
    matrix_to_angle_axis,
    rot_x,
    rot_z,
)

_LANE_DIR_G = np.array([1.0, 0.0, 0.0])
_POLE_DIR_G = np.array([0.0, 0.0, 1.0])

MAX_CONDITION = 1e6

_LANE_COS = math.cos(math.radians(2.0))
_POLE_COS = math.cos(math.radians(15.0))


@dataclass(frozen=True)
class P3LProblem:
    lane1_img: Line2D
    lane2_img: Line2D
    pole_img: Line2D
    lane1_cloud: Line3D
    lane2_cloud: Line3D
    pole_cloud: Line3D
    frame: GroundParallelFrame
    intrinsics: Intrinsics

    def __post_init__(self):
        check_lane_direction(self.frame, self.lane1_cloud)
        check_lane_direction(self.frame, self.lane2_cloud)
        check_pole_direction(self.frame, self.pole_cloud)


def check_lane_direction(frame: GroundParallelFrame, line: Line3D) -> None:
    """Raise MisalignedLine unless the cloud line runs within 2 deg of X in G."""
    d = frame.rotation @ line.direction
    if abs(float(d @ _LANE_DIR_G)) < _LANE_COS:
        raise MisalignedLine("cloud lane direction deviates > 2 deg from X in G")


def check_pole_direction(frame: GroundParallelFrame, line: Line3D) -> None:
    """Raise MisalignedLine unless the cloud line runs within 15 deg of Z in G."""
    d = frame.rotation @ line.direction
    if abs(float(d @ _POLE_DIR_G)) < _POLE_COS:
        raise MisalignedLine("cloud pole direction deviates > 15 deg from Z in G")


def _orthonormal_from_first(n: np.ndarray) -> np.ndarray:
    """A rotation matrix whose first column is the unit vector n."""
    e = np.zeros(3)
    e[int(np.argmin(np.abs(n)))] = 1.0
    u = e - (e @ n) * n
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return np.column_stack([n, u, v])


@dataclass(frozen=True)
class ImageSolution:
    """The image side of a P3L problem, shared by every cloud triple."""

    normals: np.ndarray   # (3, 3) back-projected plane normals: lane1, lane2, pole
    rotations: tuple      # 0 to 4 rotations LiDAR -> camera, in (alpha, beta) order


def solve_rotations(
    lane1_img: Line2D,
    lane2_img: Line2D,
    pole_img: Line2D,
    intrinsics: Intrinsics,
    frame: GroundParallelFrame,
) -> ImageSolution:
    """Back-project the image triple and solve the (alpha, beta) rotations.

    The rotations depend on the cloud only through the ground-parallel
    frame, since every cloud lane runs along X and every pole along Z in
    G.  An ill-conditioned normal matrix gives no rotation.
    """
    n1 = backproject_line(intrinsics, lane1_img)
    n2 = backproject_line(intrinsics, lane2_img)
    n3 = backproject_line(intrinsics, pole_img)
    N = np.stack([n1, n2, n3])
    sv = np.linalg.svd(N, compute_uv=False)
    if sv[-1] < 1e-6:
        raise DegenerateNormals("back-projected normals span < 3 dimensions")
    well_conditioned = sv[0] / sv[-1] <= MAX_CONDITION

    R_prime = _orthonormal_from_first(n3)
    # lane constraint: n_i . (R' RotX(a) RotZ(b) e1) = 0 with
    # RotX(a) RotZ(b) e1 = (cos b, cos a sin b, sin a sin b)
    m1 = R_prime.T @ n1
    m2 = R_prime.T @ n2
    A = m2[0] * m1[1] - m1[0] * m2[1]
    B = m2[0] * m1[2] - m1[0] * m2[2]
    if abs(A) < 1e-14 and abs(B) < 1e-14:
        raise DegenerateNormals("lane constraints do not determine alpha")
    if not well_conditioned:
        return ImageSolution(N, ())
    alpha0 = math.atan2(-A, B)

    R_LG = frame.rotation
    rotations = []
    for alpha in (alpha0, alpha0 + math.pi):
        ca, sa = math.cos(alpha), math.sin(alpha)
        k1 = m1[1] * ca + m1[2] * sa
        k2 = m2[1] * ca + m2[2] * sa
        # pick the better-conditioned equation for beta
        if abs(m1[0]) + abs(k1) >= abs(m2[0]) + abs(k2):
            beta0 = math.atan2(m1[0], -k1)
        else:
            beta0 = math.atan2(m2[0], -k2)
        for beta in (beta0, beta0 + math.pi):
            R_GC = R_prime @ rot_x(alpha) @ rot_z(beta)
            rotations.append(R_GC @ R_LG)
    return ImageSolution(N, tuple(rotations))


def solve_translations(sol: ImageSolution, lane_points, pole_points, triples):
    """The cloud side: candidate translations for many cloud triples.

    lane_points (L, 3) and pole_points (P, 3) are representative points
    of cloud lines, and each row (a, b, c) of triples picks lane1 =
    lane_points[a], lane2 = lane_points[b] and pole = pole_points[c].
    Every triple is tried at every rotation of `sol`: the translation
    solves n_i . (R p_i + t) = 0, and a candidate whose representative
    points are not all in front of the camera is dropped (cheirality).
    Returns (rotation index, t) of the kept candidates, triple by triple
    and in rotation order within a triple.
    """
    a, b, c = np.asarray(triples, dtype=np.intp).reshape(-1, 3).T
    n_rot = len(sol.rotations)
    if n_rot == 0:
        return np.zeros(0, dtype=np.intp), np.zeros((0, 3))
    n1, n2, n3 = sol.normals
    lane_tab, pole_tab = [], []
    for R in sol.rotations:
        # R @ p one line at a time, once per line: a stacked product
        # rounds differently
        lane_rp = [R @ p for p in lane_points]
        pole_rp = [R @ p for p in pole_points]
        lane_tab.append(
            [[-(n1 @ q) for q in lane_rp], [-(n2 @ q) for q in lane_rp], [q[2] for q in lane_rp]]
        )
        pole_tab.append([[-(n3 @ q) for q in pole_rp], [q[2] for q in pole_rp]])
    # (rotation, [offset as lane1, offset as lane2, depth], line)
    lane_tab = np.array(lane_tab).reshape(n_rot, 3, -1)
    # (rotation, [offset, depth], line)
    pole_tab = np.array(pole_tab).reshape(n_rot, 2, -1)
    # (triple, rotation, line role), flattened triple by triple
    rhs = np.stack([lane_tab[:, 0, a], lane_tab[:, 1, b], pole_tab[:, 0, c]], axis=-1)
    rhs = rhs.transpose(1, 0, 2).reshape(-1, 3)
    depth = np.stack([lane_tab[:, 2, a], lane_tab[:, 2, b], pole_tab[:, 1, c]], axis=-1)
    depth = depth.transpose(1, 0, 2).reshape(-1, 3)
    # one LAPACK solve per system, bit-identical to solve(normals, b);
    # a multi-column right-hand side would not be
    t = np.linalg.solve(np.broadcast_to(sol.normals, (len(rhs), 3, 3)), rhs[..., None])[..., 0]
    keep = (depth + t[:, 2:] > 0).all(axis=1)
    which = np.tile(np.arange(n_rot), len(a))
    return which[keep], t[keep]


def solve_p3l(prob: P3LProblem) -> list[Extrinsic]:
    """All candidate extrinsics consistent with the three correspondences.

    Candidates failing cheirality (the representative point of each line
    must land in front of the camera) or with an ill-conditioned
    translation system are dropped.  Returns 0 to 4 candidates.
    """
    sol = solve_rotations(
        prob.lane1_img, prob.lane2_img, prob.pole_img, prob.intrinsics, prob.frame
    )
    which, ts = solve_translations(
        sol,
        [prob.lane1_cloud.point, prob.lane2_cloud.point],
        [prob.pole_cloud.point],
        [(0, 1, 0)],
    )
    if not len(ts):
        raise NoSolution("every (alpha, beta) candidate was dropped")
    return [Extrinsic(matrix_to_angle_axis(sol.rotations[j]), t) for j, t in zip(which, ts)]
