"""Coarse pose from three line correspondences (two parallel lanes + one pole).

In the ground-parallel frame G the lane directions are (1, 0, 0) and the
pole direction is (0, 0, 1).  The rotation camera<-G is parameterized as
R = R' @ Rot(X, alpha) @ Rot(Z, beta) with the first column of R' equal
to the back-projected normal of the pole image line, which satisfies the
pole constraint identically and reduces the lane constraints to a
trigonometric system in (alpha, beta).  Translation then follows from a
3x3 linear system, one plane constraint per line.

The rotations need only the image triple and the rotation into G, so
`solve_rotations` runs once for any number of cloud triples.  Each of
its four rotations then takes one call of `solve_translations`, which
solves the translation of every cloud triple at that rotation.
`P3LProblem` and `solve_p3l`, the two composed for a single triple, stay
only as the names the benchmark's tracer (perfbench/tracer.py) wraps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormals, NoSolution
from .geometry import (
    Extrinsic,
    Intrinsics,
    Line2D,
    Line3D,
    backproject_line,
    rot_x,
    rot_z,
)

MAX_CONDITION = 1e6


@dataclass(frozen=True)
class P3LProblem:
    lane1_img: Line2D
    lane2_img: Line2D
    pole_img: Line2D
    lane1_cloud: Line3D
    lane2_cloud: Line3D
    pole_cloud: Line3D
    frame: np.ndarray  # R_GL, as ground_parallel_rotation returns it
    intrinsics: Intrinsics


def _orthonormal_from_first(n: np.ndarray) -> np.ndarray:
    """A rotation matrix whose first column is the unit vector n."""
    e = np.zeros(3)
    e[int(np.argmin(np.abs(n)))] = 1.0
    u = e - (e @ n) * n
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return np.column_stack([n, u, v])


def solve_rotations(
    lane1_img: Line2D,
    lane2_img: Line2D,
    pole_img: Line2D,
    intrinsics: Intrinsics,
    frame: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Back-project the image triple and solve the (alpha, beta) rotations.

    The rotations depend on the cloud only through frame, the rotation
    R_GL into G, since every cloud lane runs along X and every pole along
    Z in G.  Returns the normals (rows lane1, lane2, pole) and the four
    rotations LiDAR -> camera in (alpha, beta) order; DegenerateNormals
    if the normals' condition number exceeds MAX_CONDITION.
    """
    n1 = backproject_line(intrinsics, lane1_img)
    n2 = backproject_line(intrinsics, lane2_img)
    n3 = backproject_line(intrinsics, pole_img)
    N = np.stack([n1, n2, n3])
    sv = np.linalg.svd(N, compute_uv=False)
    # no division: coincident lines give sv[-1] = 0
    if not sv[-1] * MAX_CONDITION >= sv[0]:
        raise DegenerateNormals("back-projected normals are ill-conditioned")

    R_prime = _orthonormal_from_first(n3)
    # lane constraint: n_i . (R' RotX(a) RotZ(b) e1) = 0 with
    # RotX(a) RotZ(b) e1 = (cos b, cos a sin b, sin a sin b)
    m1 = R_prime.T @ n1
    m2 = R_prime.T @ n2
    A = m2[0] * m1[1] - m1[0] * m2[1]
    B = m2[0] * m1[2] - m1[0] * m2[2]
    if abs(A) < 1e-14 and abs(B) < 1e-14:
        raise DegenerateNormals("lane constraints do not determine alpha")
    alpha0 = math.atan2(-A, B)

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
            rotations.append(R_GC @ frame)
    return N, rotations


def solve_translations(normals, R, lane_points, pole_points, triples) -> np.ndarray:
    """The cloud side at one rotation R: a translation per cloud triple.

    normals (3, 3) are the back-projected plane normals of the image
    triple, lane_points (L, 3) and pole_points (P, 3) representative
    points of cloud lines, and each row (a, b, c) of triples picks lane1 =
    lane_points[a], lane2 = lane_points[b] and pole = pole_points[c].  The
    translation solves n_i . (R p_i + t) = 0, and a triple whose
    representative points are not all in front of the camera is dropped
    (cheirality).  Returns the kept translations (K, 3) in triple order.
    """
    a, b, c = np.asarray(triples, dtype=np.intp).reshape(-1, 3).T
    n1, n2, n3 = normals
    # R @ p one line at a time, once per line: a stacked product rounds
    # differently; per line [offset as lane1, offset as lane2, depth]
    lane = np.array([(-(n1 @ q), -(n2 @ q), q[2]) for q in (R @ p for p in lane_points)])
    pole = np.array([(-(n3 @ q), q[2]) for q in (R @ p for p in pole_points)])
    rhs = np.stack([lane[a, 0], lane[b, 1], pole[c, 0]], axis=-1)
    # one LAPACK solve per system, bit-identical to solve(normals, b);
    # a multi-column right-hand side would not be
    t = np.linalg.solve(np.broadcast_to(normals, (len(rhs), 3, 3)), rhs[..., None])[..., 0]
    depth = np.stack([lane[a, 2], lane[b, 2], pole[c, 1]], axis=-1)
    return t[(depth + t[:, 2:] > 0).all(axis=1)]


def solve_p3l(prob: P3LProblem) -> list[Extrinsic]:
    """All candidate extrinsics consistent with the three correspondences.

    The pipeline never calls this; it stays only as the name
    perfbench/tracer.py wraps.  Candidates failing cheirality (the
    representative point of each line must land in front of the camera)
    are dropped.  Returns 1 to 4 candidates, in rotation order;
    NoSolution if none is left, DegenerateNormals from solve_rotations.
    """
    normals, rotations = solve_rotations(
        prob.lane1_img, prob.lane2_img, prob.pole_img, prob.intrinsics, prob.frame
    )
    lanes = [prob.lane1_cloud.point, prob.lane2_cloud.point]
    cands = [
        Extrinsic.from_matrix(R, t)
        for R in rotations
        for t in solve_translations(normals, R, lanes, [prob.pole_cloud.point], [(0, 1, 0)])
    ]
    if not cands:
        raise NoSolution("every (alpha, beta) candidate was dropped")
    return cands
