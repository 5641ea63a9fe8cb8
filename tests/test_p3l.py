"""Coarse pose solver against exact synthetic line correspondences."""
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib.cloud_features import GroundParallelFrame
from linecalib.errors import DegenerateNormals, MisalignedLine, NoSolution
from linecalib.geometry import (
    Extrinsic,
    Line2D,
    backproject_line,
    matrix_to_angle_axis,
    project,
    rot_x,
    rot_z,
    rotation_geodesic,
)
from linecalib.p3l import (
    MAX_CONDITION,
    P3LProblem,
    _orthonormal_from_first,
    solve_p3l,
)
from linecalib.synth import canonical_spec, random_spec, true_frame, true_lines

MANY = settings(max_examples=1000, deadline=None)


def exact_problem(spec):
    """Build a P3L problem with exact image lines from the true geometry."""
    lanes3d, poles3d, lanes2d, poles2d = true_lines(spec)
    prob = P3LProblem(
        lane1_img=lanes2d[0],
        lane2_img=lanes2d[1],
        pole_img=poles2d[0],
        lane1_cloud=lanes3d[0],
        lane2_cloud=lanes3d[1],
        pole_cloud=poles3d[0],
        frame=true_frame(spec),
        intrinsics=spec.intrinsics,
    )
    return prob, spec.extrinsic


def best_candidate_error(cands, gt):
    return min(
        (
            rotation_geodesic(c.matrix(), gt.matrix()),
            float(np.linalg.norm(c.t - gt.t)),
        )
        for c in cands
    )


def test_oracle_500_random_scenes_within_1e6():
    solvable = 0
    hits = 0
    total_time = 0.0
    for i in range(500):
        spec = random_spec(seed=10_000 + i)
        try:
            prob, gt = exact_problem(spec)
        except Exception:
            continue
        t0 = time.perf_counter()
        try:
            cands = solve_p3l(prob)
        except DegenerateNormals:
            continue
        except NoSolution:
            solvable += 1
            continue
        total_time += time.perf_counter() - t0
        solvable += 1
        dr, dt = best_candidate_error(cands, gt)
        if dr < 1e-6 and dt < 1e-6:
            hits += 1
    assert solvable >= 400
    assert hits / solvable >= 0.99
    assert total_time / solvable < 1e-3  # < 1 ms per solve


def test_candidates_satisfy_generating_constraints():
    for i in range(50):
        spec = random_spec(seed=20_000 + i)
        try:
            prob, gt = exact_problem(spec)
            cands = solve_p3l(prob)
        except (DegenerateNormals, NoSolution, Exception):
            continue
        normals = [
            backproject_line(prob.intrinsics, l)
            for l in (prob.lane1_img, prob.lane2_img, prob.pole_img)
        ]
        lines = [prob.lane1_cloud, prob.lane2_cloud, prob.pole_cloud]
        for c in cands:
            R, t = c.matrix(), c.t
            for n, line in zip(normals, lines):
                # direction lies in the back-projected plane
                assert abs(n @ (R @ line.direction)) < 1e-6
                # representative point lies on the plane
                assert abs(n @ (R @ line.point + t)) < 1e-6


def test_coefficient_scaling_leaves_candidates_unchanged():
    spec = canonical_spec(3)
    prob, gt = exact_problem(spec)
    base = solve_p3l(prob)
    # Line2D normalizes its coefficients, so rebuilding each image line from
    # scaled coefficients must reproduce the identical candidate set
    import dataclasses

    scaled = dataclasses.replace(
        prob,
        lane1_img=Line2D(
            -7.0 * prob.lane1_img.a, -7.0 * prob.lane1_img.b, -7.0 * prob.lane1_img.c
        ),
        lane2_img=Line2D(
            0.01 * prob.lane2_img.a, 0.01 * prob.lane2_img.b, 0.01 * prob.lane2_img.c
        ),
        pole_img=Line2D(
            42.0 * prob.pole_img.a, 42.0 * prob.pole_img.b, 42.0 * prob.pole_img.c
        ),
    )
    other = solve_p3l(scaled)
    assert len(base) == len(other)
    for a, b in zip(base, other):
        assert np.abs(a.t - b.t).max() < 1e-9
        assert rotation_geodesic(a.matrix(), b.matrix()) < 1e-9


def test_degenerate_normals_raise():
    spec = canonical_spec(0)
    prob, gt = exact_problem(spec)
    import dataclasses

    bad = dataclasses.replace(prob, lane2_img=prob.lane1_img, pole_img=prob.lane1_img)
    with pytest.raises(DegenerateNormals):
        solve_p3l(bad)


def test_problem_rejects_misaligned_cloud_lines():
    spec = canonical_spec(0)
    lanes3d, poles3d, _, _ = true_lines(spec)
    import dataclasses

    prob, _ = exact_problem(spec)
    with pytest.raises(MisalignedLine):
        dataclasses.replace(prob, lane1_cloud=poles3d[0])
    with pytest.raises(MisalignedLine):
        dataclasses.replace(prob, pole_cloud=lanes3d[0])


@MANY
@given(st.integers(0, 2**32 - 1))
def test_candidate_rotations_orthonormal(seed):
    # cheap per-case check over a pool of solvable precomputed problems
    rng = np.random.default_rng(seed)
    spec = canonical_spec(int(rng.integers(0, 8)))
    prob, gt = exact_problem(spec)
    try:
        cands = solve_p3l(prob)
    except (DegenerateNormals, NoSolution):
        return
    for c in cands:
        R = c.matrix()
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# the image-side / cloud-side split against the solver it replaced


def _oracle_solve_p3l(prob):
    """solve_p3l as one routine: every (alpha, beta) rotation and its
    translation solved together for this one triple."""
    k = prob.intrinsics
    n1 = backproject_line(k, prob.lane1_img)
    n2 = backproject_line(k, prob.lane2_img)
    n3 = backproject_line(k, prob.pole_img)
    N = np.stack([n1, n2, n3])
    sv = np.linalg.svd(N, compute_uv=False)
    if sv[-1] < 1e-6:
        raise DegenerateNormals("back-projected normals span < 3 dimensions")
    well_conditioned = sv[0] / sv[-1] <= MAX_CONDITION
    R_prime = _orthonormal_from_first(n3)
    m1 = R_prime.T @ n1
    m2 = R_prime.T @ n2
    A = m2[0] * m1[1] - m1[0] * m2[1]
    B = m2[0] * m1[2] - m1[0] * m2[2]
    if abs(A) < 1e-14 and abs(B) < 1e-14:
        raise DegenerateNormals("lane constraints do not determine alpha")
    alpha0 = math.atan2(-A, B)
    R_LG = prob.frame.rotation
    pts_l = [prob.lane1_cloud.point, prob.lane2_cloud.point, prob.pole_cloud.point]
    candidates = []
    for alpha in (alpha0, alpha0 + math.pi):
        ca, sa = math.cos(alpha), math.sin(alpha)
        k1 = m1[1] * ca + m1[2] * sa
        k2 = m2[1] * ca + m2[2] * sa
        if abs(m1[0]) + abs(k1) >= abs(m2[0]) + abs(k2):
            beta0 = math.atan2(m1[0], -k1)
        else:
            beta0 = math.atan2(m2[0], -k2)
        for beta in (beta0, beta0 + math.pi):
            R = R_prime @ rot_x(alpha) @ rot_z(beta) @ R_LG
            if not well_conditioned:
                continue
            b = np.array([-(N[i] @ (R @ pts_l[i])) for i in range(3)])
            t = np.linalg.solve(N, b)
            if min((R @ p + t)[2] for p in pts_l) <= 0:
                continue
            candidates.append(Extrinsic(matrix_to_angle_axis(R), t))
    if not candidates:
        raise NoSolution("every (alpha, beta) candidate was dropped")
    return candidates


def _outcome(solve, prob):
    try:
        return [(e.r.tobytes(), e.t.tobytes()) for e in solve(prob)]
    except (DegenerateNormals, NoSolution) as err:
        return type(err)


def test_split_solver_bits_match_oracle_on_criterion_1_scenes():
    """The 500 random scenes of acceptance criterion 1: same candidates,
    byte for byte, and the same failures."""
    solved = 0
    for i in range(500):
        spec = random_spec(seed=i)
        try:
            prob, _ = exact_problem(spec)
        except (ValueError, MisalignedLine):
            continue
        want = _outcome(_oracle_solve_p3l, prob)
        assert _outcome(solve_p3l, prob) == want
        solved += isinstance(want, list)
    assert solved > 400

