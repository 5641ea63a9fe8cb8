"""Alignment-cost properties on small synthetic evaluators and real scenes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecalib.cost as cost_module
from linecalib.cost import CostEvaluator, cost, cost_batch
from linecalib.evaluation import perturb
from linecalib.geometry import EPS_Z, Extrinsic, Intrinsics
from linecalib.image_features import HeightMap

MANY = settings(max_examples=1000, deadline=None)

K = Intrinsics(fx=500.0, fy=500.0, cx=64.0, cy=48.0, width=128, height=96)


def small_evaluator(rng):
    lane = rng.uniform([-2, -2, 4], [2, 2, 30], size=(int(rng.integers(2, 40)), 3))
    pole = rng.uniform([-2, -2, 4], [2, 2, 30], size=(int(rng.integers(2, 40)), 3))
    lane_h = HeightMap(rng.random((96, 128)))
    pole_h = HeightMap(rng.random((96, 128)))
    return CostEvaluator(lane, pole, lane_h, pole_h, K)


@MANY
@given(st.integers(0, 2**32 - 1))
def test_cost_bounded_zero_to_two(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    e = Extrinsic(rng.normal(size=3) * 0.5, rng.normal(size=3))
    c = cost(e, ev)
    assert 0.0 <= c <= 2.0


@MANY
@given(st.integers(0, 2**32 - 1))
def test_cost_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    e = Extrinsic(rng.normal(size=3) * 0.2, rng.normal(size=3) * 0.5)
    perm_lane = rng.permutation(len(ev.lane_points))
    perm_pole = rng.permutation(len(ev.pole_points))
    ev2 = CostEvaluator(
        ev.lane_points[perm_lane],
        ev.pole_points[perm_pole],
        ev.lane_height,
        ev.pole_height,
        K,
    )
    assert abs(cost(e, ev) - cost(e, ev2)) < 1e-12


def test_behind_camera_contributes_zero():
    rng = np.random.default_rng(0)
    ev = small_evaluator(rng)
    # translate everything far behind the camera
    e = Extrinsic(np.zeros(3), np.array([0.0, 0.0, -1000.0]))
    assert cost(e, ev) == 0.0


def test_out_of_frame_contributes_zero():
    lane = np.array([[0.0, 0.0, 10.0]])
    pole = np.array([[0.0, 0.0, 10.0]])
    hm = HeightMap(np.ones((96, 128)))
    ev = CostEvaluator(lane, pole, hm, hm, K)
    # push the projection far off the left edge
    e = Extrinsic(np.zeros(3), np.array([-50.0, 0.0, 0.0]))
    assert cost(e, ev) == 0.0


def test_empty_point_sets_rejected():
    hm = HeightMap(np.ones((4, 4)))
    with pytest.raises(ValueError):
        CostEvaluator(np.zeros((0, 3)), np.ones((1, 3)), hm, hm, K)


def test_ground_truth_cost_high_on_canonical_scene(canonical_evaluator):
    ev, gt = canonical_evaluator
    assert cost(gt, ev) > 1.8


def test_ground_truth_beats_100_random_perturbations(canonical_evaluator):
    ev, gt = canonical_evaluator
    c_gt = cost(gt, ev)
    rng = np.random.default_rng(123)
    for _ in range(100):
        p = perturb(gt, rng, 0.5, math.radians(3.0))
        assert cost(p, ev) < c_gt


def test_package_attributes_are_the_modules():
    """The package re-exports no function under a submodule's name, so
    these imports bind the modules the README's module table names."""
    import linecalib.cost as cost_module
    import linecalib.refine as refine_module

    assert callable(cost_module.cost)
    assert callable(refine_module.refine)


# ---------------------------------------------------------------------------
# the batched kernel against the per-pose cost it replaced


def _oracle_class_term(R, t, pts, hmap, k):
    """One class term as cost() computed it pose by pose, with the 2-D
    fancy-indexing bilinear lookup: only the points in front of the
    camera are projected, sampled and summed."""
    p_c = pts @ R.T + t
    valid = p_c[:, 2] > EPS_Z
    if not valid.any():
        return 0.0
    p_c = p_c[valid]
    u = k.fx * p_c[:, 0] / p_c[:, 2] + k.cx
    v = k.fy * p_c[:, 1] / p_c[:, 2] + k.cy
    g = hmap.values
    h, w = g.shape
    ok = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.where(ok, u, 0.0)
    vc = np.where(ok, v, 0.0)
    u0 = np.minimum(uc.astype(int), w - 2)
    v0 = np.minimum(vc.astype(int), h - 2)
    fu = uc - u0
    fv = vc - v0
    val = (
        g[v0, u0] * (1 - fu) * (1 - fv)
        + g[v0, u0 + 1] * fu * (1 - fv)
        + g[v0 + 1, u0] * (1 - fu) * fv
        + g[v0 + 1, u0 + 1] * fu * fv
    )
    return float(np.where(ok, val, 0.0).sum()) / len(pts)


def oracle_cost(e, ev):
    R, t = e.matrix(), e.t
    return _oracle_class_term(
        R, t, ev.lane_points, ev.lane_height, ev.intrinsics
    ) + _oracle_class_term(R, t, ev.pole_points, ev.pole_height, ev.intrinsics)


def _assert_batch_matches_oracle(poses, ev):
    want = [oracle_cost(p, ev) for p in poses]
    got = cost_batch(np.stack([p.matrix() for p in poses]), np.stack([p.t for p in poses]), ev)
    assert got.tolist() == want
    assert [cost(p, ev) for p in poses] == want
    return want


def _behind_fraction(pose, ev):
    return float((pose.apply(ev.lane_points)[:, 2] <= EPS_Z).mean())


def test_cost_batch_bits_match_oracle_near_ground_truth(canonical_evaluator):
    ev, gt = canonical_evaluator
    rng = np.random.default_rng(5)
    poses = [gt] + [perturb(gt, rng, 0.2, math.radians(1.0)) for _ in range(30)]
    assert min(_assert_batch_matches_oracle(poses, ev)) > 1.0


def test_cost_batch_bits_match_oracle_with_points_behind(canonical_evaluator):
    ev, gt = canonical_evaluator
    rng = np.random.default_rng(6)
    poses = [perturb(gt, rng, 30.0, math.radians(90.0)) for _ in range(60)]
    partly = [p for p in poses if 0.0 < _behind_fraction(p, ev) < 1.0]
    assert len(partly) >= 10
    _assert_batch_matches_oracle(poses, ev)


def test_cost_batch_all_behind_and_out_of_frame(canonical_evaluator):
    ev, gt = canonical_evaluator
    behind = Extrinsic(gt.r, gt.t - [0.0, 0.0, 1000.0])
    assert _behind_fraction(behind, ev) == 1.0
    off_frame = [Extrinsic(gt.r, gt.t + [dx, dy, 0.0]) for dx, dy in
                 ((-400.0, 0.0), (400.0, 0.0), (0.0, -300.0), (0.0, 300.0))]
    costs = _assert_batch_matches_oracle([behind] + off_frame, ev)
    assert costs == [0.0] * 5


def test_cost_batch_straddles_block_boundary(canonical_evaluator):
    """Poses sharing one rotation, more of them than one block holds."""
    ev, gt = canonical_evaluator
    per_block = cost_module._BLOCK // len(ev.lane_points)
    rng = np.random.default_rng(7)
    n = 2 * per_block + 3
    poses = [Extrinsic(gt.r, gt.t + rng.normal(size=3) * 2.0) for _ in range(n)]
    # interleave a second rotation so the groups are not contiguous
    other = perturb(gt, rng, 0.5, math.radians(5.0))
    poses[1::4] = [Extrinsic(other.r, p.t) for p in poses[1::4]]
    assert sum(p.r.tobytes() == gt.r.tobytes() for p in poses) > per_block
    _assert_batch_matches_oracle(poses, ev)


def test_cost_batch_of_no_pose_is_empty(canonical_evaluator):
    ev, _ = canonical_evaluator
    assert cost_batch(np.zeros((0, 3, 3)), np.zeros((0, 3)), ev).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cost_batch_bits_match_oracle_small_evaluators(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    poses = [Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3) * 3.0) for _ in range(6)]
    poses.append(Extrinsic(poses[0].r, poses[0].t + 1.0))
    _assert_batch_matches_oracle(poses, ev)
