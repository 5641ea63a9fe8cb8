"""Random-search refinement: monotonicity, determinism, schedule bounds."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib.config import RefinementConfig
from linecalib.cost import CostEvaluator, cost
from linecalib.errors import RefineError
from linecalib.geometry import Extrinsic, Intrinsics, angle_axis_to_matrix, rotation_geodesic
from linecalib.image_features import HeightMap
from linecalib.refine import refine

MANY = settings(max_examples=1000, deadline=None)

K = Intrinsics(fx=500.0, fy=500.0, cx=64.0, cy=48.0, width=128, height=96)


def small_evaluator(rng):
    lane = rng.uniform([-2, -2, 4], [2, 2, 30], size=(int(rng.integers(2, 20)), 3))
    pole = rng.uniform([-2, -2, 4], [2, 2, 30], size=(int(rng.integers(2, 20)), 3))
    lane_h = HeightMap(rng.random((96, 128)))
    pole_h = HeightMap(rng.random((96, 128)))
    return CostEvaluator(lane, pole, lane_h, pole_h, K)


FAST = RefinementConfig(max_samples=60, step_final=0.01)


@MANY
@given(st.integers(0, 2**32 - 1))
def test_refine_never_worse_than_input(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    start = Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3) * 0.5)
    cfg = dataclasses.replace(FAST, seed=int(rng.integers(0, 2**31)))
    try:
        out = refine(start, ev, cfg)
    except RefineError:
        # only a search that never left zero cost fails
        assert cost(start, ev) == 0.0
        return
    assert cost(out, ev) >= cost(start, ev) and cost(out, ev) > 0.0


@MANY
@given(st.integers(0, 2**32 - 1))
def test_refine_deterministic_per_seed(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    start = Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3) * 0.5)
    cfg = dataclasses.replace(FAST, seed=7)
    try:
        a = refine(start, ev, cfg)
    except RefineError:
        with pytest.raises(RefineError):
            refine(start, ev, cfg)
        return
    b = refine(start, ev, cfg)
    assert np.array_equal(a.r, b.r) and np.array_equal(a.t, b.t)


def test_refine_recovers_small_offset_on_canonical_scene(canonical_evaluator):
    ev, gt = canonical_evaluator
    start = Extrinsic(gt.r, gt.t + np.array([0.15, -0.1, 0.12]))
    out = refine(start, ev, RefinementConfig(seed=3))
    assert np.linalg.norm(out.t - gt.t) < np.linalg.norm(start.t - gt.t) / 3
    assert rotation_geodesic(out.matrix(), gt.matrix()) < np.radians(0.5)


def test_refine_fails_when_no_pose_scores_above_zero(canonical_evaluator):
    """Turned 180 degrees about the camera's y axis, the camera faces away
    from every cost point: the search stays at cost 0 and must fail."""
    ev, gt = canonical_evaluator
    flip = angle_axis_to_matrix(np.array([0.0, math.pi, 0.0]))
    start = Extrinsic.from_matrix(flip @ gt.matrix(), flip @ gt.t)
    assert cost(start, ev) == 0.0
    with pytest.raises(RefineError):
        refine(start, ev, RefinementConfig())


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefinementConfig(step_init=0.5, step_final=1.0)
    with pytest.raises(ValueError):
        RefinementConfig(step_decay=1.5)
    with pytest.raises(ValueError):
        RefinementConfig(max_samples=0)
