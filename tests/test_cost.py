"""Alignment-cost properties on small synthetic evaluators and real scenes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib.cost import CostEvaluator, cost
from linecalib.evaluation import perturb
from linecalib.geometry import Extrinsic, Intrinsics
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
