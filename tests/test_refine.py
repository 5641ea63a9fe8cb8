"""Refinement: monotonicity, determinism, the evaluation budget."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecalib.cost as cost_module
import linecalib.refine as refine_module
from linecalib.config import RefinementConfig
from linecalib.cost import CostEvaluator, cost
from linecalib.errors import RefineError
from linecalib.evaluation import perturb
from linecalib.geometry import Extrinsic, Intrinsics, angle_axis_to_matrix, rotation_geodesic
from linecalib.image_features import HeightMap
from linecalib.refine import refine

MANY = settings(max_examples=1000, deadline=None)

K = Intrinsics(fx=500.0, fy=500.0, cx=64.0, cy=48.0, width=128, height=96)


def _points_in_view(rng, pose):
    """2-19 LiDAR points that `pose` projects inside the 128 x 96 view, at
    depths of 4-30 m."""
    n = int(rng.integers(2, 20))
    u = rng.uniform(0, K.width - 1, size=n)
    v = rng.uniform(0, K.height - 1, size=n)
    z = rng.uniform(4, 30, size=n)
    p_c = np.column_stack([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])
    return (p_c - pose.t) @ pose.matrix()     # R^T (p_C - t)


def small_problem(rng):
    """A random start pose and an evaluator with random height maps whose
    points all lie in view of that start, so the start scores above zero."""
    start = Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3) * 0.5)
    lane_h = HeightMap(rng.random((96, 128)))
    pole_h = HeightMap(rng.random((96, 128)))
    ev = CostEvaluator(_points_in_view(rng, start), _points_in_view(rng, start), lane_h, pole_h, K)
    return start, ev


FAST = RefinementConfig(max_samples=60, step_final=0.01)


@MANY
@given(st.integers(0, 2**32 - 1))
def test_refine_never_worse_than_input(seed):
    rng = np.random.default_rng(seed)
    start, ev = small_problem(rng)
    c0 = cost(start, ev)
    assert c0 > 0.0
    out = refine(start, ev, FAST)
    assert cost(out, ev) >= c0


@MANY
@given(st.integers(0, 2**32 - 1))
def test_refine_deterministic(seed):
    rng = np.random.default_rng(seed)
    start, ev = small_problem(rng)
    a = refine(start, ev, FAST)
    b = refine(start, ev, FAST)
    assert np.array_equal(a.r, b.r) and np.array_equal(a.t, b.t)


def test_refine_recovers_small_offset_on_canonical_scene(canonical_evaluator):
    ev, gt = canonical_evaluator
    start = Extrinsic(gt.r, gt.t + np.array([0.15, -0.1, 0.12]))
    out = refine(start, ev, RefinementConfig())
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
    for bad in (dict(step_final=1.0), dict(step_final=0.0), dict(max_samples=0)):
        with pytest.raises(ValueError):
            RefinementConfig(**bad)


# ---------------------------------------------------------------------------
# from a criterion-5 perturbation of the canonical scene


def _criterion_5_start(gt, seed):
    return perturb(gt, np.random.default_rng(seed), 1.0, math.radians(6.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refine_from_robustness_start_never_worse_and_repeatable(canonical_evaluator, seed):
    ev, gt = canonical_evaluator
    start = _criterion_5_start(gt, seed)
    a = refine(start, ev, RefinementConfig())
    b = refine(start, ev, RefinementConfig())
    assert cost(a, ev) >= cost(start, ev)
    assert a.r.tobytes() == b.r.tobytes() and a.t.tobytes() == b.t.tobytes()


def _count_kernel_calls(monkeypatch):
    """Count every call of the two cost kernels: cost_batch (behind the
    evaluator and cost) and cost_and_gradient."""
    calls = [0]

    def counting(fn):
        def wrapped(*args):
            calls[0] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cost_module, "cost_batch", counting(cost_module.cost_batch))
    monkeypatch.setattr(refine_module, "cost_and_gradient",
                        counting(refine_module.cost_and_gradient))
    return calls


@pytest.mark.parametrize("max_samples", [1, 2, 10, 51, 60, 120, 10000])
def test_refine_stays_within_its_evaluation_budget(canonical_evaluator, monkeypatch, max_samples):
    """Every evaluation, the start's included, counts against max_samples;
    a budget of one scores the start and returns it."""
    ev, gt = canonical_evaluator
    start = _criterion_5_start(gt, 1)
    calls = _count_kernel_calls(monkeypatch)
    out = refine(start, ev, RefinementConfig(max_samples=max_samples))
    assert calls[0] <= max_samples
    if max_samples == 1:
        assert calls[0] == 1
        assert out.r.tobytes() == start.r.tobytes() and out.t.tobytes() == start.t.tobytes()
    assert cost(out, ev) >= cost(start, ev)


def test_moved_rotates_about_its_pivot():
    """The ascent's increment rotates about a camera-frame pivot: a LiDAR
    point mapped onto the pivot stays there."""
    rng = np.random.default_rng(12)
    e = Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3))
    pivot = np.array([1.0, -2.0, 20.0])
    on_pivot = e.matrix().T @ (pivot - e.t)
    w = np.radians([0.5, -1.0, 2.0])
    moved = refine_module._moved(e, np.zeros(3), w, pivot)
    np.testing.assert_allclose(moved.apply(on_pivot), pivot, atol=1e-12)
    assert rotation_geodesic(moved.matrix(), e.matrix()) == pytest.approx(np.linalg.norm(w))
