"""Refinement: monotonicity, determinism, the evaluation budget."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecalib.cost as cost_module
import linecalib.refine as refine_module
from linecalib.config import RefinementConfig
from linecalib.cost import CostEvaluator, cost, finish_gradient, value_pass
from linecalib.errors import RefineError
from linecalib.evaluation import perturb
from linecalib.geometry import Extrinsic, Intrinsics, angle_axis_to_matrix, rotation_geodesic
from linecalib.image_features import HeightMap
from linecalib.refine import refine
from test_geometry import oracle_angle_axis_to_matrix, oracle_matrix_to_angle_axis

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
    lane, pole = _points_in_view(rng, start), _points_in_view(rng, start)
    ev = CostEvaluator(((lane, lane_h), (pole, pole_h)), K)
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
    """Count every value evaluation of the cost kernels: cost_batch (behind
    the evaluator and cost) and value_pass; apart from them, every gradient
    finish, and the poses the ascent moves from (the start and each
    accepted step it goes on from)."""
    calls = {"value": 0, "gradient": 0, "bases": []}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    def moved(e, *args):
        if not any(e is b for b in calls["bases"]):
            calls["bases"].append(e)
        return _moved(e, *args)

    _moved = refine_module._moved
    monkeypatch.setattr(cost_module, "cost_batch", counting("value", cost_module.cost_batch))
    monkeypatch.setattr(refine_module, "value_pass", counting("value", refine_module.value_pass))
    monkeypatch.setattr(refine_module, "finish_gradient",
                        counting("gradient", refine_module.finish_gradient))
    monkeypatch.setattr(refine_module, "_moved", moved)
    return calls


@pytest.mark.parametrize("max_samples", [1, 2, 10, 51, 60, 120, 10000])
def test_refine_stays_within_its_evaluation_budget(canonical_evaluator, monkeypatch, max_samples):
    """Every value evaluation, the start's included, counts against
    max_samples; a budget of one scores the start and returns it.  The
    gradient is finished at most once per accepted step and once for the
    start."""
    ev, gt = canonical_evaluator
    start = _criterion_5_start(gt, 1)
    calls = _count_kernel_calls(monkeypatch)
    out = refine(start, ev, RefinementConfig(max_samples=max_samples))
    assert calls["value"] <= max_samples
    # every accepted pose is moved from or returned; the start is neither
    # accepted nor, once a step was accepted, returned
    accepted = len(calls["bases"]) - 1 + (not any(out is b for b in calls["bases"]))
    assert calls["gradient"] <= accepted + 1
    if max_samples == 1:
        assert calls["value"] == 1
        assert out.r.tobytes() == start.r.tobytes() and out.t.tobytes() == start.t.tobytes()
    assert cost(out, ev) >= cost(start, ev)


# ---------------------------------------------------------------------------
# the value-first line search against the eager ascent


def eager_refine(initial, ev, cfg):
    """The ascent with every line-search candidate scored by value_pass
    and finish_gradient, whose gradient a rejected candidate discards, and
    every norm, clip and identity taken by numpy: np.linalg.norm, np.eye,
    np.cross and the rotation-map oracles of test_geometry.  refine must
    return the same bits."""
    scale = np.repeat([1.0, math.radians(6.0)], 3)
    centroid = ev.points.mean(axis=0)

    def moved(e, dt, w, pivot):
        R_w = oracle_angle_axis_to_matrix(w)
        out = Extrinsic(oracle_matrix_to_angle_axis(R_w @ e.matrix()),
                        R_w @ (e.t - pivot) + pivot + dt)
        assert out.matrix().tobytes() == oracle_angle_axis_to_matrix(out.r).tobytes()
        return out

    def climb_state(e):
        vp = value_pass(e, ev)
        f, g = vp.value, finish_gradient(vp)
        pivot = e.matrix() @ centroid + e.t
        g[3:] += np.cross(e.t - pivot, g[:3])
        return f, g * scale, pivot

    best = initial
    f, g, pivot = climb_state(best)
    budget = cfg.max_samples - 1
    H = None
    length = 0.1
    while budget > 0:
        gn = float(np.linalg.norm(g))
        if not gn > 0.0:
            break
        d = H @ g if H is not None else g * (length / gn)
        slope = float(g @ d)
        if not slope > 0.0:
            H = None
            continue
        alpha, accepted = 1.0, False
        while budget > 0 and not accepted:
            s = alpha * d
            x = s * scale
            cand = moved(best, x[:3], x[3:], pivot)
            f_new, g_new, pivot_new = climb_state(cand)
            budget -= 1
            accepted = f_new > f and f_new >= f + 1e-4 * alpha * slope
            alpha *= 0.25
            if np.abs(s).max() * 0.25 < cfg.step_final:
                break
        if not accepted:
            if H is None:
                break
            H = None
            continue
        best, f, pivot = cand, f_new, pivot_new
        if np.abs(s).max() < cfg.step_final:
            break
        length = float(np.linalg.norm(s))
        y = g - g_new
        g = g_new
        sy = float(s @ y)
        if sy > 0.0:
            if H is None:
                H = np.eye(6) * (sy / float(y @ y))
            rho = 1.0 / sy
            V = np.eye(6) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
    if not f > 0.0:
        raise RefineError(f"best cost {f:.6f} after refinement is not above zero")
    return best


def _outcome(ascent, start, ev, cfg):
    try:
        out = ascent(start, ev, cfg)
    except RefineError as e:
        return str(e)
    return out.r.tobytes() + out.t.tobytes()


@MANY
@given(st.integers(0, 2**32 - 1))
def test_refine_is_the_eager_ascent_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    start, ev = small_problem(rng)
    assert _outcome(refine, start, ev, FAST) == _outcome(eager_refine, start, ev, FAST)


@pytest.mark.parametrize("seed", range(12))
def test_refine_is_the_eager_ascent_from_robustness_starts(canonical_evaluator, seed):
    ev, gt = canonical_evaluator
    start = _criterion_5_start(gt, seed)
    cfg = RefinementConfig()
    assert _outcome(refine, start, ev, cfg) == _outcome(eager_refine, start, ev, cfg)


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
