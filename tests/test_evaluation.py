"""Error metrics, aggregation, and perturbation sampling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib import evaluation
from linecalib.config import RefinementConfig
from linecalib.cost import CostEvaluator
from linecalib.errors import EmptyList, NotARotation
from linecalib.evaluation import (
    aggregate,
    calibration_error,
    perturb,
    perturbation_magnitude,
    robustness_sweep,
    rotation_error,
    translation_error,
)
from linecalib.geometry import Extrinsic, Intrinsics, angle_axis_to_matrix
from linecalib.image_features import HeightMap

MANY = settings(max_examples=1000, deadline=None)

angle_axis = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
).map(np.array)
vec3 = st.tuples(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
).map(np.array)


@MANY
@given(angle_axis, vec3, angle_axis, vec3)
def test_metrics_symmetric_and_zero_on_self(r1, t1, r2, t2):
    a, b = Extrinsic(r1, t1), Extrinsic(r2, t2)
    assert abs(translation_error(a, b) - translation_error(b, a)) < 1e-12
    assert abs(rotation_error(a, b) - rotation_error(b, a)) < 1e-9
    assert translation_error(a, a) == 0.0
    assert rotation_error(a, a) < 1e-9


@MANY
@given(angle_axis, vec3)
def test_calibration_error_component_consistency(r, t):
    ref = Extrinsic(np.array([0.1, -0.2, 0.05]), np.array([0.5, -1.0, 2.0]))
    est = Extrinsic(r, t)
    err = calibration_error(est, ref)
    assert abs(err.dt - math.hypot(err.dtx, math.hypot(err.dty, err.dtz))) < 1e-9
    assert err.dtheta >= 0.0
    assert err.droll >= 0 and err.dpitch >= 0 and err.dyaw >= 0


def test_aggregate_examples():
    e1 = calibration_error(
        Extrinsic(np.zeros(3), np.array([0.1, 0, 0])), Extrinsic.identity()
    )
    e2 = calibration_error(
        Extrinsic(np.zeros(3), np.array([0.3, 0, 0])), Extrinsic.identity()
    )
    mae = aggregate([e1, e2])
    assert abs(mae.dt - 0.2) < 1e-12
    assert aggregate([e1]).dt == e1.dt
    with pytest.raises(EmptyList):
        aggregate([])


@MANY
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
def test_aggregate_permutation_invariant(values, seed):
    rng = np.random.default_rng(seed)
    errs = [
        calibration_error(
            Extrinsic(np.zeros(3), np.array([v, 0, 0])), Extrinsic.identity()
        )
        for v in values
    ]
    perm = list(rng.permutation(len(errs)))
    a = aggregate(errs)
    b = aggregate([errs[i] for i in perm])
    assert abs(a.dt - b.dt) < 1e-9


def test_csv_row_shape():
    err = calibration_error(Extrinsic.identity(), Extrinsic.identity())
    assert len(err.csv_row()) == len(evaluation.CSV_HEADER)


@MANY
@given(st.integers(0, 2**32 - 1))
def test_perturb_respects_magnitude_bounds(seed):
    rng = np.random.default_rng(seed)
    ref = Extrinsic(np.array([0.2, -0.1, 0.3]), np.array([1.0, -2.0, 0.5]))
    max_t, max_theta = 1.0, math.radians(6.0)
    p = perturb(ref, rng, max_t, max_theta)
    err = calibration_error(p, ref)
    assert err.dt <= max_t + 1e-12
    assert err.dtheta <= max_theta + 1e-9
    m = perturbation_magnitude(err.dt, err.dtheta, max_t, max_theta)
    assert m <= math.sqrt(2.0) + 1e-9


def test_perturbation_magnitude_definition():
    assert perturbation_magnitude(0.0, 0.0, 1.0, 1.0) == 0.0
    assert abs(perturbation_magnitude(0.6, 0.8, 1.0, 1.0) - 1.0) < 1e-12
    assert abs(perturbation_magnitude(1.0, 0.0, 2.0, 1.0) - 0.5) < 1e-12


def _raising_refine(exc):
    def refine(initial, ev, cfg):
        raise exc
    return refine


def test_sweep_records_calib_error_as_trial_failure(monkeypatch):
    monkeypatch.setattr(evaluation, "refine", _raising_refine(NotARotation("bad pose")))
    trials = robustness_sweep(
        [None], Extrinsic.identity(), 2, 1.0, 0.1, seed=0, refine_cfg=RefinementConfig()
    )
    assert [t.failure for t in trials] == ["bad pose", "bad pose"]
    assert all(t.refined_error == t.initial_error for t in trials)


def test_sweep_propagates_programming_errors(monkeypatch):
    monkeypatch.setattr(evaluation, "refine", _raising_refine(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        robustness_sweep(
            [None], Extrinsic.identity(), 2, 1.0, 0.1, seed=0, refine_cfg=RefinementConfig()
        )


def test_sweep_records_refine_error_of_a_zero_cost_start():
    """Every point lies far behind the camera, so every pose the search
    tries scores 0: refine raises RefineError and the trial records it."""
    k = Intrinsics(fx=500.0, fy=500.0, cx=64.0, cy=48.0, width=128, height=96)
    pts = np.array([[0.0, 0.0, -50.0], [1.0, 0.0, -60.0]])
    hm = HeightMap(np.full((96, 128), 0.5))
    ev = CostEvaluator(((pts, hm), (pts, hm)), k)
    trials = robustness_sweep(
        [ev], Extrinsic.identity(), 2, 1.0, 0.1, seed=0,
        refine_cfg=RefinementConfig(max_samples=50),
    )
    assert len(trials) == 2
    assert all("not above zero" in t.failure for t in trials)
