"""Corrupted inputs: the pipeline fails with a CalibError, never a bare one.

The canonical scene is tuned to succeed; a real segmenter and a sparser
scanner are not.  Each case below corrupts one input of canonical scene 0
and runs `calibrate`, which may succeed or raise a CalibError that names
its stage.  Any other exception fails the test.
"""
import numpy as np
import pytest

from linecalib.cloud_features import PointCloud, extract_cloud_features
from linecalib.config import PipelineConfig
from linecalib.errors import CalibError, NoPolePoints
from linecalib.geometry import Extrinsic
from linecalib.image_features import SemanticMask
from linecalib.pipeline import calibrate
from linecalib.synth import canonical_spec, generate, road_to_lidar

NO_POLES = dict(pole_xy=(), pole_heights=(), pole_radii=(), gantries=())


@pytest.fixture(scope="module")
def pole_free_frame():
    return generate(canonical_spec(0, **NO_POLES))


def _both_masks(fn):
    """A case that applies fn(bits, rng) to the lane and the pole mask."""
    def corrupt(cloud, lane, pole, rng):
        return (cloud, SemanticMask("lane", fn(lane.bits, rng)),
                SemanticMask("pole", fn(pole.bits, rng)))
    return corrupt


def _mask(cls, bits):
    """A case that replaces the `cls` mask by bits(shape of the mask)."""
    def corrupt(cloud, lane, pole, rng):
        old = lane if cls == "lane" else pole
        new = SemanticMask(cls, bits(old.bits.shape))
        return (cloud, new, pole) if cls == "lane" else (cloud, lane, new)
    return corrupt


def _cloud(fn):
    def corrupt(cloud, lane, pole, rng):
        return fn(cloud, rng), lane, pole
    return corrupt


def _subsample(cloud, idx):
    return PointCloud(cloud.xyz[idx], cloud.intensity[idx])


def _rows(shape, axis):
    keep = np.zeros(shape, dtype=bool)
    if axis == 0:
        keep[::3] = True
    else:
        keep[:, ::3] = True
    return keep


CASES = {
    "empty lane mask": _mask("lane", lambda s: np.zeros(s, bool)),
    "empty pole mask": _mask("pole", lambda s: np.zeros(s, bool)),
    "full lane mask": _mask("lane", lambda s: np.ones(s, bool)),
    "full pole mask": _mask("pole", lambda s: np.ones(s, bool)),
    "1-row lane mask": _mask("lane", lambda s: np.ones((1, s[1]), bool)),
    "1-row pole mask": _mask("pole", lambda s: np.ones((1, s[1]), bool)),
    "lane mask is the pole mask": lambda c, lane, pole, rng: (
        c, SemanticMask("lane", pole.bits), pole),
    "every third row": _both_masks(lambda b, rng: b & _rows(b.shape, 0)),
    "every third column": _both_masks(lambda b, rng: b & _rows(b.shape, 1)),
    "2% salt": _both_masks(lambda b, rng: b | (rng.random(b.shape) < 0.02)),
    "flat intensity": _cloud(lambda c, rng: PointCloud(c.xyz, np.full(len(c), 0.5))),
    "2000 random points": _cloud(lambda c, rng: PointCloud(
        rng.uniform([-5, -20, -3], [80, 20, 8], size=(2000, 3)), rng.random(2000))),
    "1200-point subsample": _cloud(lambda c, rng: _subsample(
        c, np.sort(rng.choice(len(c), 1200, replace=False)))),
}


def _calibrate_or_calib_error(cloud, lane, pole, intrinsics):
    try:
        extrinsic, _ = calibrate(cloud, lane, pole, intrinsics, PipelineConfig())
    except CalibError as e:
        assert e.stage in ("parse", "extraction", "coarse", "refine"), e
        return e
    assert isinstance(extrinsic, Extrinsic)
    return extrinsic


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_input_fails_typed(canonical_frame, case):
    spec, cloud, lane, pole, _ = canonical_frame
    inputs = CASES[case](cloud, lane, pole, np.random.default_rng(0))
    _calibrate_or_calib_error(*inputs, spec.intrinsics)


def test_scene_without_poles_fails_typed(pole_free_frame):
    cloud, lane, pole, _ = pole_free_frame
    outcome = _calibrate_or_calib_error(cloud, lane, pole, canonical_spec(0).intrinsics)
    assert isinstance(outcome, CalibError)


def test_no_pole_points_at_the_smallest_min_feature_points(pole_free_frame):
    """min_feature_points = 0 reduced an empty label array (a bare
    ValueError) on this scene; the config now refuses it, and at the
    smallest value it takes the scene gives NoPolePoints."""
    with pytest.raises(ValueError):
        PipelineConfig(min_feature_points=0)
    cloud = pole_free_frame[0]
    with pytest.raises(NoPolePoints):
        extract_cloud_features(cloud, 0, PipelineConfig(min_feature_points=2))


def test_a_one_point_pole_cluster_at_the_smallest_line_min_inliers(canonical_frame):
    """line_min_inliers = 1 handed a one-point cluster to ransac_line3d (a
    bare ValueError); the config now refuses it, and at the smallest value
    it takes the lone return is skipped like any cluster too small."""
    with pytest.raises(ValueError):
        PipelineConfig(line_min_inliers=1)
    spec, cloud, _, _, _ = canonical_frame
    lone = road_to_lidar(spec, np.array([[15.0, 12.0, 6.5]]))
    cloud = PointCloud(np.vstack([cloud.xyz, lone]), np.append(cloud.intensity, 0.4))
    cfg = PipelineConfig(line_min_inliers=2)
    cf = extract_cloud_features(cloud, 0, cfg)
    assert any(np.array_equal(p, lone[0]) for p in cf.pole_points)
    assert cf.pole_lines
