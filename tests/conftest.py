"""Shared fixtures: canonical synthetic scenes are expensive, so extract
features once per session and share the evaluator across test modules."""
import sys

import numpy as np
import pytest

from linecalib.config import PipelineConfig
from linecalib.image_features import hough_lines
from linecalib.pipeline import extract_features
from linecalib.synth import canonical_spec, generate


@pytest.fixture(scope="session")
def canonical_frame():
    """(spec, cloud, lane_mask, pole_mask, gt) for the seed-0 canonical scene."""
    spec = canonical_spec(0)
    cloud, lane_mask, pole_mask, gt = generate(spec)
    return spec, cloud, lane_mask, pole_mask, gt


@pytest.fixture(scope="session")
def canonical_features(canonical_frame):
    """(spec, cloud features, evaluator, gt), as extract_features gives them."""
    spec, cloud, lane_mask, pole_mask, gt = canonical_frame
    cf, ev = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, PipelineConfig())
    return spec, cf, ev, gt


@pytest.fixture(scope="session")
def canonical_lines(canonical_frame):
    """(lane, pole) image lines, the coarse stage's hough_lines of each mask."""
    _, _, lane_mask, pole_mask, _ = canonical_frame
    cfg = PipelineConfig()
    return hough_lines(lane_mask, cfg), hough_lines(pole_mask, cfg)


@pytest.fixture(scope="session")
def canonical_evaluator(canonical_features):
    """(evaluator, gt) ready for cost/refine tests."""
    _, _, ev, gt = canonical_features
    return ev, gt


@pytest.fixture
def rebind_everywhere(monkeypatch):
    """rebind(original, replacement): bind every linecalib module global
    that is original to replacement, as the benchmark's tracer does."""

    def rebind(original, replacement):
        for name, mod in list(sys.modules.items()):
            if name.startswith("linecalib."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, replacement)

    return rebind


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
