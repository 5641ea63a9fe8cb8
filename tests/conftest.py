"""Shared fixtures: canonical synthetic scenes are expensive, so extract
features once per session and share the evaluator across test modules."""
import numpy as np
import pytest

from linecalib.config import PipelineConfig
from linecalib.pipeline import build_evaluator, extract_features
from linecalib.synth import canonical_spec, generate


@pytest.fixture(scope="session")
def canonical_frame():
    """(spec, cloud, lane_mask, pole_mask, gt) for the seed-0 canonical scene."""
    spec = canonical_spec(0)
    cloud, lane_mask, pole_mask, gt = generate(spec)
    return spec, cloud, lane_mask, pole_mask, gt


@pytest.fixture(scope="session")
def canonical_features(canonical_frame):
    spec, cloud, lane_mask, pole_mask, gt = canonical_frame
    cf, imf, _ = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, PipelineConfig())
    return spec, cf, imf, gt


@pytest.fixture(scope="session")
def canonical_evaluator(canonical_features):
    """(evaluator, gt) ready for cost/refine tests."""
    spec, cf, imf, gt = canonical_features
    return build_evaluator(cf, imf, spec.intrinsics), gt


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
