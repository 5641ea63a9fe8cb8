"""Configuration loading: defaults, overrides, and typo rejection."""
import dataclasses

import pytest

from linecalib.config import PipelineConfig, RefinementConfig, load_config
from linecalib.errors import ParseError


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.gamma0 == 0.98
    assert cfg.gamma1 == 0.90
    assert cfg.plane_inlier_band == 0.1
    assert cfg.hough_min_support == 50
    r = cfg.refinement()
    assert r.t_range == 1.0
    assert r.max_samples == 10000
    assert r.step_final == 0.001


def test_load_config_overrides(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("gamma0 = 0.95\nmax_samples = 500\nseed = 3\n", encoding="utf-8")
    cfg = load_config(p)
    assert cfg.gamma0 == 0.95
    assert cfg.max_samples == 500 and isinstance(cfg.max_samples, int)
    assert cfg.seed == 3
    # untouched keys keep their defaults
    assert cfg.gamma1 == PipelineConfig().gamma1


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("gama0 = 0.95\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(p)


def test_load_config_rejects_bad_value(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("gamma0 = fast\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(p)


def test_load_config_validates(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("step_final = 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(p)


def test_load_config_rejects_hough_band_below_half_pixel(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("hough_band_px = -1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(p)
    with pytest.raises(ValueError):
        PipelineConfig(hough_band_px=0.4)
    assert PipelineConfig(hough_band_px=0.5).hough_band_px == 0.5


def test_replace_returns_new_config():
    cfg = PipelineConfig()
    cfg2 = cfg.replace(seed=9)
    assert cfg2.seed == 9 and cfg.seed == 0


def test_refinement_config_frozen():
    r = RefinementConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.seed = 1
