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
    assert cfg.seed == 0
    r = cfg.refinement()
    assert [f.name for f in dataclasses.fields(r)] == ["step_final", "max_samples"]
    assert r == RefinementConfig(step_final=0.001, max_samples=10000)


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
    # the gradient ascent has no step schedule, random-search knob or range
    for text in ("gama0 = 0.95\n", "rot_scale = 60\n", "step_init = 1.0\n",
                 "step_decay = 0.1\n", "reject_limit = 50\n", "t_range = 1.0\n",
                 "theta_range_deg = 6.0\n"):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(p)


def test_load_config_rejects_bad_value(tmp_path):
    p = tmp_path / "cfg.txt"
    for text in (
        "gamma0 = fast\n", "grid_x_max = inf\n", "max_samples = 1e3\n",
        "seed = -1\n", "grid_cell = 0\n", "grid_cell = -0.5\n",
        "grid_x_min = 100\n", "grid_y_max = -20\n",
        "plane_trials = 0\n", "line_trials = 0\n", "hough_max_lines = 0\n",
        # a line takes two points: below that a stage crashed with a bare ValueError
        "line_min_inliers = 1\n", "min_feature_points = 0\n", "min_feature_points = 1\n",
    ):
        p.write_text(text, encoding="utf-8")
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
    cfg2 = dataclasses.replace(cfg, seed=9)
    assert cfg2.seed == 9 and cfg.seed == 0


def test_refinement_config_frozen():
    r = RefinementConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.max_samples = 1
