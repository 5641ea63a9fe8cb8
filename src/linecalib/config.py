"""Pipeline configuration: every tunable threshold with its default.

Loadable from a UTF-8 `key = value` file; unknown keys are an error so a
typo cannot silently fall back to a default.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ParseError
from .fileio import load_kv_file


@dataclass(frozen=True)
class RefinementConfig:
    """Random-search refinement parameters."""

    t_range: float = 1.0          # meters, per-axis translation sample bound
    theta_range_deg: float = 0.1  # degrees, base rotation sample bound
    rot_scale: float = 60.0       # multiplier on theta_range (see README)
    step_init: float = 1.0        # initial step size eta
    step_final: float = 0.001     # terminate when eta drops below this
    step_decay: float = 0.1       # eta multiplier on decay
    reject_limit: int = 50        # consecutive rejections before decay
    max_samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.step_final < self.step_init):
            raise ValueError("require 0 < step_final < step_init")
        if not (0 < self.step_decay < 1):
            raise ValueError("require 0 < step_decay < 1")
        if self.max_samples <= 0:
            raise ValueError("max_samples must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    # ground plane
    plane_trials: int = 200
    plane_inlier_band: float = 0.1     # meters, half of the 0.2 m thickness
    plane_min_inlier_ratio: float = 0.2
    # lane extraction; intensity threshold is adaptive: mu + sigma_scale * sigma
    intensity_sigma_scale: float = 1.0
    lane_dist_max: float = 0.3         # meters, d_min cutoff (twice lane width)
    # 3D line fitting
    line_trials: int = 100
    line_inlier_tol: float = 0.15      # meters
    line_min_inliers: int = 20
    min_feature_points: int = 30
    # pole grid, in the ground-parallel frame
    grid_x_min: float = 0.0
    grid_x_max: float = 100.0
    grid_y_min: float = -20.0
    grid_y_max: float = 20.0
    grid_cell: float = 0.5
    pole_h0: float = -1.0              # meters, near-ground noise cutoff
    pole_h1: float = 3.0               # meters, minimum cell elevation
    # inverse distance transform
    gamma0: float = 0.98
    gamma1: float = 0.90
    # Hough line extraction
    hough_min_support: int = 50
    hough_max_lines: int = 8
    hough_band_px: float = 3.0
    hough_lane_theta_margin_deg: float = 25.0
    # refinement
    t_range: float = 1.0
    theta_range_deg: float = 0.1
    rot_scale: float = 60.0
    step_init: float = 1.0
    step_final: float = 0.001
    step_decay: float = 0.1
    reject_limit: int = 50
    max_samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.gamma0 < 1) or not (0 < self.gamma1 < 1):
            raise ValueError("gamma0 and gamma1 must lie in (0, 1)")
        if self.plane_inlier_band <= 0 or self.line_inlier_tol <= 0:
            raise ValueError("inlier tolerances must be positive")
        if not self.hough_band_px >= 0.5:
            # a peak's own cell lies within 0.5 px of its line, so a band
            # this wide always claims the pixels that voted for the peak
            raise ValueError("hough_band_px must be at least 0.5")
        self.refinement()  # validates the shared refinement fields

    def refinement(self) -> RefinementConfig:
        return RefinementConfig(
            t_range=self.t_range,
            theta_range_deg=self.theta_range_deg,
            rot_scale=self.rot_scale,
            step_init=self.step_init,
            step_final=self.step_final,
            step_decay=self.step_decay,
            reject_limit=self.reject_limit,
            max_samples=self.max_samples,
            seed=self.seed,
        )

    def replace(self, **kw) -> "PipelineConfig":
        return dataclasses.replace(self, **kw)


def load_config(path) -> PipelineConfig:
    kv = load_kv_file(path)
    fields = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    unknown = set(kv) - set(fields)
    if unknown:
        raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")
    kwargs = {}
    for key, raw in kv.items():
        default = getattr(PipelineConfig, key)
        try:
            kwargs[key] = type(default)(raw) if not isinstance(default, int) else int(raw)
        except ValueError as e:
            raise ParseError(f"{path}: bad value for {key}: {raw!r}") from e
    try:
        return PipelineConfig(**kwargs)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
