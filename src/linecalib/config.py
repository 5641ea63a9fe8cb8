"""Pipeline configuration: every tunable threshold with its default.

Loadable from a UTF-8 `key = value` file; unknown keys are an error so a
typo cannot silently fall back to a default.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ParseError
from .fileio import load_kv_file, parse_fields


@dataclass(frozen=True)
class RefinementConfig:
    """Refinement parameters of the BFGS ascent on the cost's analytic
    gradient (see refine).

    Steps are measured in units of 1 m of translation and 6 degrees of
    rotation; the ascent stops once an accepted step is below step_final
    units in every component.
    """

    step_final: float = 0.001     # ascent stops below this step, in those units
    max_samples: int = 10000      # cost evaluations, the start's included

    def __post_init__(self):
        if not (0 < self.step_final < 1):
            raise ValueError("require 0 < step_final < 1")
        if self.max_samples <= 0:
            raise ValueError("max_samples must be positive")


@dataclass(frozen=True)
class PipelineConfig(RefinementConfig):
    """Every pipeline threshold, plus the inherited refinement fields."""

    seed: int = 0                      # cloud-extraction RANSAC and `sweep` perturbations
    # ground plane
    plane_trials: int = 200            # RANSAC triples; each is dropped once it cannot win
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

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if min(self.plane_trials, self.line_trials, self.hough_max_lines) < 1:
            raise ValueError("plane_trials, line_trials and hough_max_lines must be at least 1")
        if min(self.line_min_inliers, self.min_feature_points) < 2:
            # a line, and a point set to fit one to, takes two points
            raise ValueError("line_min_inliers and min_feature_points must be at least 2")
        if not (self.grid_cell > 0
                and self.grid_x_min < self.grid_x_max and self.grid_y_min < self.grid_y_max):
            raise ValueError("the pole grid needs grid_cell > 0 and min < max on each axis")
        if not (0 < self.gamma0 < 1) or not (0 < self.gamma1 < 1):
            raise ValueError("gamma0 and gamma1 must lie in (0, 1)")
        if self.plane_inlier_band <= 0 or self.line_inlier_tol <= 0:
            raise ValueError("inlier tolerances must be positive")
        if not self.hough_band_px >= 0.5:
            # a peak's own cell lies within 0.5 px of its line, so a band
            # this wide always claims the pixels that voted for the peak
            raise ValueError("hough_band_px must be at least 0.5")
        super().__post_init__()

    def refinement(self) -> RefinementConfig:
        return RefinementConfig(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(RefinementConfig)}
        )


def load_config(path) -> PipelineConfig:
    kwargs = parse_fields(PipelineConfig, load_kv_file(path), path)
    try:
        return PipelineConfig(**kwargs)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e
