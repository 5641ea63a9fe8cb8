"""End-to-end calibration: feature extraction -> coarse P3L -> refinement."""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .cloud_features import FeatureSetCloud, PointCloud, extract_cloud_features
from .config import PipelineConfig
from .cost import CostEvaluator, best_in_batch, cost
from .errors import InsufficientLines, NoValidCandidate
from .geometry import Extrinsic, Intrinsics
from .image_features import (
    HeightMap,
    SemanticMask,
    extract_image_features,
    hough_lines,
    select_principal_lines,
)
# P3LProblem is unused here but stays importable as pipeline.P3LProblem,
# where perfbench's tracer wraps it
from .p3l import P3LProblem, solve_rotations, solve_translations  # noqa: F401
from .refine import refine


@dataclass
class CalibrationReport:
    lane_lines_cloud: int = 0
    pole_lines_cloud: int = 0
    lane_lines_image: int = 0
    pole_lines_image: int = 0
    candidates: int = 0
    scored: int = 0          # coarse candidates scored in full, not in format()
    coarse_cost: float = 0.0
    refined_cost: float = 0.0
    timings: dict = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"lane_lines_cloud: {self.lane_lines_cloud}",
            f"pole_lines_cloud: {self.pole_lines_cloud}",
            f"lane_lines_image: {self.lane_lines_image}",
            f"pole_lines_image: {self.pole_lines_image}",
            f"candidates: {self.candidates}",
            f"coarse_cost: {self.coarse_cost:.6f}",
            f"refined_cost: {self.refined_cost:.6f}",
        ]
        for stage, dt in self.timings.items():
            lines.append(f"time_{stage}_s: {dt:.4f}")
        return "\n".join(lines) + "\n"


def build_evaluator(
    cloud_features: FeatureSetCloud,
    heights: tuple[HeightMap, HeightMap],
    intrinsics: Intrinsics,
) -> CostEvaluator:
    """The cost of the cloud's point sets on the (lane, pole) height maps."""
    lane_height, pole_height = heights
    return CostEvaluator(cloud_features.lane_points, cloud_features.pole_points,
                         lane_height, pole_height, intrinsics)


def coarse_calibrate(
    cloud_features: FeatureSetCloud,
    lines: tuple,
    ev: CostEvaluator,
    report: CalibrationReport | None = None,
) -> Extrinsic:
    """Enumerate lane-pair x pole correspondences, keep the best-cost P3L result.

    lines is (lane, pole): hough_lines of each mask, read by no other
    stage.  The image triple (select_principal_lines) is fixed, so its
    four P3L rotations are solved once; every ordered assignment of cloud
    lane lines and every cloud pole line then only needs its translation:
    n1 * (n1 - 1) * n2 triples.  Each rotation solves its candidates in
    one batch, and best_in_batch scores in full only those that can still
    beat the best of the earlier rotations.  Of equal best scores the
    earliest wins, rotation by rotation and in triple order within a
    rotation.  With a report, records the image line counts too.
    """
    # every cloud line already passes its P3L direction gate
    lanes = [line.point for line in cloud_features.lane_lines]
    poles = [line.point for line in cloud_features.pole_lines]
    if len(lanes) < 2 or not poles:
        raise InsufficientLines(
            f"need >= 2 lane and >= 1 pole cloud lines, got {len(lanes)} / {len(poles)}"
        )
    lane1_img, lane2_img, pole_img = select_principal_lines(*lines)
    # the image triple is shared by every cloud triple, so DegenerateNormals
    # fails them all alike: it propagates
    normals, rotations = solve_rotations(
        lane1_img, lane2_img, pole_img, ev.intrinsics, cloud_features.frame
    )
    pairs = itertools.permutations(range(len(lanes)), 2)
    triples = [(a, b, c) for a, b in pairs for c in range(len(poles))]
    best, best_cost, n, scored = None, 0.0, 0, 0
    for R in rotations:
        ts = solve_translations(normals, R, lanes, poles, triples)
        n += len(ts)
        # a candidate is scored, like any Extrinsic, at the matrix of its
        # angle-axis vector, which depends on the rotation alone
        e = Extrinsic.from_matrix(R, np.zeros(3))
        # strict: a candidate that scores 0 never wins
        k, best_cost, m = best_in_batch(e.matrix(), ts, ev, best_cost)
        scored += m
        if k is not None:
            best = Extrinsic(e.r, ts[k])
    if report is not None:
        report.lane_lines_image, report.pole_lines_image = map(len, lines)
        report.candidates = n
        report.scored = scored
        report.coarse_cost = best_cost
    if best is None:
        raise NoValidCandidate(f"{n} candidates evaluated, none scored above zero")
    return best


def extract_features(
    cloud: PointCloud,
    lane_mask: SemanticMask,
    pole_mask: SemanticMask,
    intrinsics: Intrinsics,
    cfg: PipelineConfig,
    report: CalibrationReport | None = None,
):
    """Cloud features and the cost evaluator of the masks' height maps,
    (cf, ev), as every command on a bundle needs them (no image lines:
    those are the coarse stage's).  With a report, records the two
    extraction timings and the cloud line counts."""
    t0 = time.perf_counter()
    cf = extract_cloud_features(cloud, cfg.seed, cfg)
    t1 = time.perf_counter()
    heights = extract_image_features(lane_mask, pole_mask, cfg)
    t2 = time.perf_counter()
    if report is not None:
        report.timings["cloud_extraction"] = t1 - t0
        report.timings["image_extraction"] = t2 - t1
        report.lane_lines_cloud = len(cf.lane_lines)
        report.pole_lines_cloud = len(cf.pole_lines)
    return cf, build_evaluator(cf, heights, intrinsics)


def calibrate(
    cloud: PointCloud,
    lane_mask: SemanticMask,
    pole_mask: SemanticMask,
    intrinsics: Intrinsics,
    cfg: PipelineConfig,
):
    """Full pipeline; returns (refined extrinsic, report)."""
    report = CalibrationReport()
    cf, ev = extract_features(cloud, lane_mask, pole_mask, intrinsics, cfg, report)

    t0 = time.perf_counter()
    lines = (hough_lines(lane_mask, cfg), hough_lines(pole_mask, cfg))
    coarse = coarse_calibrate(cf, lines, ev, report)
    report.timings["coarse"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    refined = refine(coarse, ev, cfg.refinement())
    report.timings["refine"] = time.perf_counter() - t0
    report.refined_cost = cost(refined, ev)
    return refined, report
