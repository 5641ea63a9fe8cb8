"""End-to-end calibration: feature extraction -> coarse P3L -> refinement."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cloud_features import FeatureSetCloud, PointCloud, extract_cloud_features
from .config import PipelineConfig
from .cost import CostEvaluator, cost
from .errors import DegenerateNormals, NoSolution, NoValidCandidate
from .geometry import Extrinsic, Intrinsics
from .image_features import (
    FeatureSetImage,
    SemanticMask,
    extract_image_features,
    select_principal_lines,
)
from .p3l import P3LProblem, solve_p3l
from .refine import refine


@dataclass
class CalibrationReport:
    lane_lines_cloud: int = 0
    pole_lines_cloud: int = 0
    lane_lines_image: int = 0
    pole_lines_image: int = 0
    candidates: int = 0
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
    image_features: FeatureSetImage,
    intrinsics: Intrinsics,
) -> CostEvaluator:
    return CostEvaluator(
        lane_points=cloud_features.lane_points,
        pole_points=cloud_features.pole_points,
        lane_height=image_features.lane_height,
        pole_height=image_features.pole_height,
        intrinsics=intrinsics,
    )


def coarse_calibrate(
    cloud_features: FeatureSetCloud,
    image_features: FeatureSetImage,
    ev: CostEvaluator,
    report: CalibrationReport | None = None,
) -> Extrinsic:
    """Enumerate lane-pair x pole correspondences, keep the best-cost P3L result.

    The image triple (two strongest lane lines, strongest upright pole
    line) is fixed; every ordered assignment of cloud lane lines and every
    cloud pole line is tried: n1 * (n1 - 1) * n2 solves.
    """
    lane1_img, lane2_img, pole_img = select_principal_lines(image_features)
    lanes = cloud_features.lane_lines
    poles = cloud_features.pole_lines
    best = None
    best_key = (0.0, 0)
    n_candidates = 0
    for a in range(len(lanes)):
        for b in range(len(lanes)):
            if a == b:
                continue
            for c in range(len(poles)):
                try:
                    prob = P3LProblem(
                        lane1_img=lane1_img,
                        lane2_img=lane2_img,
                        pole_img=pole_img,
                        lane1_cloud=lanes[a].line,
                        lane2_cloud=lanes[b].line,
                        pole_cloud=poles[c].line,
                        frame=cloud_features.frame,
                        intrinsics=ev.intrinsics,
                    )
                    cands = solve_p3l(prob)
                except (NoSolution, DegenerateNormals, ValueError):
                    continue
                for e in cands:
                    n_candidates += 1
                    score = cost(e, ev)
                    # deterministic argmax: cost first, earliest candidate wins ties
                    if best is None or score > best_key[0]:
                        best, best_key = e, (score, n_candidates)
    if report is not None:
        report.candidates = n_candidates
        report.coarse_cost = best_key[0]
    if best is None or best_key[0] <= 0.0:
        raise NoValidCandidate(
            f"{n_candidates} candidates evaluated, none scored above zero"
        )
    return best


def calibrate(
    cloud: PointCloud,
    lane_mask: SemanticMask,
    pole_mask: SemanticMask,
    intrinsics: Intrinsics,
    cfg: PipelineConfig | None = None,
):
    """Full pipeline; returns (refined extrinsic, report)."""
    cfg = cfg or PipelineConfig()
    report = CalibrationReport()

    t0 = time.perf_counter()
    cf = extract_cloud_features(cloud, seed=cfg.seed, cfg=cfg)
    report.timings["cloud_extraction"] = time.perf_counter() - t0
    report.lane_lines_cloud = len(cf.lane_lines)
    report.pole_lines_cloud = len(cf.pole_lines)

    t0 = time.perf_counter()
    imf = extract_image_features(lane_mask, pole_mask, cfg)
    report.timings["image_extraction"] = time.perf_counter() - t0
    report.lane_lines_image = len(imf.lane_lines)
    report.pole_lines_image = len(imf.pole_lines)

    ev = build_evaluator(cf, imf, intrinsics)

    t0 = time.perf_counter()
    coarse = coarse_calibrate(cf, imf, ev, report)
    report.timings["coarse"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    refined = refine(coarse, ev, cfg.refinement())
    report.timings["refine"] = time.perf_counter() - t0
    report.refined_cost = cost(refined, ev)
    return refined, report
