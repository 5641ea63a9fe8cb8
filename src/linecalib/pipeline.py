"""End-to-end calibration: feature extraction -> coarse P3L -> refinement."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cloud_features import FeatureSetCloud, PointCloud, extract_cloud_features
from .config import PipelineConfig
from .cost import CostEvaluator, cost, cost_batch
from .errors import DegenerateNormals, MisalignedLine, NoValidCandidate
from .geometry import Extrinsic, Intrinsics
from .image_features import (
    FeatureSetImage,
    SemanticMask,
    extract_image_features,
    select_principal_lines,
)
# P3LProblem is unused here but stays importable as pipeline.P3LProblem,
# where perfbench's tracer wraps it
from .p3l import (  # noqa: F401
    ImageSolution,
    P3LProblem,
    check_lane_direction,
    check_pole_direction,
    solve_rotations,
    solve_translations,
)
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
    line) is fixed, so its (at most four) P3L rotations are solved once;
    every ordered assignment of cloud lane lines and every cloud pole line
    then only needs its translation: n1 * (n1 - 1) * n2 triples.  All
    candidates are scored in one batch; the earliest of equal best wins.
    """
    lane1_img, lane2_img, pole_img = select_principal_lines(image_features)
    frame = cloud_features.frame
    lanes = _aligned(cloud_features.lane_lines, frame, check_lane_direction)
    poles = _aligned(cloud_features.pole_lines, frame, check_pole_direction)
    try:
        sol = solve_rotations(lane1_img, lane2_img, pole_img, ev.intrinsics, frame)
    except DegenerateNormals:
        # the image side is shared by every triple: none gives a candidate
        sol = ImageSolution(normals=np.eye(3), rotations=())
    triples = [
        (a, b, c)
        for a in range(len(lanes))
        for b in range(len(lanes))
        if a != b
        for c in range(len(poles))
    ]
    which, ts = solve_translations(
        sol, [line.point for line in lanes], [line.point for line in poles], triples
    )
    # a candidate is scored, like any Extrinsic, at the matrix of its
    # angle-axis vector, which depends on the rotation alone
    matrices = np.array(
        [Extrinsic.from_matrix(R, np.zeros(3)).matrix() for R in sol.rotations]
    ).reshape(-1, 3, 3)
    scores = cost_batch(matrices[which], ts, ev)
    best = int(np.argmax(scores)) if len(scores) else None
    best_cost = 0.0 if best is None else float(scores[best])
    if report is not None:
        report.candidates = len(scores)
        report.coarse_cost = best_cost
    if best is None or best_cost <= 0.0:
        raise NoValidCandidate(
            f"{len(scores)} candidates evaluated, none scored above zero"
        )
    return Extrinsic.from_matrix(sol.rotations[which[best]], ts[best])


def _aligned(scored_lines, frame, check) -> list:
    """The cloud lines that pass a P3L direction gate, in their order."""
    out = []
    for s in scored_lines:
        try:
            check(frame, s.line)
        except MisalignedLine:
            continue
        out.append(s.line)
    return out


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
