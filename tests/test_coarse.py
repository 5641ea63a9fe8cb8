"""The coarse stage against the per-triple enumeration it replaced, and
its choice of the image triple."""
import math

import numpy as np
import pytest

import linecalib.cost as cost_module
from linecalib.config import PipelineConfig
from linecalib.cost import CostEvaluator
from linecalib.errors import (
    STAGE_EXIT_CODES,
    DegenerateNormals,
    InsufficientLines,
    NoSolution,
    NoValidCandidate,
)
from linecalib.evaluation import calibration_error
from linecalib.image_features import HeightMap, SemanticMask, hough_lines, select_principal_lines
from linecalib.p3l import solve_rotations
from linecalib.pipeline import CalibrationReport, calibrate, coarse_calibrate, extract_features
from linecalib.synth import canonical_spec, generate, random_spec
from test_cost import oracle_cost
from test_p3l import Triple, oracle_solve_triple

FIVE_LANES = (-5.0, -1.8, 1.8, 5.4, 8.8)


def _oracle_coarse(cf, lines, ev):
    """One independent single-triple solve and one cost call per (lane a,
    lane b, pole c) triple; the first best candidate wins."""
    lane1_img, lane2_img, pole_img = select_principal_lines(*lines)
    lanes, poles = cf.lane_lines, cf.pole_lines
    best, best_cost, n = None, 0.0, 0
    for a in range(len(lanes)):
        for b in range(len(lanes)):
            if a == b:
                continue
            for c in range(len(poles)):
                try:
                    cands = oracle_solve_triple(Triple(
                        lane1_img=lane1_img, lane2_img=lane2_img, pole_img=pole_img,
                        lane1_cloud=lanes[a], lane2_cloud=lanes[b],
                        pole_cloud=poles[c], frame=cf.frame,
                        intrinsics=ev.intrinsics,
                    ))
                except (NoSolution, DegenerateNormals):
                    continue
                for e in cands:
                    n += 1
                    score = oracle_cost(e, ev)
                    if best is None or score > best_cost:
                        best, best_cost = e, score
    return best, best_cost, n


@pytest.mark.parametrize(
    "spec, dilate, pinned",
    [(canonical_spec(i), False, n) for i, n in enumerate((253, 424, 142, 258))]
    + [(canonical_spec(i, lane_offsets=FIVE_LANES, lane_dashed=(False,) * 5), False, n)
       for i, n in enumerate((1222, 938))]
    + [(canonical_spec(0), True, 252), (random_spec(11), False, 382)],
    ids=[f"canonical{i}" for i in range(4)] + [f"five_lane{i}" for i in range(2)]
    + ["canonical0_dilated", "random11"],
)
def test_coarse_matches_per_triple_oracle(spec, dilate, pinned):
    """The pruned coarse stage picks the oracle's candidate, bit for bit;
    the last two frames are those of the two tests below.  Each frame's
    candidate count is pinned: the lane RANSAC draws again when the
    ground mask moves by one point, which can change it (one point took
    canonical 2 from 319 candidates to 142)."""
    cfg = PipelineConfig()
    cloud, lane_mask, pole_mask, _ = generate(spec)
    if dilate:
        lane_mask = _dilated(lane_mask)
    cf, ev = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, cfg)
    lines = (hough_lines(lane_mask, cfg), hough_lines(pole_mask, cfg))
    want, want_cost, want_n = _oracle_coarse(cf, lines, ev)
    report = CalibrationReport()
    got = coarse_calibrate(cf, lines, ev, report)
    assert report.candidates == want_n == pinned
    assert (report.lane_lines_image, report.pole_lines_image) == tuple(map(len, lines))
    assert report.coarse_cost == want_cost
    assert got.r.tobytes() == want.r.tobytes()
    assert got.t.tobytes() == want.t.tobytes()
    assert 0 < report.scored <= report.candidates
    if len(spec.lane_offsets) == 5:
        # pruning must keep engaging where there is most to prune
        assert 3 * report.scored < report.candidates


def test_coarse_stage_point_lookups(monkeypatch, canonical_features, canonical_lines):
    """A work guard, with no timing: on canonical scene 0, coarse_calibrate
    reads at most 80% of the points that cost._sums read when the staged
    bound read the same fractions of both terms (247,406 lookups).  Both
    kernels count: the exact lookups of cost._sums and the staged bound's
    cell ceilings, cost._ceiling_sums."""
    _, cf, ev, _ = canonical_features
    read = [0]

    def counting(kernel):
        def counted(q, t, hmap, k):
            read[0] += q.shape[1] * len(t)
            return kernel(q, t, hmap, k)
        return counted

    for name in ("_sums", "_ceiling_sums"):
        monkeypatch.setattr(cost_module, name, counting(getattr(cost_module, name)))
    coarse_calibrate(cf, canonical_lines, ev)
    assert 0 < read[0] <= 0.8 * 247_406


def test_degenerate_image_triple_names_its_cause(canonical_features, canonical_lines):
    """Coincident image lane lines give degenerate back-projected normals
    (DegenerateNormals from solve_rotations); the principal line selection
    refuses them first, so coarse_calibrate scores nothing."""
    _, cf, ev, _ = canonical_features
    lane_lines, pole_lines = canonical_lines
    lane, pole = lane_lines[0].line, select_principal_lines(*canonical_lines)[2]
    with pytest.raises(DegenerateNormals):
        solve_rotations(lane, lane, pole, ev.intrinsics, cf.frame)
    twin = ([lane_lines[0]] * 2, pole_lines)
    report = CalibrationReport()
    with pytest.raises(InsufficientLines):
        coarse_calibrate(cf, twin, ev, report)
    assert report.candidates == 0


def test_no_candidate_above_zero_is_a_coarse_error(canonical_features, canonical_lines):
    """Over all-zero height maps every candidate scores 0, and a candidate
    that scores 0 never wins: the coarse stage fails with exit code 3."""
    spec, cf, _, _ = canonical_features
    k = spec.intrinsics
    zero = HeightMap.from_values(np.zeros((k.height, k.width)))
    ev = CostEvaluator(((cf.lane_points, zero), (cf.pole_points, zero)), k)
    report = CalibrationReport()
    with pytest.raises(NoValidCandidate) as info:
        coarse_calibrate(cf, canonical_lines, ev, report)
    assert report.candidates > 0 and report.coarse_cost == 0.0
    assert str(info.value) == f"{report.candidates} candidates evaluated, none scored above zero"
    assert STAGE_EXIT_CODES[info.value.stage] == 3


def _dilated(mask):
    """The mask grown by one 4-neighbour step, as a wider segmenter stroke."""
    b = mask.bits.copy()
    b[1:] |= mask.bits[:-1]
    b[:-1] |= mask.bits[1:]
    b[:, 1:] |= mask.bits[:, :-1]
    b[:, :-1] |= mask.bits[:, 1:]
    return SemanticMask(mask.cls, b)


def test_coarse_survives_a_dilated_lane_mask(canonical_frame):
    """Dilated by one step, the lane mask's strongest stroke comes back as
    a second line at its own angle; pairing the two put the coarse pose
    31 m / 91 degrees off.  It must hold criterion 3's 0.5 m / 3 degrees."""
    spec, cloud, lane_mask, pole_mask, gt = canonical_frame
    cfg, lane_mask = PipelineConfig(), _dilated(lane_mask)
    cf, ev = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, cfg)
    lines = (hough_lines(lane_mask, cfg), hough_lines(pole_mask, cfg))
    err = calibration_error(coarse_calibrate(cf, lines, ev), gt)
    assert err.dt < 0.5 and math.degrees(err.dtheta) < 3.0


def test_calibrate_random_scene_11():
    """random_spec(11) split a lane stroke the same way and ended 452 m
    off; with distinct principal lanes it holds 0.05 m / 0.5 degrees."""
    spec = random_spec(11)
    cloud, lane_mask, pole_mask, gt = generate(spec)
    est, _ = calibrate(cloud, lane_mask, pole_mask, spec.intrinsics, PipelineConfig())
    err = calibration_error(est, gt)
    assert err.dt < 0.05 and math.degrees(err.dtheta) < 0.5
