"""The coarse stage against the per-triple enumeration it replaced, and
its choice of the image triple."""
import dataclasses
import math

import pytest

from linecalib.config import PipelineConfig
from linecalib.errors import DegenerateNormals, InsufficientLines, NoSolution
from linecalib.evaluation import calibration_error
from linecalib.image_features import SemanticMask, select_principal_lines
from linecalib.p3l import solve_rotations
from linecalib.pipeline import CalibrationReport, calibrate, coarse_calibrate, extract_features
from linecalib.synth import canonical_spec, generate, random_spec
from test_cost import oracle_cost
from test_p3l import Triple, oracle_solve_triple

FIVE_LANES = (-5.0, -1.8, 1.8, 5.4, 8.8)


def _oracle_coarse(cf, imf, ev):
    """One independent single-triple solve and one cost call per (lane a,
    lane b, pole c) triple; the first best candidate wins."""
    lane1_img, lane2_img, pole_img = select_principal_lines(imf)
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
                        lane1_cloud=lanes[a].line, lane2_cloud=lanes[b].line,
                        pole_cloud=poles[c].line, frame=cf.frame,
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
    "spec, dilate",
    [(canonical_spec(i), False) for i in range(4)]
    + [(canonical_spec(i, lane_offsets=FIVE_LANES, lane_dashed=(False,) * 5), False)
       for i in range(2)]
    + [(canonical_spec(0), True), (random_spec(11), False)],
    ids=[f"canonical{i}" for i in range(4)] + [f"five_lane{i}" for i in range(2)]
    + ["canonical0_dilated", "random11"],
)
def test_coarse_matches_per_triple_oracle(spec, dilate):
    """The pruned coarse stage picks the oracle's candidate, bit for bit;
    the last two frames are those of the two tests below."""
    cfg = PipelineConfig()
    cloud, lane_mask, pole_mask, _ = generate(spec)
    if dilate:
        lane_mask = _dilated(lane_mask)
    cf, imf, ev = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, cfg)
    want, want_cost, want_n = _oracle_coarse(cf, imf, ev)
    report = CalibrationReport()
    got = coarse_calibrate(cf, imf, ev, report)
    assert report.candidates == want_n > 200
    assert report.coarse_cost == want_cost
    assert got.r.tobytes() == want.r.tobytes()
    assert got.t.tobytes() == want.t.tobytes()
    assert 0 < report.scored <= report.candidates
    if len(spec.lane_offsets) == 5:
        # pruning must keep engaging where there is most to prune
        assert 3 * report.scored < report.candidates


def test_degenerate_image_triple_names_its_cause(canonical_features, canonical_evaluator):
    """Coincident image lane lines give degenerate back-projected normals
    (DegenerateNormals from solve_rotations); the principal line selection
    refuses them first, so coarse_calibrate scores nothing."""
    _, cf, imf, _ = canonical_features
    ev, _ = canonical_evaluator
    lane, pole = imf.lane_lines[0].line, select_principal_lines(imf)[2]
    with pytest.raises(DegenerateNormals):
        solve_rotations(lane, lane, pole, ev.intrinsics, cf.frame)
    twin = dataclasses.replace(imf, lane_lines=[imf.lane_lines[0]] * 2)
    report = CalibrationReport()
    with pytest.raises(InsufficientLines):
        coarse_calibrate(cf, twin, ev, report)
    assert report.candidates == 0


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
    cf, imf, ev = extract_features(cloud, _dilated(lane_mask), pole_mask, spec.intrinsics,
                                   PipelineConfig())
    err = calibration_error(coarse_calibrate(cf, imf, ev), gt)
    assert err.dt < 0.5 and math.degrees(err.dtheta) < 3.0


def test_calibrate_random_scene_11():
    """random_spec(11) split a lane stroke the same way and ended 452 m
    off; with distinct principal lanes it holds 0.05 m / 0.5 degrees."""
    spec = random_spec(11)
    cloud, lane_mask, pole_mask, gt = generate(spec)
    est, _ = calibrate(cloud, lane_mask, pole_mask, spec.intrinsics, PipelineConfig())
    err = calibration_error(est, gt)
    assert err.dt < 0.05 and math.degrees(err.dtheta) < 0.5
