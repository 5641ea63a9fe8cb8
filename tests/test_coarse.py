"""The coarse stage against the per-triple enumeration it replaced."""
import pytest

from linecalib.cloud_features import extract_cloud_features
from linecalib.config import PipelineConfig
from linecalib.errors import DegenerateNormals, MisalignedLine, NoSolution
from linecalib.image_features import extract_image_features, select_principal_lines
from linecalib.p3l import P3LProblem, solve_p3l
from linecalib.pipeline import CalibrationReport, build_evaluator, coarse_calibrate
from linecalib.synth import canonical_spec, generate
from test_cost import oracle_cost

FIVE_LANES = (-5.0, -1.8, 1.8, 5.4, 8.8)


def _oracle_coarse(cf, imf, ev):
    """One P3L problem, one solve and one cost call per (lane a, lane b,
    pole c) triple; the first best candidate wins."""
    lane1_img, lane2_img, pole_img = select_principal_lines(imf)
    lanes, poles = cf.lane_lines, cf.pole_lines
    best, best_cost, n = None, 0.0, 0
    for a in range(len(lanes)):
        for b in range(len(lanes)):
            if a == b:
                continue
            for c in range(len(poles)):
                try:
                    cands = solve_p3l(P3LProblem(
                        lane1_img=lane1_img, lane2_img=lane2_img, pole_img=pole_img,
                        lane1_cloud=lanes[a].line, lane2_cloud=lanes[b].line,
                        pole_cloud=poles[c].line, frame=cf.frame,
                        intrinsics=ev.intrinsics,
                    ))
                except (NoSolution, DegenerateNormals, MisalignedLine):
                    continue
                for e in cands:
                    n += 1
                    score = oracle_cost(e, ev)
                    if best is None or score > best_cost:
                        best, best_cost = e, score
    return best, best_cost, n


@pytest.mark.parametrize(
    "spec",
    [canonical_spec(i) for i in range(4)]
    + [canonical_spec(i, lane_offsets=FIVE_LANES, lane_dashed=(False,) * 5) for i in range(2)],
    ids=[f"canonical{i}" for i in range(4)] + [f"five_lane{i}" for i in range(2)],
)
def test_coarse_matches_per_triple_oracle(spec):
    cfg = PipelineConfig()
    cloud, lane_mask, pole_mask, _ = generate(spec)
    cf = extract_cloud_features(cloud, seed=cfg.seed, cfg=cfg)
    imf = extract_image_features(lane_mask, pole_mask, cfg)
    ev = build_evaluator(cf, imf, spec.intrinsics)
    want, want_cost, want_n = _oracle_coarse(cf, imf, ev)
    report = CalibrationReport()
    got = coarse_calibrate(cf, imf, ev, report)
    assert report.candidates == want_n > 200
    assert report.coarse_cost == want_cost
    assert got.r.tobytes() == want.r.tobytes()
    assert got.t.tobytes() == want.t.tobytes()
