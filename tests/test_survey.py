"""Outcome survey: how `calibrate` ends on three sets of synthetic scenes.

Run with `pytest -s tests/test_survey.py`.  Each frame ends within
(0.05 m, 0.5 deg) of the truth, near (under 1 m off), far, or in a typed
error (a CalibError).  Each set prints its four counts and the scene
numbers behind them, each far pose's cost at the result and at the truth
(a truth that scores higher is a search fault: the coarse stage found no
candidate in its basin; otherwise the cost itself prefers the far pose),
and each error's class and message.

The test asserts only that every frame ends in a pose or a CalibError: a
floor on the counts would turn every change that moves extraction into a
test edit, so a change compares the printed counts before and after.
"""
import math

import pytest

from linecalib.config import PipelineConfig
from linecalib.cost import cost
from linecalib.errors import CalibError
from linecalib.evaluation import calibration_error
from linecalib.geometry import Extrinsic
from linecalib.pipeline import calibrate, extract_features
from linecalib.synth import canonical_spec, generate, random_spec

CFG = PipelineConfig()

SETS = {
    "random": [random_spec(s) for s in range(40)],
    "five-lane": [canonical_spec(s, lane_offsets=(-8.4, -5.0, -1.8, 1.8, 5.4),
                                 lane_dashed=(False,) * 5) for s in range(40)],
    "32-rings": [canonical_spec(s, rings=32) for s in range(10)],
}
KINDS = ("within", "near", "far", "error")


def _outcome(spec):
    """(kind, detail) of calibrate on the scene spec: kind is "within",
    "near", "far" or "error"."""
    cloud, lane_mask, pole_mask, gt = generate(spec)
    try:
        pose, report = calibrate(cloud, lane_mask, pole_mask, spec.intrinsics, CFG)
    except CalibError as exc:
        return "error", f"{type(exc).__name__}: {exc}"
    assert isinstance(pose, Extrinsic)
    err = calibration_error(pose, gt)
    deg = math.degrees(err.dtheta)
    if err.dt < 0.05 and deg < 0.5:
        return "within", ""
    if err.dt < 1.0:
        return "near", f"{err.dt:.3f} m / {deg:.2f} deg"
    _, ev = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, CFG)
    return "far", (f"{err.dt:.2f} m / {deg:.2f} deg, cost {report.refined_cost:.3f} "
                   f"at the result, {cost(gt, ev):.3f} at the truth")


@pytest.mark.parametrize("name", list(SETS))
def test_survey(name):
    outcomes = {kind: [] for kind in KINDS}
    for spec in SETS[name]:
        kind, detail = _outcome(spec)
        outcomes[kind].append((spec.seed, detail))
    counts = " / ".join(str(len(outcomes[kind])) for kind in KINDS)
    print(f"\n[survey {name}] {' / '.join(KINDS)}: {counts}")
    for kind in KINDS:
        print(f"  {kind}: {[seed for seed, _ in outcomes[kind]]}")
    for kind in KINDS[1:]:
        for seed, detail in outcomes[kind]:
            print(f"  {kind} {seed}: {detail}")
    assert sum(map(len, outcomes.values())) == len(SETS[name])
