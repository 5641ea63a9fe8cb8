"""Error metrics, MAE aggregation, and the miscalibration robustness sweep."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import RefinementConfig
from .cost import CostEvaluator
from .errors import CalibError, EmptyList
from .geometry import (
    Extrinsic,
    angle_axis_to_matrix,
    euler_zyx,
    rotation_geodesic,
)
from .refine import refine


@dataclass(frozen=True)
class CalibrationError:
    dt: float       # meters, |t_est - t_ref|
    dtheta: float   # radians, geodesic rotation distance
    dtx: float
    dty: float
    dtz: float
    droll: float    # radians, ZYX decomposition of the relative rotation
    dpitch: float
    dyaw: float

    def csv_row(self) -> list[str]:
        """The fields formatted for a CSV row, in CSV_HEADER's order."""
        return ["%.9g" % getattr(self, name) for name in CSV_HEADER]


# the column names of csv_row, one per field
CSV_HEADER = tuple(f.name for f in fields(CalibrationError))


def translation_error(est: Extrinsic, ref: Extrinsic) -> float:
    return float(np.linalg.norm(est.t - ref.t))


def rotation_error(est: Extrinsic, ref: Extrinsic) -> float:
    return rotation_geodesic(est.matrix(), ref.matrix())


def calibration_error(est: Extrinsic, ref: Extrinsic) -> CalibrationError:
    d = np.abs(est.t - ref.t)
    # Euler errors from the relative rotation, decomposed ZYX
    roll, pitch, yaw = euler_zyx(est.matrix() @ ref.matrix().T)
    return CalibrationError(
        dt=translation_error(est, ref),
        dtheta=rotation_error(est, ref),
        dtx=float(d[0]),
        dty=float(d[1]),
        dtz=float(d[2]),
        droll=abs(roll),
        dpitch=abs(pitch),
        dyaw=abs(yaw),
    )


def aggregate(errors: list[CalibrationError]) -> CalibrationError:
    """Per-field arithmetic means (the MAE row)."""
    if not errors:
        raise EmptyList("no errors to aggregate")
    return CalibrationError(*(float(np.mean([getattr(e, name) for e in errors]))
                              for name in CSV_HEADER))


def perturbation_magnitude(dt: float, dtheta: float, max_t: float, max_theta: float) -> float:
    """Scalar miscalibration size, translation and rotation each normalized
    by its sweep bound."""
    return math.hypot(dt / max_t, dtheta / max_theta)


def perturb(ref: Extrinsic, rng, max_t: float, max_theta: float) -> Extrinsic:
    """Random pose offset with |dt| <= max_t and |dtheta| <= max_theta.

    Translation: uniform direction, radius uniform in [0, max_t], so the
    offset magnitude (not each axis) respects the bound.  Rotation: uniform
    axis, angle uniform in [-max_theta, max_theta].
    """
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    dt = direction * rng.uniform(0.0, max_t)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_theta, max_theta)
    R = angle_axis_to_matrix(axis * angle) @ ref.matrix()
    return Extrinsic.from_matrix(R, ref.t + dt)


@dataclass(frozen=True)
class SweepTrial:
    initial_magnitude: float
    initial_error: CalibrationError
    refined_error: CalibrationError
    refined_magnitude: float
    failure: str | None = None


def robustness_sweep(
    evaluators: list[CostEvaluator],
    ref: Extrinsic,
    n_trials: int,
    max_t: float,
    max_theta: float,
    seed: int,
    refine_cfg: RefinementConfig,
) -> list[SweepTrial]:
    """Perturb the reference pose and measure how far refinement recovers.

    Each (frame, trial) pair gets its own derived seed, so trials are
    independent and the whole sweep is reproducible.
    """
    trials: list[SweepTrial] = []
    index = 0
    for ev in evaluators:
        for _ in range(n_trials):
            rng = np.random.default_rng(seed + index)
            index += 1
            start = perturb(ref, rng, max_t, max_theta)
            init_err = calibration_error(start, ref)
            mag0 = perturbation_magnitude(init_err.dt, init_err.dtheta, max_t, max_theta)
            try:
                result = refine(start, ev, refine_cfg)
            except CalibError as e:  # recorded per trial, not fatal
                trials.append(
                    SweepTrial(mag0, init_err, init_err, mag0, failure=str(e))
                )
                continue
            ref_err = calibration_error(result, ref)
            mag1 = perturbation_magnitude(ref_err.dt, ref_err.dtheta, max_t, max_theta)
            trials.append(SweepTrial(mag0, init_err, ref_err, mag1))
    return trials
